// A parametric rotating-disk latency model.
//
// Converts IoStats (seeks vs. sequential page accesses) into simulated
// milliseconds. This is what turns the paper's qualitative claim — stream
// retrieval from a sequential file beats a B-tree because consecutive keys
// live in adjacent pages — into a measurable number. Defaults approximate
// a mid-1980s disk (the paper's era): 30 ms average seek, 1 ms sequential
// page transfer.

#ifndef DSF_STORAGE_DISK_MODEL_H_
#define DSF_STORAGE_DISK_MODEL_H_

#include <cstdint>
#include <string>

#include "storage/io_stats.h"

namespace dsf {

struct DiskModel {
  double seek_ms = 30.0;      // arm movement + rotational latency
  double transfer_ms = 1.0;   // reading/writing one page once positioned

  // Latency for an access pattern: every access pays the transfer cost,
  // non-sequential accesses additionally pay a seek.
  double LatencyMs(const IoStats& stats) const;
  double LatencyMs(int64_t seeks, int64_t total_accesses) const;

  std::string ToString() const;
};

}  // namespace dsf

#endif  // DSF_STORAGE_DISK_MODEL_H_
