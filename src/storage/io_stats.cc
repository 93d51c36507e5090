#include "storage/io_stats.h"

#include <sstream>

namespace dsf {

namespace {
int64_t ClampedDiff(int64_t a, int64_t b) { return a > b ? a - b : 0; }
}  // namespace

IoStats IoStats::operator-(const IoStats& other) const {
  IoStats out;
  out.page_reads = ClampedDiff(page_reads, other.page_reads);
  out.page_writes = ClampedDiff(page_writes, other.page_writes);
  out.seeks = ClampedDiff(seeks, other.seeks);
  out.sequential_accesses =
      ClampedDiff(sequential_accesses, other.sequential_accesses);
  out.logical_reads = ClampedDiff(logical_reads, other.logical_reads);
  out.logical_writes = ClampedDiff(logical_writes, other.logical_writes);
  return out;
}

IoStats& IoStats::operator+=(const IoStats& other) {
  page_reads += other.page_reads;
  page_writes += other.page_writes;
  seeks += other.seeks;
  sequential_accesses += other.sequential_accesses;
  logical_reads += other.logical_reads;
  logical_writes += other.logical_writes;
  return *this;
}

void IoStats::Reset() { *this = IoStats(); }

void AccessTracker::OnAccess(int64_t address, bool is_write) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  if (is_write) {
    page_writes_.fetch_add(1, kRelaxed);
  } else {
    page_reads_.fetch_add(1, kRelaxed);
  }
  // One exchange both reads the previous arm position and claims this
  // access as the new one; each access classifies against its global
  // predecessor (see the class comment on concurrent approximation).
  const int64_t prev = last_address_.exchange(address, kRelaxed);
  if (prev >= 0 &&
      (address == prev || address == prev + 1 || address == prev - 1)) {
    sequential_accesses_.fetch_add(1, kRelaxed);
  } else {
    seeks_.fetch_add(1, kRelaxed);
  }
}

void AccessTracker::OnLogical(bool is_write) {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  if (is_write) {
    logical_writes_.fetch_add(1, kRelaxed);
  } else {
    logical_reads_.fetch_add(1, kRelaxed);
  }
}

IoStats AccessTracker::stats() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  IoStats out;
  out.page_reads = page_reads_.load(kRelaxed);
  out.page_writes = page_writes_.load(kRelaxed);
  out.seeks = seeks_.load(kRelaxed);
  out.sequential_accesses = sequential_accesses_.load(kRelaxed);
  out.logical_reads = logical_reads_.load(kRelaxed);
  out.logical_writes = logical_writes_.load(kRelaxed);
  return out;
}

void AccessTracker::Reset() {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  page_reads_.store(0, kRelaxed);
  page_writes_.store(0, kRelaxed);
  seeks_.store(0, kRelaxed);
  sequential_accesses_.store(0, kRelaxed);
  logical_reads_.store(0, kRelaxed);
  logical_writes_.store(0, kRelaxed);
  last_address_.store(-1, kRelaxed);
}

std::string IoStats::ToString() const {
  std::ostringstream os;
  os << "reads=" << page_reads << " writes=" << page_writes
     << " seeks=" << seeks << " sequential=" << sequential_accesses
     << " logical_reads=" << logical_reads
     << " logical_writes=" << logical_writes;
  return os.str();
}

}  // namespace dsf
