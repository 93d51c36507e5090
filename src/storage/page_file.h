// PageFile: M consecutive pages of auxiliary memory with full page-access
// accounting.
//
// Every algorithm in libdsf (the dense-file controls and all baselines)
// goes through the accounted accessors so that experiments can compare
// page-access counts. The pages live on one of two devices:
//
//   - the simulated device (the default): a vector of M in-memory pages,
//     the paper's cost model at RAM speed. Every simulated test and
//     sweep runs on it.
//   - a StorageBackend (AttachBackend): the device is the source of
//     truth and PageFile keeps no page vector. An accounted read fills
//     the caller's page through StorageBackend::ReadPage; an accounted
//     write hands the finished page to WritePage before it returns. The
//     only pages in memory are the callers' own: buffer-pool frames and
//     per-call scratch. This is Willard's model, where only the
//     calibrator lives in main memory and every page access is a
//     transfer from the auxiliary device.
//
// Reads therefore take a caller-owned `scratch` page and return a
// pointer to the content: the simulated page itself, or `scratch` filled
// from the backend. The pointer is valid until the next write of that
// address or the next use of `scratch`. Scratch may be default-
// constructed; it is sized on first use. Concurrent shared-lock readers
// each pass their own scratch, so reads never share a buffer. Writes
// pass the whole new content as a sorted record range: every writer
// replaces whole pages.
//
// TryRead()/TryWrite() charge the access, consult the optional
// FaultPolicy, and return kIoError on an injected fault (the page is
// left untouched, so a failed write never tears a page). RawRead()/
// RawWrite() are the unaccounted, fault-immune pair: for setup (bulk
// loads), recovery (CheckAndRepair), layout bookkeeping (freed-tail
// clears) and validators — never for online algorithm logic. dsflint's
// raw-page-io rule confines them to the storage layer and annotated
// call sites.
//
// Addresses are 1-based (pages 1..M), matching the paper.

#ifndef DSF_STORAGE_PAGE_FILE_H_
#define DSF_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/fault_injection.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/record.h"
#include "storage/storage_backend.h"
#include "util/status.h"

namespace dsf {

class PageFile {
 public:
  // Creates `num_pages` empty pages, each with `page_capacity` slots.
  PageFile(int64_t num_pages, int64_t page_capacity);

  int64_t num_pages() const { return num_pages_; }
  int64_t page_capacity() const { return page_capacity_; }

  // Accounted, fallible access. `address` in [1, num_pages] (violations
  // return OutOfRange, not abort, and charge nothing). The access is
  // charged to IoStats and then checked against the installed
  // FaultPolicy, if any: on an injected fault nothing is read or written
  // and kIoError is returned.
  // A real device error from the backend (EIO, a checksum mismatch)
  // surfaces the same way, after the charge.
  //
  // TryRead/TryWrite charge one *logical* and one *physical* access; an
  // unpooled caller always pays the device. A BufferPool splits the two:
  // it charges CountLogical() on every request and TryDeviceRead/
  // TryDeviceWrite only on misses and write-back, so the logical counters
  // record what the algorithm asked for and page_reads/page_writes record
  // actual device traffic.
  StatusOr<const Page*> TryRead(Address address, Page* scratch);
  Status TryWrite(Address address, const Record* begin, const Record* end);

  // Physical-only access: charges the device counters (seek/sequential
  // classification, fault consultation) without the logical counters.
  // Used by the buffer pool for miss fills and write-back.
  StatusOr<const Page*> TryDeviceRead(Address address, Page* scratch);
  Status TryDeviceWrite(Address address, const Record* begin,
                        const Record* end);

  // Logical-only accounting: records that the algorithm requested a page
  // access that may be absorbed by a cache. Callers range-check first
  // (CheckAddress), so a refused request is never counted.
  void CountLogical(bool is_write) { tracker_.OnLogical(is_write); }

  // OK when `address` is in [1, num_pages]; otherwise OutOfRange, naming
  // `op` ("read", "pool", ...). Every accessor checks before it charges.
  Status CheckAddress(Address address, const char* op) const {
    if (address >= 1 && address <= num_pages_) return Status::OK();
    return AddressError(op, address);
  }

  // Unaccounted, fault-immune access (see the header note). RawRead is
  // safe under concurrent shared-lock readers; RawWrite is writer-side.
  StatusOr<const Page*> RawRead(Address address, Page* scratch) const;
  Status RawWrite(Address address, const Record* begin, const Record* end);

  // Installs (or clears, with nullptr) the fault schedule consulted by
  // TryRead/TryWrite. Shared so tests can keep steering it mid-run.
  void set_fault_policy(std::shared_ptr<FaultPolicy> policy) {
    fault_policy_ = std::move(policy);
  }
  FaultPolicy* fault_policy() const { return fault_policy_.get(); }

  // Makes `backend` the device (see the header note) and drops the
  // simulated page vector. Attach before the first write: the backend's
  // current content becomes the file's content, so a fresh backend is an
  // empty file and an existing file pair is the reopen path (the caller
  // then runs CheckAndRepair, which also finds and quarantines torn
  // slots). Nothing is read here. Geometry must match the live file; a
  // second attach is refused.
  Status AttachBackend(std::unique_ptr<StorageBackend> backend);
  StorageBackend* backend() const { return backend_.get(); }

  // Persistence barrier: if anything was written to the backend since
  // the last barrier, calls its SyncBarrier (fdatasync for a file
  // backend). No-op without a backend. ControlBase invokes this exactly
  // at the points the crash-ordering argument assumes durability
  // (docs/STORAGE.md).
  //
  // A failed barrier is latched. The kernel may have dropped the dirty
  // pages it could not write back, so a retried fdatasync can return 0
  // for data that is gone. The failing call returns the backend's error;
  // from then on every barrier and every backend write (TryWrite,
  // TryDeviceWrite, RawWrite) returns kIoError, and reads keep working.
  // Only a reopen, which builds a new PageFile over the device, clears
  // it.
  Status SyncBarrier();

  // Counter snapshot, by value: the tracker's counters are atomics so
  // concurrent shared readers (docs/CONCURRENCY.md) can charge accesses
  // race-free, and there is no stable IoStats object to reference.
  IoStats stats() const { return tracker_.stats(); }
  void ResetStats();

  // Total records across all pages (O(M) unaccounted reads; for
  // validation and tests).
  StatusOr<int64_t> TotalRecords() const;

  // True iff every page is well-formed and keys ascend globally across
  // pages (condition (iii) of (d,D)-density). O(M) unaccounted reads.
  StatusOr<bool> GloballyOrdered() const;

 private:
  // Charges one physical access to `address`, then consults the fault
  // policy; an injected fault is returned after the charge.
  Status Charge(Address address, bool is_write);
  Status AddressError(const char* op, Address address) const;
  // The device transfer behind every read and write, accounted or not.
  StatusOr<const Page*> LoadPage(Address address, Page* scratch) const;
  Status StorePage(Address address, const Record* begin, const Record* end);

  int64_t num_pages_;
  int64_t page_capacity_;
  // The simulated device; empty once a backend is attached.
  std::vector<Page> pages_;
  AccessTracker tracker_;
  std::shared_ptr<FaultPolicy> fault_policy_;
  std::unique_ptr<StorageBackend> backend_;
  // Assembles a record range into the Page that WritePage takes. Writes
  // are serialized (a writer's exclusive lock or the pool mutex), so one
  // buffer serves them all.
  Page write_page_;
  bool dirty_since_sync_ = false;
  // Set by the first failed SyncBarrier (see SyncBarrier).
  bool sync_failed_ = false;
};

}  // namespace dsf

#endif  // DSF_STORAGE_PAGE_FILE_H_
