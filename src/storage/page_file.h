// PageFile: M consecutive pages of simulated auxiliary memory with full
// page-access accounting.
//
// Every algorithm in libdsf (the dense-file controls and all baselines)
// goes through the accounted accessors so that experiments can compare
// page-access counts. TryRead()/TryWrite() charge the access, consult the
// optional FaultPolicy, and return the page or kIoError; Read()/Write()
// are infallible wrappers that abort on a fault. Peek() is free and
// reserved for validators, tests, debug printing and offline recovery —
// never for online algorithm logic.
//
// Addresses are 1-based (pages 1..M), matching the paper.

#ifndef DSF_STORAGE_PAGE_FILE_H_
#define DSF_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk_model.h"
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
  // return OutOfRange, not abort). The access is charged to IoStats and
  // then checked against the installed FaultPolicy, if any: on an injected
  // fault the page is left untouched and kIoError is returned. A failed
  // write therefore never tears an individual page.
  //
  // TryRead/TryWrite charge one *logical* and one *physical* access; an
  // unpooled caller always pays the device. A BufferPool splits the two:
  // it charges CountLogical() on every request and TryDeviceRead/
  // TryDeviceWrite only on misses and write-back, so the logical counters
  // record what the algorithm asked for and page_reads/page_writes record
  // actual device traffic.
  StatusOr<const Page*> TryRead(Address address);
  StatusOr<Page*> TryWrite(Address address);

  // Physical-only access: charges the device counters (seek/sequential
  // classification, fault consultation, simulated latency) without the
  // logical counters. Used by the buffer pool for miss fills and
  // write-back.
  StatusOr<const Page*> TryDeviceRead(Address address);
  StatusOr<Page*> TryDeviceWrite(Address address);

  // Logical-only accounting: records that the algorithm requested a page
  // access that may be absorbed by a cache.
  void CountLogical(bool is_write) { tracker_.OnLogical(is_write); }

  // Accounted, infallible access: aborts the process on a bad address or
  // an injected fault. For call sites whose layer has no error channel —
  // under fault injection they fail loudly instead of ignoring the fault.
  const Page& Read(Address address);
  Page& Write(Address address);

  // Installs (or clears, with nullptr) the fault schedule consulted by
  // TryRead/TryWrite. Shared so tests can keep steering it mid-run.
  void set_fault_policy(std::shared_ptr<FaultPolicy> policy) {
    fault_policy_ = std::move(policy);
    UpdateSlowPath();
  }
  FaultPolicy* fault_policy() const { return fault_policy_.get(); }

  // Attaches a durable device behind the file. The in-memory pages stay
  // the *working image* (what every accessor above returns); the backend
  // is the state that survives a process death. On attach the device
  // image is loaded INTO the working image — a fresh backend is all
  // empty pages, so attaching one to a fresh file is a no-op, and
  // attaching an existing file pair is the reopen path. Pages whose
  // device slot fails integrity checks (torn/corrupt, kIoError from the
  // backend) are left empty in the working image and recorded in
  // corrupt_pages_at_open(); callers must follow with CheckAndRepair.
  //
  // Persistence model — one-slot write-behind. A device write hands the
  // caller a Page* that is mutated *after* the call returns, so the
  // write cannot be persisted inside TryDeviceWrite. Instead the
  // address is parked in a pending slot and serialized to the backend
  // at the next device access or SyncBarrier(), by which time the
  // accounting discipline guarantees the mutation is complete (every
  // page mutation is preceded by its charged access). Back-to-back
  // writes to the same address combine into one backend write; distinct
  // addresses flush in exactly the order the accesses were charged, so
  // the device sees the crash-safe write ordering unchanged. RawPage
  // bookkeeping mutations ride the same pending slot (unaccounted, but
  // persisted). Fault injection composes: the FaultPolicy is consulted
  // before the pending slot is touched, so an injected fault suppresses
  // the durable write exactly as it suppresses the simulated one.
  //
  // Geometry must match the live file; a second attach is refused.
  Status AttachBackend(std::unique_ptr<StorageBackend> backend);
  StorageBackend* backend() const { return backend_.get(); }

  // Persistence barrier: flushes the pending slot and, if anything was
  // written since the last barrier, calls the backend's SyncBarrier
  // (fdatasync for a file backend). No-op without a backend. ControlBase
  // invokes this exactly at the points the crash-ordering argument
  // assumes durability (docs/STORAGE.md).
  Status SyncBarrier();

  // Pages whose device slot was unreadable when AttachBackend loaded the
  // image (empty for a clean open).
  const std::vector<Address>& corrupt_pages_at_open() const {
    return corrupt_pages_at_open_;
  }

  // Unaccounted access for validators / tests / printing only.
  const Page& Peek(Address address) const;

  // Unaccounted mutable access. Reserved for (a) initial loading in tests
  // and benches, and (b) layout bookkeeping that a real system would do in
  // metadata (e.g. marking a tail page of a shrunken macro-block free).
  // Algorithm logic must use Read()/Write().
  Page& RawPage(Address address);

  // Counter snapshot, by value: the tracker's counters are atomics so
  // concurrent shared readers (docs/CONCURRENCY.md) can charge accesses
  // race-free, and there is no stable IoStats object to reference.
  IoStats stats() const { return tracker_.stats(); }
  void ResetStats();

  // Simulated device latency. A seek access charges SeekChargeNs, a
  // sequential access SequentialChargeNs — so a coalesced flush run of
  // R consecutive pages costs one seek charge plus R-1 transfer charges
  // — accumulated into IoStats::sim_elapsed_ns and, when `sleep` is set,
  // also paid as a real sleep on every accounted access. No model (the
  // default) keeps the file purely in-memory. Experiments use this to
  // model disk/flash-resident files, where page accesses — the paper's
  // cost metric — dominate command time; sleeps on different PageFile
  // instances overlap, as independent devices would. Peek/RawPage stay
  // free, mirroring the accounting rule above. A flat per-access latency
  // L is DiskModel{seek_ms = 0, transfer_ms = L}. Both the accounting
  // and the sleep read the AccessTracker's single charge model, so they
  // can never disagree.
  void set_disk_model(const DiskModel& model, bool sleep = false) {
    tracker_.SetChargeNs(model.SeekChargeNs(), model.SequentialChargeNs());
    sleep_on_access_ = sleep;
    UpdateSlowPath();
  }

  // Total records across all pages (O(M); for validation and loading).
  int64_t TotalRecords() const;

  // True iff every page is well-formed and keys ascend globally across
  // pages (condition (iii) of (d,D)-density).
  bool GloballyOrdered() const;

  std::string DebugString() const;

 private:
  // Fault consultation and the latency sleep both live off the hot path:
  // TryDeviceRead/TryDeviceWrite test the single precomputed `slow_path_`
  // flag (one predicted-not-taken branch per access) and only then pay
  // for the two checks. The flag is maintained by the setters above, the
  // only places the policy or latency can change.
  void UpdateSlowPath() {
    slow_path_ =
        fault_policy_ != nullptr || sleep_on_access_ || backend_ != nullptr;
  }
  Status SlowPathAccess(Address address, bool is_write, int64_t charge_ns);

  // Parks `address` in the pending slot, flushing any different pending
  // address first (write order!). Same-address re-arms combine.
  Status ArmPending(Address address);
  // Serializes the pending page to the backend, if any.
  Status FlushPending();
  // Reads `address` back from the backend and compares against the
  // working image (VerifyOnRead mode). Never mutates pages_, so it is
  // safe under concurrent shared-lock readers.
  Status VerifyDeviceRead(Address address);

  int64_t num_pages_;
  int64_t page_capacity_;
  std::vector<Page> pages_;
  AccessTracker tracker_;
  std::shared_ptr<FaultPolicy> fault_policy_;
  std::unique_ptr<StorageBackend> backend_;
  Address pending_ = 0;  // 0 = no pending device write
  bool dirty_since_sync_ = false;
  std::vector<Address> corrupt_pages_at_open_;
  bool sleep_on_access_ = false;
  bool slow_path_ = false;
};

}  // namespace dsf

#endif  // DSF_STORAGE_PAGE_FILE_H_
