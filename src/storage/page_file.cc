#include "storage/page_file.h"

#include <chrono>
#include <sstream>
#include <thread>

#include "util/check.h"

#if defined(__GNUC__) || defined(__clang__)
#define DSF_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))
#else
#define DSF_PREDICT_FALSE(x) (x)
#endif

namespace dsf {

PageFile::PageFile(int64_t num_pages, int64_t page_capacity)
    : num_pages_(num_pages), page_capacity_(page_capacity) {
  DSF_CHECK(num_pages >= 1) << "PageFile needs at least one page";
  DSF_CHECK(page_capacity >= 1) << "PageFile needs positive page capacity";
  pages_.reserve(static_cast<size_t>(num_pages));
  for (int64_t i = 0; i < num_pages; ++i) pages_.emplace_back(page_capacity);
}

// Fault charging and latency sleeping, in the order the fast path used to
// interleave them: the access is already charged to the tracker by the
// caller (counters AND sim_elapsed_ns both follow the charged-before-
// consult rule), the policy is consulted, and only a surviving access
// pays the real sleep — for exactly the nanoseconds the tracker charged,
// so wall time and sim_elapsed_ns derive from one classification.
Status PageFile::SlowPathAccess(Address address, bool is_write,
                                int64_t charge_ns) {
  if (fault_policy_ != nullptr) {
    DSF_RETURN_IF_ERROR(fault_policy_->OnAccess(address, is_write));
  }
  if (sleep_on_access_ && charge_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(charge_ns));
  }
  return Status::OK();
}

StatusOr<const Page*> PageFile::TryDeviceRead(Address address) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("read address " + std::to_string(address) +
                              " outside [1," + std::to_string(num_pages_) +
                              "]");
  }
  const int64_t charge_ns = tracker_.OnAccess(address, /*is_write=*/false);
  if (DSF_PREDICT_FALSE(slow_path_)) {
    DSF_RETURN_IF_ERROR(
        SlowPathAccess(address, /*is_write=*/false, charge_ns));
    if (backend_ != nullptr) {
      // A device read is an ordering point: the pending write (if any)
      // reaches the backend first. During concurrent shared-lock reads
      // the pending slot is empty (EndCommand flushed it), so this is
      // a race-free no-op there.
      DSF_RETURN_IF_ERROR(FlushPending());
      if (backend_->VerifyOnRead()) {
        DSF_RETURN_IF_ERROR(VerifyDeviceRead(address));
      }
    }
  }
  return const_cast<const Page*>(&pages_[static_cast<size_t>(address - 1)]);
}

StatusOr<Page*> PageFile::TryDeviceWrite(Address address) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("write address " + std::to_string(address) +
                              " outside [1," + std::to_string(num_pages_) +
                              "]");
  }
  const int64_t charge_ns = tracker_.OnAccess(address, /*is_write=*/true);
  if (DSF_PREDICT_FALSE(slow_path_)) {
    DSF_RETURN_IF_ERROR(
        SlowPathAccess(address, /*is_write=*/true, charge_ns));
    // After the fault consult: an injected write fault must suppress the
    // durable write too (the simulated device did not accept it).
    if (backend_ != nullptr) DSF_RETURN_IF_ERROR(ArmPending(address));
  }
  return &pages_[static_cast<size_t>(address - 1)];
}

StatusOr<const Page*> PageFile::TryRead(Address address) {
  tracker_.OnLogical(/*is_write=*/false);
  return TryDeviceRead(address);
}

StatusOr<Page*> PageFile::TryWrite(Address address) {
  tracker_.OnLogical(/*is_write=*/true);
  return TryDeviceWrite(address);
}

const Page& PageFile::Read(Address address) {
  StatusOr<const Page*> page = TryRead(address);
  // lint:allow(check-on-fault-path): Read IS the documented abort-on-fault
  // wrapper; fault-tolerant callers use TryRead.
  DSF_CHECK(page.ok()) << "infallible Read failed: "
                       << page.status().ToString();
  return **page;
}

Page& PageFile::Write(Address address) {
  StatusOr<Page*> page = TryWrite(address);
  // lint:allow(check-on-fault-path): Write IS the documented abort-on-fault
  // wrapper; fault-tolerant callers use TryWrite.
  DSF_CHECK(page.ok()) << "infallible Write failed: "
                       << page.status().ToString();
  return **page;
}

Page& PageFile::RawPage(Address address) {
  DSF_CHECK(address >= 1 && address <= num_pages_)
      << "RawPage address " << address << " outside [1," << num_pages_
      << "]";
  if (DSF_PREDICT_FALSE(backend_ != nullptr)) {
    // Unaccounted bookkeeping mutations (bulk load, freed-tail clears,
    // recovery rewrites) still must reach the device, so they ride the
    // same pending slot. RawPage has no error channel; a flush failure
    // here is a real device failure, not an injected fault (the policy
    // never fires on this path), so aborting is the honest outcome.
    const Status s = ArmPending(address);
    // lint:allow(check-on-fault-path): see above — real I/O failure only.
    DSF_CHECK(s.ok()) << "backend flush failed in RawPage: " << s.ToString();
  }
  return pages_[static_cast<size_t>(address - 1)];
}

const Page& PageFile::Peek(Address address) const {
  DSF_CHECK(address >= 1 && address <= num_pages_)
      << "Peek address " << address << " outside [1," << num_pages_ << "]";
  return pages_[static_cast<size_t>(address - 1)];
}

Status PageFile::AttachBackend(std::unique_ptr<StorageBackend> backend) {
  DSF_CHECK(backend != nullptr) << "AttachBackend needs a backend";
  if (backend_ != nullptr) {
    return Status::FailedPrecondition("a storage backend is already attached");
  }
  if (backend->num_pages() != num_pages_ ||
      backend->page_capacity() != page_capacity_) {
    return Status::FailedPrecondition(
        "backend geometry (" + std::to_string(backend->num_pages()) +
        " pages, capacity " + std::to_string(backend->page_capacity()) +
        ") does not match the file (" + std::to_string(num_pages_) +
        ", " + std::to_string(page_capacity_) + ")");
  }
  // Load the device image into the working image. A fresh backend reads
  // as all-empty pages; an existing one is the reopen path. Torn or
  // corrupt slots (kIoError) become empty working pages and are recorded
  // for CheckAndRepair; any other error is a real device failure.
  corrupt_pages_at_open_.clear();
  Page scratch(page_capacity_);
  for (Address a = 1; a <= num_pages_; ++a) {
    const Status s = backend->ReadPage(a, &scratch);
    if (s.ok()) {
      pages_[static_cast<size_t>(a - 1)] = scratch;
    } else if (s.IsIoError()) {
      corrupt_pages_at_open_.push_back(a);
      pages_[static_cast<size_t>(a - 1)].Clear();
    } else {
      return s;
    }
  }
  // Quarantine corrupt slots durably: overwrite each with its emptied
  // working page so the next open reads a valid (empty) slot instead of
  // tripping on the same torn CRC again — CheckAndRepair's cheap path
  // never rewrites pages, so detection itself must persist the verdict.
  for (const Address a : corrupt_pages_at_open_) {
    DSF_RETURN_IF_ERROR(
        backend->WritePage(a, pages_[static_cast<size_t>(a - 1)]));
  }
  if (!corrupt_pages_at_open_.empty()) {
    DSF_RETURN_IF_ERROR(backend->SyncBarrier());
  }
  backend_ = std::move(backend);
  pending_ = 0;
  dirty_since_sync_ = false;
  UpdateSlowPath();
  return Status::OK();
}

Status PageFile::ArmPending(Address address) {
  if (pending_ == address) return Status::OK();  // write combining
  DSF_RETURN_IF_ERROR(FlushPending());
  pending_ = address;
  return Status::OK();
}

Status PageFile::FlushPending() {
  if (pending_ == 0) return Status::OK();
  const Address a = pending_;
  pending_ = 0;
  DSF_RETURN_IF_ERROR(
      backend_->WritePage(a, pages_[static_cast<size_t>(a - 1)]));
  dirty_since_sync_ = true;
  return Status::OK();
}

Status PageFile::VerifyDeviceRead(Address address) {
  Page device_image(page_capacity_);
  DSF_RETURN_IF_ERROR(backend_->ReadPage(address, &device_image));
  const Page& working = pages_[static_cast<size_t>(address - 1)];
  if (!(device_image.records() == working.records())) {
    return Status::IoError(
        "page " + std::to_string(address) +
        ": device image diverges from the working image (" +
        std::to_string(device_image.size()) + " vs " +
        std::to_string(working.size()) + " records)");
  }
  return Status::OK();
}

Status PageFile::SyncBarrier() {
  if (backend_ == nullptr) return Status::OK();
  DSF_RETURN_IF_ERROR(FlushPending());
  if (!dirty_since_sync_) return Status::OK();  // nothing written since last
  DSF_RETURN_IF_ERROR(backend_->SyncBarrier());
  dirty_since_sync_ = false;
  return Status::OK();
}

void PageFile::ResetStats() { tracker_.Reset(); }

int64_t PageFile::TotalRecords() const {
  int64_t total = 0;
  for (const Page& p : pages_) total += p.size();
  return total;
}

bool PageFile::GloballyOrdered() const {
  bool have_previous = false;
  Key previous_max = 0;
  for (const Page& p : pages_) {
    if (!p.WellFormed()) return false;
    if (p.empty()) continue;
    if (have_previous && p.MinKey() <= previous_max) return false;
    previous_max = p.MaxKey();
    have_previous = true;
  }
  return true;
}

std::string PageFile::DebugString() const {
  std::ostringstream os;
  for (int64_t i = 0; i < num_pages_; ++i) {
    os << (i + 1) << ": " << pages_[static_cast<size_t>(i)].DebugString()
       << "\n";
  }
  return os.str();
}

}  // namespace dsf
