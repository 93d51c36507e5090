#include "storage/page_file.h"

#include "util/check.h"

#if defined(__GNUC__) || defined(__clang__)
#define DSF_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))
#else
#define DSF_PREDICT_FALSE(x) (x)
#endif

namespace dsf {

namespace {

// What every write and barrier returns once a barrier has failed.
Status SyncFailedError() {
  return Status::IoError(
      "a sync barrier failed; writes are refused until the file is reopened");
}

}  // namespace

PageFile::PageFile(int64_t num_pages, int64_t page_capacity)
    : num_pages_(num_pages), page_capacity_(page_capacity) {
  DSF_CHECK(num_pages >= 1) << "PageFile needs at least one page";
  DSF_CHECK(page_capacity >= 1) << "PageFile needs positive page capacity";
  // Copies of an empty page own no record storage: a simulated page
  // allocates at its first write (StorePage), so a file that attaches a
  // backend before writing never holds a page image.
  pages_.assign(static_cast<size_t>(num_pages), Page(page_capacity));
}

Status PageFile::AddressError(const char* op, Address address) const {
  return Status::OutOfRange(std::string(op) + " address " +
                            std::to_string(address) + " outside [1," +
                            std::to_string(num_pages_) + "]");
}

// An injected fault still costs the access: the counters are charged
// before the policy is consulted.
Status PageFile::Charge(Address address, bool is_write) {
  tracker_.OnAccess(address, is_write);
  if (DSF_PREDICT_FALSE(fault_policy_ != nullptr)) {
    return fault_policy_->OnAccess(address, is_write);
  }
  return Status::OK();
}

StatusOr<const Page*> PageFile::LoadPage(Address address,
                                         Page* scratch) const {
  if (backend_ == nullptr) return &pages_[static_cast<size_t>(address - 1)];
  if (scratch->capacity() != page_capacity_) *scratch = Page(page_capacity_);
  DSF_RETURN_IF_ERROR(backend_->ReadPage(address, scratch));
  return const_cast<const Page*>(scratch);
}

Status PageFile::StorePage(Address address, const Record* begin,
                           const Record* end) {
  if (backend_ == nullptr) {
    Page& page = pages_[static_cast<size_t>(address - 1)];
    if (page.records().capacity() < static_cast<size_t>(page_capacity_)) {
      page = Page(page_capacity_);  // first write: take the full storage
    }
    page.Clear();
    page.AppendHigh(begin, end);
    return Status::OK();
  }
  // After a failed barrier nothing more may reach the device (see
  // SyncBarrier in the header).
  if (DSF_PREDICT_FALSE(sync_failed_)) return SyncFailedError();
  // The caller's content is final, so the device write happens before
  // return and device order is call order.
  write_page_.Clear();
  write_page_.AppendHigh(begin, end);
  DSF_RETURN_IF_ERROR(backend_->WritePage(address, write_page_));
  dirty_since_sync_ = true;
  return Status::OK();
}

StatusOr<const Page*> PageFile::TryDeviceRead(Address address,
                                              Page* scratch) {
  DSF_RETURN_IF_ERROR(CheckAddress(address, "read"));
  DSF_RETURN_IF_ERROR(Charge(address, /*is_write=*/false));
  return LoadPage(address, scratch);
}

Status PageFile::TryDeviceWrite(Address address, const Record* begin,
                                const Record* end) {
  DSF_RETURN_IF_ERROR(CheckAddress(address, "write"));
  // An injected write fault returns here, before the device is touched:
  // the simulated page and the backend slot both keep their old content.
  DSF_RETURN_IF_ERROR(Charge(address, /*is_write=*/true));
  return StorePage(address, begin, end);
}

// A refused address is no access: the logical count follows the range
// check (which the device access repeats).
StatusOr<const Page*> PageFile::TryRead(Address address, Page* scratch) {
  DSF_RETURN_IF_ERROR(CheckAddress(address, "read"));
  tracker_.OnLogical(/*is_write=*/false);
  return TryDeviceRead(address, scratch);
}

Status PageFile::TryWrite(Address address, const Record* begin,
                          const Record* end) {
  DSF_RETURN_IF_ERROR(CheckAddress(address, "write"));
  tracker_.OnLogical(/*is_write=*/true);
  return TryDeviceWrite(address, begin, end);
}

StatusOr<const Page*> PageFile::RawRead(Address address, Page* scratch) const {
  DSF_RETURN_IF_ERROR(CheckAddress(address, "raw read"));
  return LoadPage(address, scratch);
}

Status PageFile::RawWrite(Address address, const Record* begin,
                          const Record* end) {
  DSF_RETURN_IF_ERROR(CheckAddress(address, "raw write"));
  return StorePage(address, begin, end);
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
  backend_ = std::move(backend);
  std::vector<Page>().swap(pages_);
  write_page_ = Page(page_capacity_);
  dirty_since_sync_ = false;
  return Status::OK();
}

Status PageFile::SyncBarrier() {
  if (sync_failed_) return SyncFailedError();
  if (backend_ == nullptr || !dirty_since_sync_) return Status::OK();
  const Status sync = backend_->SyncBarrier();
  if (!sync.ok()) {
    sync_failed_ = true;
    return sync;
  }
  dirty_since_sync_ = false;
  return Status::OK();
}

void PageFile::ResetStats() { tracker_.Reset(); }

StatusOr<int64_t> PageFile::TotalRecords() const {
  int64_t total = 0;
  Page scratch;
  for (Address a = 1; a <= num_pages_; ++a) {
    StatusOr<const Page*> page = LoadPage(a, &scratch);
    DSF_RETURN_IF_ERROR(page.status());
    total += (*page)->size();
  }
  return total;
}

StatusOr<bool> PageFile::GloballyOrdered() const {
  bool have_previous = false;
  Key previous_max = 0;
  Page scratch;
  for (Address a = 1; a <= num_pages_; ++a) {
    StatusOr<const Page*> loaded = LoadPage(a, &scratch);
    DSF_RETURN_IF_ERROR(loaded.status());
    const Page& p = **loaded;
    if (!p.WellFormed()) return false;
    if (p.empty()) continue;
    if (have_previous && p.MinKey() <= previous_max) return false;
    previous_max = p.MaxKey();
    have_previous = true;
  }
  return true;
}

}  // namespace dsf
