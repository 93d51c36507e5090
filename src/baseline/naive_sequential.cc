#include "baseline/naive_sequential.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "util/check.h"
#include "util/math.h"

namespace dsf {

StatusOr<std::unique_ptr<NaiveSequentialFile>> NaiveSequentialFile::Create(
    const Options& options) {
  if (options.num_pages < 1) {
    return Status::InvalidArgument("num_pages must be >= 1");
  }
  if (options.page_capacity < 1) {
    return Status::InvalidArgument("page_capacity must be >= 1");
  }
  std::unique_ptr<NaiveSequentialFile> file(
      new NaiveSequentialFile(options));
  file->fences_.assign(static_cast<size_t>(options.num_pages), 0);
  return file;
}

int64_t NaiveSequentialFile::UsedPages() const {
  return DivCeil(size_, options_.page_capacity);
}

Address NaiveSequentialFile::PageForKey(Key key) const {
  const int64_t used = UsedPages();
  if (used == 0) return 0;
  // First used page whose max key is >= key.
  int64_t lo = 0;
  int64_t hi = used - 1;
  if (fences_[static_cast<size_t>(hi)] < key) return 0;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (fences_[static_cast<size_t>(mid)] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

void NaiveSequentialFile::SetFence(Address page, const Record* begin,
                                   const Record* end) {
  fences_[static_cast<size_t>(page - 1)] = begin == end ? 0 : (end - 1)->key;
}

Status NaiveSequentialFile::WriteRecords(Address page,
                                      const std::vector<Record>& records) {
  const Record* begin = records.data();
  const Record* end = begin + records.size();
  DSF_RETURN_IF_ERROR(file_.TryWrite(page, begin, end));
  SetFence(page, begin, end);
  return Status::OK();
}

Status NaiveSequentialFile::BulkLoad(const std::vector<Record>& records) {
  const int64_t n = static_cast<int64_t>(records.size());
  if (n > options_.num_pages * options_.page_capacity) {
    return Status::CapacityExceeded("bulk load exceeds file capacity");
  }
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].key >= records[i].key) {
      return Status::InvalidArgument(
          "bulk load records must be strictly ascending by key");
    }
  }
  int64_t offset = 0;
  for (Address page = 1; page <= options_.num_pages; ++page) {
    const int64_t take = std::min(options_.page_capacity, n - offset);
    const Record* begin = records.data() + offset;
    // lint:allow(raw-page-io): bulk-load layout is setup, unaccounted.
    DSF_RETURN_IF_ERROR(file_.RawWrite(page, begin, begin + take));
    SetFence(page, begin, begin + take);
    offset += take;
  }
  size_ = n;
  file_.ResetStats();
  return Status::OK();
}

Status NaiveSequentialFile::Insert(const Record& record) {
  if (size_ >= options_.num_pages * options_.page_capacity) {
    return Status::CapacityExceeded("file full");
  }
  Address target = PageForKey(record.key);
  if (target == 0) target = std::max<int64_t>(1, UsedPages());

  Page scratch;
  StatusOr<const Page*> read = file_.TryRead(target, &scratch);
  DSF_RETURN_IF_ERROR(read.status());
  std::vector<Record> records = (*read)->records();
  const auto it = std::lower_bound(records.begin(), records.end(), record,
                                   RecordKeyLess);
  if (it != records.end() && it->key == record.key) {
    return Status::AlreadyExists("key already present");
  }
  records.insert(it, record);

  // Ripple the overflowing record rightward until a page has room. With
  // full packing that means rewriting every page to the right: the O(N/D)
  // update cost of a classical sequential file.
  Address cur = target;
  std::optional<Record> carry;
  for (;;) {
    if (static_cast<int64_t>(records.size()) > options_.page_capacity) {
      carry = records.back();
      records.pop_back();
    }
    DSF_RETURN_IF_ERROR(WriteRecords(cur, records));
    if (!carry.has_value()) break;
    ++cur;
    DSF_CHECK(cur <= options_.num_pages) << "ripple ran off the file";
    StatusOr<const Page*> next = file_.TryRead(cur, &scratch);
    DSF_RETURN_IF_ERROR(next.status());
    records = (*next)->records();
    records.insert(records.begin(), *carry);
    carry.reset();
  }
  ++size_;
  return Status::OK();
}

Status NaiveSequentialFile::Delete(Key key) {
  const Address target = PageForKey(key);
  if (target == 0) return Status::NotFound("key absent");
  Page scratch;
  StatusOr<const Page*> read = file_.TryRead(target, &scratch);
  DSF_RETURN_IF_ERROR(read.status());
  std::vector<Record> records = (*read)->records();
  const auto it = std::lower_bound(records.begin(), records.end(),
                                   Record{key, 0}, RecordKeyLess);
  if (it == records.end() || it->key != key) {
    return Status::NotFound("key absent");
  }
  records.erase(it);

  // Pull one record leftward from every page to the right to restore full
  // packing.
  const int64_t last_used = UsedPages();
  for (Address cur = target; cur < last_used; ++cur) {
    StatusOr<const Page*> next_read = file_.TryRead(cur + 1, &scratch);
    DSF_RETURN_IF_ERROR(next_read.status());
    const std::vector<Record> next = (*next_read)->records();
    records.push_back(next.front());
    DSF_RETURN_IF_ERROR(WriteRecords(cur, records));
    records.assign(next.begin() + 1, next.end());
  }
  DSF_RETURN_IF_ERROR(WriteRecords(last_used, records));
  --size_;
  return Status::OK();
}

StatusOr<Record> NaiveSequentialFile::Get(Key key) {
  const Address target = PageForKey(key);
  if (target == 0) return Status::NotFound("key absent");
  Page scratch;
  StatusOr<const Page*> page = file_.TryRead(target, &scratch);
  DSF_RETURN_IF_ERROR(page.status());
  return (*page)->Find(key);
}

bool NaiveSequentialFile::Contains(Key key) { return Get(key).ok(); }

Status NaiveSequentialFile::Scan(Key lo, Key hi, std::vector<Record>* out) {
  DSF_CHECK(out != nullptr) << "Scan output vector is null";
  if (lo > hi) return Status::OK();
  Address page = PageForKey(lo);
  if (page == 0) return Status::OK();
  const int64_t used = UsedPages();
  Page scratch;
  for (; page <= used; ++page) {
    StatusOr<const Page*> p = file_.TryRead(page, &scratch);
    DSF_RETURN_IF_ERROR(p.status());
    for (const Record& r : (*p)->records()) {
      if (r.key < lo) continue;
      if (r.key > hi) return Status::OK();
      out->push_back(r);
    }
  }
  return Status::OK();
}

StatusOr<std::vector<Record>> NaiveSequentialFile::ScanAll() {
  std::vector<Record> out;
  DSF_RETURN_IF_ERROR(Scan(0, std::numeric_limits<Key>::max(), &out));
  return out;
}

Status NaiveSequentialFile::ValidateInvariants() const {
  const int64_t used = UsedPages();
  int64_t total = 0;
  Page scratch;
  for (Address page = 1; page <= options_.num_pages; ++page) {
    // lint:allow(raw-page-io): the validator reads pages unaccounted.
    StatusOr<const Page*> loaded = file_.RawRead(page, &scratch);
    DSF_RETURN_IF_ERROR(loaded.status());
    const Page& p = **loaded;
    if (page < used &&
        static_cast<int64_t>(p.size()) != options_.page_capacity) {
      return Status::Corruption("interior page not fully packed");
    }
    if (page > used && !p.empty()) {
      return Status::Corruption("records beyond the packed prefix");
    }
    if (!p.empty() &&
        fences_[static_cast<size_t>(page - 1)] != p.MaxKey()) {
      return Status::Corruption("stale fence");
    }
    total += p.size();
  }
  if (total != size_) return Status::Corruption("size counter mismatch");
  StatusOr<bool> ordered = file_.GloballyOrdered();
  DSF_RETURN_IF_ERROR(ordered.status());
  if (!*ordered) return Status::Corruption("records out of order");
  return Status::OK();
}

}  // namespace dsf
