#include "storage/page.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace dsf {

Page::Page(int64_t capacity) : capacity_(capacity) {
  DSF_CHECK(capacity >= 1) << "page capacity must be positive";
  records_.reserve(static_cast<size_t>(capacity));
}

Status Page::Insert(const Record& record) {
  if (size() >= capacity_) {
    return Status::CapacityExceeded("page physically full");
  }
  const int64_t pos = LowerBoundRecord(records_.data(), size(), record.key);
  if (pos < size() && records_[static_cast<size_t>(pos)].key == record.key) {
    return Status::AlreadyExists("duplicate key in page");
  }
  records_.insert(records_.begin() + pos, record);
  return Status::OK();
}

Status Page::Erase(Key key) {
  const int64_t pos = LowerBoundRecord(records_.data(), size(), key);
  if (pos == size() || records_[static_cast<size_t>(pos)].key != key) {
    return Status::NotFound("key not in page");
  }
  records_.erase(records_.begin() + pos);
  return Status::OK();
}

StatusOr<Record> Page::Find(Key key) const {
  const int64_t pos = LowerBoundRecord(records_.data(), size(), key);
  if (pos == size() || records_[static_cast<size_t>(pos)].key != key) {
    return Status::NotFound("key not in page");
  }
  return records_[static_cast<size_t>(pos)];
}

bool Page::Contains(Key key) const { return Find(key).ok(); }

Key Page::MinKey() const {
  DSF_CHECK(!empty()) << "MinKey on empty page";
  return records_.front().key;
}

Key Page::MaxKey() const {
  DSF_CHECK(!empty()) << "MaxKey on empty page";
  return records_.back().key;
}

std::vector<Record> Page::TakeLowest(int64_t count) {
  DSF_CHECK(count >= 0 && count <= size()) << "TakeLowest count";
  std::vector<Record> out(records_.begin(), records_.begin() + count);
  records_.erase(records_.begin(), records_.begin() + count);
  return out;
}

std::vector<Record> Page::TakeHighest(int64_t count) {
  DSF_CHECK(count >= 0 && count <= size()) << "TakeHighest count";
  std::vector<Record> out(records_.end() - count, records_.end());
  records_.erase(records_.end() - count, records_.end());
  return out;
}

void Page::AppendHigh(const std::vector<Record>& records) {
  AppendHigh(records.data(), records.data() + records.size());
}

void Page::AppendHigh(const Record* begin, const Record* end) {
  DSF_CHECK(size() + (end - begin) <= capacity_)
      << "AppendHigh overflows page";
#ifndef NDEBUG
  for (const Record* r = begin; r != end; ++r) {
    DSF_DCHECK((r == begin ? records_.empty() || records_.back().key < r->key
                           : (r - 1)->key < r->key))
        << "AppendHigh order violation";
  }
#endif
  records_.insert(records_.end(), begin, end);
}

void Page::PrependLow(const std::vector<Record>& records) {
  DSF_CHECK(size() + static_cast<int64_t>(records.size()) <= capacity_)
      << "PrependLow overflows page";
  if (!records.empty()) {
    DSF_DCHECK(records_.empty() || records.back().key < records_.front().key)
        << "PrependLow order violation";
    records_.insert(records_.begin(), records.begin(), records.end());
  }
}

std::vector<Record> Page::TakeAll() {
  std::vector<Record> out;
  out.swap(records_);
  return out;
}

bool Page::WellFormed() const {
  if (size() > capacity_) return false;
  for (size_t i = 1; i < records_.size(); ++i) {
    if (records_[i - 1].key >= records_[i].key) return false;
  }
  return true;
}

std::string Page::DebugString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < records_.size(); ++i) {
    if (i > 0) os << " ";
    os << records_[i].key;
  }
  os << "]";
  return os.str();
}

}  // namespace dsf
