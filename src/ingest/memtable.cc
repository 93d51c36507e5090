#include "ingest/memtable.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace dsf {

namespace {

bool EntryKeyLess(const StagedEntry& a, const StagedEntry& b) {
  return a.record.key < b.record.key;
}

}  // namespace

const char* StagedEntryKindToString(StagedEntry::Kind kind) {
  switch (kind) {
    case StagedEntry::Kind::kInsert:
      return "INSERT";
    case StagedEntry::Kind::kUpdate:
      return "UPDATE";
    case StagedEntry::Kind::kTombstone:
      return "TOMBSTONE";
  }
  return "UNKNOWN";
}

StagingStats& StagingStats::operator+=(const StagingStats& other) {
  puts += other.puts;
  hits += other.hits;
  annihilations += other.annihilations;
  drain_steps += other.drain_steps;
  drained_entries += other.drained_entries;
  entries += other.entries;
  capacity += other.capacity;
  return *this;
}

Memtable::Memtable(const Options& options)
    : capacity_(options.max_entries) {
  DSF_CHECK(capacity_ > 0) << "memtable needs an entry budget";
  entries_.reserve(static_cast<size_t>(
      std::min<int64_t>(capacity_, int64_t{1} << 20)));
}

std::vector<StagedEntry>::iterator Memtable::Position(Key key) {
  return std::lower_bound(entries_.begin(), entries_.end(),
                          StagedEntry{Record{key, 0}, StagedEntry::Kind::kInsert},
                          EntryKeyLess);
}

const StagedEntry* Memtable::Find(Key key) const {
  const int64_t i = LowerBound(key);
  if (i == size() || entries_[static_cast<size_t>(i)].record.key != key) {
    return nullptr;
  }
  return &entries_[static_cast<size_t>(i)];
}

int64_t Memtable::LowerBound(Key key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(),
      StagedEntry{Record{key, 0}, StagedEntry::Kind::kInsert}, EntryKeyLess);
  return static_cast<int64_t>(it - entries_.begin());
}

Status Memtable::Add(const Record& record, StagedEntry::Kind kind) {
  if (full()) {
    return Status::CapacityExceeded("staging buffer full");
  }
  const auto it = Position(record.key);
  DSF_DCHECK(it == entries_.end() || it->record.key != record.key)
      << "Add on an already-staged key " << record.key;
  entries_.insert(it, StagedEntry{record, kind});
  CountKind(kind, +1);
  return Status::OK();
}

bool Memtable::Reassign(Key key, const Record& record,
                        StagedEntry::Kind kind) {
  const auto it = Position(key);
  if (it == entries_.end() || it->record.key != key) return false;
  DSF_DCHECK(record.key == key) << "Reassign must keep the key";
  CountKind(it->kind, -1);
  it->record = record;
  it->kind = kind;
  CountKind(kind, +1);
  return true;
}

bool Memtable::Erase(Key key) {
  const auto it = Position(key);
  if (it == entries_.end() || it->record.key != key) return false;
  CountKind(it->kind, -1);
  entries_.erase(it);
  return true;
}

const StagedEntry& Memtable::front() const {
  DSF_CHECK(!entries_.empty()) << "front() on empty memtable";
  return entries_.front();
}

void Memtable::PopFront() {
  DSF_CHECK(!entries_.empty()) << "PopFront() on empty memtable";
  CountKind(entries_.front().kind, -1);
  entries_.erase(entries_.begin());
}

void Memtable::Clear() {
  entries_.clear();
  insert_count_ = 0;
  update_count_ = 0;
  tombstone_count_ = 0;
}

Status Memtable::ValidateOrder() const {
  if (size() > capacity_) {
    return Status::Corruption("memtable holds " + std::to_string(size()) +
                              " entries over capacity " +
                              std::to_string(capacity_));
  }
  int64_t inserts = 0;
  int64_t updates = 0;
  int64_t tombstones = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0 && entries_[i - 1].record.key >= entries_[i].record.key) {
      return Status::Corruption(
          "memtable keys not strictly ascending at index " +
          std::to_string(i));
    }
    switch (entries_[i].kind) {
      case StagedEntry::Kind::kInsert:
        ++inserts;
        break;
      case StagedEntry::Kind::kUpdate:
        ++updates;
        break;
      case StagedEntry::Kind::kTombstone:
        ++tombstones;
        break;
    }
  }
  if (inserts != insert_count_ || updates != update_count_ ||
      tombstones != tombstone_count_) {
    return Status::Corruption("memtable per-kind counts out of sync");
  }
  return Status::OK();
}

void Memtable::CountKind(StagedEntry::Kind kind, int64_t delta) {
  switch (kind) {
    case StagedEntry::Kind::kInsert:
      insert_count_ += delta;
      break;
    case StagedEntry::Kind::kUpdate:
      update_count_ += delta;
      break;
    case StagedEntry::Kind::kTombstone:
      tombstone_count_ += delta;
      break;
  }
}

}  // namespace dsf
