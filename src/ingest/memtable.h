// Memtable — the in-memory sorted staging buffer for write-burst ingest.
//
// A fixed-capacity, binary-searched vector of staged mutations mounted in
// front of a DenseFile (see DenseFile::Options::staging_entries and
// docs/INGEST.md). Point writes land here in O(log n) comparisons + one
// O(n) in-memory shift and zero page accesses; a bounded drain scheduler
// later moves entries into the file through ordinary certified commands.
// The memtable itself is deliberately dumb: it stores entries in strict
// key order and keeps per-kind counts — the staging *semantics* (when an
// insert becomes an update, when a delete annihilates a staged insert,
// when a drain step runs) live in DenseFile, which owns the file the
// semantics are defined against.
//
// Every entry is one of three kinds, and the kind is an auditable claim
// about the durable file (analysis/auditor.h checks all three):
//
//   kInsert    — key is NOT in the file; drains as Insert(record).
//   kUpdate    — key IS in the file with an older value; drains as
//                Delete(key) then Insert(record).
//   kTombstone — key IS in the file; drains as Delete(key).
//
// At most one entry per key. The merged view a reader must see is
//   file records − {tombstoned keys} − {updated keys' old values}
//   + {kInsert records} + {kUpdate records}.
//
// Durability caveat: staged entries live only in RAM. A crash loses
// everything that has not drained — the file itself stays crash-safe
// (drains are ordinary commands), but callers who need a durability
// point must call DenseFile::FlushStaging() first.

#ifndef DSF_INGEST_MEMTABLE_H_
#define DSF_INGEST_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/record.h"
#include "util/status.h"

namespace dsf {

struct StagedEntry {
  enum class Kind {
    kInsert,     // key absent from the file; record is the new value
    kUpdate,     // key present in the file; record is the replacement
    kTombstone,  // key present in the file; record.value is unused (0)
  };

  Record record;
  Kind kind = Kind::kInsert;
};

const char* StagedEntryKindToString(StagedEntry::Kind kind);

// Counters for the staging layer, surfaced per file (and summed across
// shards by ShardedDenseFile::staging_stats). Mirrors the dsf_staging_*
// metric series in obs/metric_names.h.
struct StagingStats {
  int64_t puts = 0;             // mutations absorbed into staging
  int64_t hits = 0;             // point reads answered from staging
  int64_t annihilations = 0;    // staged inserts cancelled by deletes
  int64_t drain_steps = 0;      // bounded drain steps executed
  int64_t drained_entries = 0;  // entries moved into the file
  int64_t entries = 0;          // currently staged (a gauge, not a sum)
  // Staged-entry budget (a gauge). Summed across shards this is the
  // whole file's staging capacity.
  int64_t capacity = 0;

  StagingStats& operator+=(const StagingStats& other);
};

class Memtable {
 public:
  struct Options {
    // Maximum staged entries; must be >= 1.
    int64_t max_entries = 0;
  };

  explicit Memtable(const Options& options);

  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  bool empty() const { return entries_.empty(); }
  int64_t capacity() const { return capacity_; }
  bool full() const { return size() >= capacity_; }

  // The entry for `key`, or nullptr. O(log n).
  const StagedEntry* Find(Key key) const;

  // Stages a new entry (key must not be present — DCHECKed). Fails with
  // CapacityExceeded when the buffer is full; callers drain first.
  Status Add(const Record& record, StagedEntry::Kind kind);

  // Rewrites the entry for `key` (record and kind), keeping the per-kind
  // counts honest. Returns false if the key is not staged.
  bool Reassign(Key key, const Record& record, StagedEntry::Kind kind);

  // Removes the entry for `key`; false if absent.
  bool Erase(Key key);

  // The smallest-key entry; buffer must be non-empty.
  const StagedEntry& front() const;
  void PopFront();

  void Clear();

  // Entries in strict key order — the auditor's, the merge paths' and the
  // cursor overlay's view. The reference stays valid only until the next
  // mutation.
  const std::vector<StagedEntry>& entries() const { return entries_; }
  // Index of the first entry with entry.record.key >= key.
  int64_t LowerBound(Key key) const;

  int64_t insert_count() const { return insert_count_; }
  int64_t update_count() const { return update_count_; }
  int64_t tombstone_count() const { return tombstone_count_; }
  // What staging adds to the merged record count: inserts make a record
  // visible, tombstones hide one, updates replace in place.
  int64_t net_size() const { return insert_count_ - tombstone_count_; }

  // Cheap self-check: strict key order, counts consistent, within
  // capacity. The file-membership half of the staging invariants needs
  // the durable file and lives in Auditor::AuditStaging.
  Status ValidateOrder() const;

 private:
  std::vector<StagedEntry>::iterator Position(Key key);

  void CountKind(StagedEntry::Kind kind, int64_t delta);

  int64_t capacity_;
  std::vector<StagedEntry> entries_;  // strictly ascending by record.key
  int64_t insert_count_ = 0;
  int64_t update_count_ = 0;
  int64_t tombstone_count_ = 0;
};

}  // namespace dsf

#endif  // DSF_INGEST_MEMTABLE_H_
