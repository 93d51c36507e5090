// The classical fully-packed sequential file — the paper's strawman.
//
// Records are packed D per page from page 1 with no gaps, so a point
// lookup is one page read (fences are in memory, as for the dense file),
// and a stream retrieval is perfectly sequential — but every insert or
// delete must ripple records across all pages to the right of the
// touched position: O(N/D) page accesses per update. This is the
// "complete reorganization" cost that motivates (d,D)-dense files.

#ifndef DSF_BASELINE_NAIVE_SEQUENTIAL_H_
#define DSF_BASELINE_NAIVE_SEQUENTIAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "storage/record.h"
#include "util/status.h"

namespace dsf {

class NaiveSequentialFile {
 public:
  struct Options {
    int64_t num_pages = 0;      // M
    int64_t page_capacity = 0;  // D
  };

  static StatusOr<std::unique_ptr<NaiveSequentialFile>> Create(
      const Options& options);

  Status BulkLoad(const std::vector<Record>& records);

  // Updates and queries surface page faults as kIoError. The ripple
  // rewrites make no crash-consistency promise (this is the strawman the
  // dense file improves on); a mid-ripple fault can leave the packing
  // invariant broken, which ValidateInvariants reports.
  Status Insert(const Record& record);
  Status Delete(Key key);
  StatusOr<Record> Get(Key key);
  bool Contains(Key key);
  Status Scan(Key lo, Key hi, std::vector<Record>* out);
  StatusOr<std::vector<Record>> ScanAll();

  int64_t size() const { return size_; }
  IoStats stats() const { return file_.stats(); }
  void ResetStats() { file_.ResetStats(); }

  // Packing, order, and fence consistency.
  Status ValidateInvariants() const;

 private:
  explicit NaiveSequentialFile(const Options& options)
      : options_(options),
        file_(options.num_pages, options.page_capacity) {}

  int64_t UsedPages() const;
  // Page (1-based) holding the first key >= `key`; 0 when key exceeds all.
  Address PageForKey(Key key) const;
  // The fence of `page` after it was written with [begin, end).
  void SetFence(Address page, const Record* begin, const Record* end);
  // Accounted whole-page write of `records`, keeping the fence in step.
  Status WriteRecords(Address page, const std::vector<Record>& records);

  Options options_;
  PageFile file_;
  std::vector<Key> fences_;  // max key per used page, in memory
  int64_t size_ = 0;
};

}  // namespace dsf

#endif  // DSF_BASELINE_NAIVE_SEQUENTIAL_H_
