// Edge-case coverage for ControlBase's range commands: DeleteRange
// spanning empty leading/trailing blocks — a deliberately clustered
// layout leaves most blocks empty, and ranges reaching far past the
// populated region on both sides must still delete exactly the stored
// keys in range.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "core/dense_file.h"

namespace dsf {
namespace {

std::unique_ptr<DenseFile> MakeFile(int64_t num_pages = 64) {
  DenseFile::Options options;
  options.num_pages = num_pages;
  options.d = 8;
  options.D = 8 + 4 * 6 + 1;
  StatusOr<std::unique_ptr<DenseFile>> file = DenseFile::Create(options);
  EXPECT_TRUE(file.ok()) << file.status();
  return std::move(*file);
}

// Builds a file whose records sit in a narrow band of middle blocks, with
// empty blocks before and after — the layout that exercises DeleteRange's
// search for the first populated block and its stop condition.
std::unique_ptr<DenseFile> MakeClusteredFile() {
  std::unique_ptr<DenseFile> file = MakeFile(64);
  const int64_t num_blocks = 64 / file->block_size();
  std::vector<std::vector<Record>> layout(
      static_cast<size_t>(num_blocks));
  // Records 1000..1049 in five middle blocks, ten per block.
  const int64_t mid = num_blocks / 2;
  for (int64_t b = 0; b < 5; ++b) {
    for (int64_t i = 0; i < 10; ++i) {
      const Key k = 1000 + static_cast<Key>(b * 10 + i);
      layout[static_cast<size_t>(mid - 2 + b)].push_back(Record{k, k});
    }
  }
  EXPECT_TRUE(file->control().LoadLayout(layout).ok());
  return file;
}

TEST(DeleteRangeEdgeTest, RangeSpanningEmptyLeadingBlocks) {
  std::unique_ptr<DenseFile> file = MakeClusteredFile();
  // The range starts far below every stored key (in empty leading
  // blocks) and ends inside the populated band.
  StatusOr<int64_t> removed = file->DeleteRange(1, 1019);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 20);
  EXPECT_EQ(file->size(), 30);
  EXPECT_FALSE(file->Contains(1019));
  EXPECT_TRUE(file->Contains(1020));
  EXPECT_TRUE(file->ValidateInvariants().ok());
}

TEST(DeleteRangeEdgeTest, RangeSpanningEmptyTrailingBlocks) {
  std::unique_ptr<DenseFile> file = MakeClusteredFile();
  // The range starts inside the band and reaches far past the last
  // stored key, across the empty trailing blocks.
  StatusOr<int64_t> removed =
      file->DeleteRange(1030, std::numeric_limits<Key>::max());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 20);
  EXPECT_EQ(file->size(), 30);
  EXPECT_TRUE(file->Contains(1029));
  EXPECT_FALSE(file->Contains(1030));
  EXPECT_TRUE(file->ValidateInvariants().ok());
}

TEST(DeleteRangeEdgeTest, RangeEntirelyInEmptyRegionsRemovesNothing) {
  std::unique_ptr<DenseFile> file = MakeClusteredFile();
  StatusOr<int64_t> below = file->DeleteRange(1, 999);
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(*below, 0);
  StatusOr<int64_t> above = file->DeleteRange(1050, 1u << 20);
  ASSERT_TRUE(above.ok());
  EXPECT_EQ(*above, 0);
  EXPECT_EQ(file->size(), 50);
  EXPECT_TRUE(file->ValidateInvariants().ok());
}

TEST(DeleteRangeEdgeTest, FullSpanAcrossAllEmptyBlocks) {
  std::unique_ptr<DenseFile> file = MakeClusteredFile();
  StatusOr<int64_t> removed =
      file->DeleteRange(0, std::numeric_limits<Key>::max());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 50);
  EXPECT_EQ(file->size(), 0);
  EXPECT_TRUE(file->ValidateInvariants().ok());
  // And deleting again from the now-empty file is a clean no-op.
  removed = file->DeleteRange(0, std::numeric_limits<Key>::max());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0);
}

}  // namespace
}  // namespace dsf
