// Test helpers over PageFile's unaccounted RawRead/RawWrite pair: read a
// page image by value, or replace a page's content — the tests' way to
// inspect the device and to seed damage without charging accesses.

#ifndef DSF_TESTS_PAGE_HELPERS_H_
#define DSF_TESTS_PAGE_HELPERS_H_

#include "storage/page.h"
#include "storage/page_file.h"
#include "util/check.h"
#include "util/status.h"

namespace dsf {

inline Page PeekPage(const PageFile& file, Address address) {
  Page scratch;
  StatusOr<const Page*> page = file.RawRead(address, &scratch);
  DSF_CHECK(page.ok()) << page.status().ToString();
  return **page;
}

inline Status PutPage(PageFile& file, Address address, const Page& page) {
  const Record* begin = page.records().data();
  return file.RawWrite(address, begin, begin + page.size());
}

}  // namespace dsf

#endif  // DSF_TESTS_PAGE_HELPERS_H_
