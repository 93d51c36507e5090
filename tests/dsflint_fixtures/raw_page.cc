// dsflint fixture: unaccounted page access outside the storage layer.
// Never compiled — lint fodder only.

namespace fixture {

class PageFileLike {
 public:
  int RawWrite(int page_index, const char* begin, const char* end);
};

void Touch(PageFileLike& pf) {
  pf.RawWrite(0, nullptr, nullptr);  // SEEDED VIOLATION: raw-page-io (line 12)
}

}  // namespace fixture
