// Spans for the ledger's traced run, recorded from outside libdsf.
//
// The benchmark times calls into the public API (op.* spans around each
// DenseFile / ShardedDenseFile call, setup and open around the set-up
// and reopen phases) and calls into the device through TimedBackend, a
// StorageBackend decorator installed with the backend_factory option.
// A device span's parent is the span its thread is inside when the call
// happens, so a command's time splits into device time and the rest
// (core self time). Spans live in memory and are written out at exit.

#ifndef DSF_BENCH_LEDGER_TRACING_H_
#define DSF_BENCH_LEDGER_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "storage/file_backend.h"
#include "storage/storage_backend.h"
#include "util/status.h"

namespace dsf::ledger {

enum SpanName : uint8_t {
  kOpInsert,
  kOpDelete,
  kOpGet,
  kOpScan,
  kOpFlush,
  kBackendWrite,
  kBackendRead,
  kBackendSync,
  kSetup,
  kOpen,
  kNumSpanNames,
};

inline constexpr std::array<const char*, kNumSpanNames> kSpanNames = {
    "op.insert",     "op.delete",    "op.get",       "op.scan", "op.flush",
    "backend.write", "backend.read", "backend.sync", "setup",    "open",
};

inline bool IsBackendSpan(SpanName name) {
  return name == kBackendWrite || name == kBackendRead || name == kBackendSync;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0: a root span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  SpanName name = kOpInsert;
  int thread = 0;
};

// One thread's spans. Totals per name cover every span added; the raw
// records stop at a cap and count the rest as dropped.
class SpanBuffer {
 public:
  SpanBuffer(int thread, size_t raw_cap) : thread_(thread), raw_cap_(raw_cap) {
    raw_.reserve(raw_cap);
  }

  int64_t NewId() { return (static_cast<int64_t>(thread_ + 1) << 48) | ++seq_; }

  void Add(int64_t id, SpanName name, int64_t parent, int64_t start_ns,
           int64_t end_ns) {
    const int64_t ns = end_ns - start_ns;
    ++count_[name];
    total_ns_[name] += ns;
    if (IsBackendSpan(name) && parent != 0 && parent_is_op_) {
      op_child_ns_ += ns;
    }
    if (raw_.size() < raw_cap_) {
      raw_.push_back(Span{id, parent, start_ns, end_ns, name, thread_});
    } else {
      ++dropped_;
    }
  }

  // The span device calls made on this thread belong to (0: none).
  // `is_op` marks op.* parents, whose device children are subtracted
  // from op time to give core self time.
  void SetParent(int64_t id, bool is_op) {
    parent_ = id;
    parent_is_op_ = is_op;
  }
  int64_t parent() const { return parent_; }

  int64_t count(SpanName name) const { return count_[name]; }
  int64_t total_ns(SpanName name) const { return total_ns_[name]; }
  // Device time spent inside op.* spans.
  int64_t op_child_ns() const { return op_child_ns_; }
  int64_t dropped() const { return dropped_; }

  void WriteJsonl(std::ostream& os) const {
    for (const Span& s : raw_) {
      os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
         << kSpanNames[s.name] << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"thread\":" << s.thread << "}\n";
    }
  }

 private:
  int thread_;
  size_t raw_cap_;
  int64_t seq_ = 0;
  int64_t parent_ = 0;
  bool parent_is_op_ = false;
  std::array<int64_t, kNumSpanNames> count_{};
  std::array<int64_t, kNumSpanNames> total_ns_{};
  int64_t op_child_ns_ = 0;
  int64_t dropped_ = 0;
  std::vector<Span> raw_;
};

// The buffer this thread records into; null while it is not tracing.
inline thread_local SpanBuffer* t_spans = nullptr;

// Runs `call` and returns its status and duration. With `spans`, records
// it as a span that device calls made inside it take as their parent;
// `is_op` marks an op.* span.
template <typename Call>
std::pair<Status, int64_t> TimedCall(SpanBuffer* spans, SpanName name,
                                     bool is_op, Call&& call) {
  const int64_t id = spans != nullptr ? spans->NewId() : 0;
  if (spans != nullptr) spans->SetParent(id, is_op);
  const int64_t start = NowNs();
  Status s = call();
  const int64_t end = NowNs();
  if (spans != nullptr) {
    spans->Add(id, name, 0, start, end);
    spans->SetParent(0, false);
  }
  return {std::move(s), end - start};
}

// Forwards to the FileBackend the inner factory built and, while the
// calling thread traces, records one backend.* span per call. Only the
// pure virtuals are overridden, so VerifyOnRead() keeps the base default
// (true), which is also FileBackend's default.
class TimedBackend : public StorageBackend {
 public:
  explicit TimedBackend(std::unique_ptr<StorageBackend> file)
      : file_(std::move(file)) {}

  int64_t num_pages() const override { return file_->num_pages(); }
  int64_t page_capacity() const override { return file_->page_capacity(); }
  Status WritePage(Address address, const Page& page) override {
    return Timed(kBackendWrite, [&] { return file_->WritePage(address, page); });
  }
  Status ReadPage(Address address, Page* out) override {
    return Timed(kBackendRead, [&] { return file_->ReadPage(address, out); });
  }
  Status SyncBarrier() override {
    return Timed(kBackendSync, [&] { return file_->SyncBarrier(); });
  }
  std::string Name() const override { return file_->Name(); }

  // The inner factories are FileBackend's, so the device is one.
  FileBackend::Stats file_stats() const {
    return static_cast<const FileBackend&>(*file_).stats();
  }

 private:
  template <typename Call>
  Status Timed(SpanName name, Call call) {
    SpanBuffer* spans = t_spans;
    if (spans == nullptr) return call();
    const int64_t id = spans->NewId();
    const int64_t start = NowNs();
    Status s = call();
    spans->Add(id, name, spans->parent(), start, NowNs());
    return s;
  }

  std::unique_ptr<StorageBackend> file_;
};

// Wraps a FileBackend factory so every device it builds is timed, and
// appends each one to *made so the benchmark can read its counters.
inline StorageBackendFactory TimedFactory(StorageBackendFactory file_factory,
                                          std::vector<TimedBackend*>* made) {
  return [file_factory = std::move(file_factory), made](
             int64_t num_pages,
             int64_t page_capacity) -> StatusOr<std::unique_ptr<StorageBackend>> {
    StatusOr<std::unique_ptr<StorageBackend>> file =
        file_factory(num_pages, page_capacity);
    if (!file.ok()) return file.status();
    auto timed = std::make_unique<TimedBackend>(std::move(file).value());
    made->push_back(timed.get());
    return std::unique_ptr<StorageBackend>(std::move(timed));
  };
}

}  // namespace dsf::ledger

#endif  // DSF_BENCH_LEDGER_TRACING_H_
