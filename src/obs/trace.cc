#include "obs/trace.h"

#include <sstream>

#include "util/check.h"

namespace dsf {

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCommand:
      return "COMMAND";
    case SpanKind::kShift:
      return "SHIFT";
    case SpanKind::kSelect:
      return "SELECT";
    case SpanKind::kActivate:
      return "ACTIVATE";
    case SpanKind::kRedistribution:
      return "REDISTRIBUTION";
    case SpanKind::kFlush:
      return "FLUSH";
    case SpanKind::kDrain:
      return "DRAIN";
    case SpanKind::kSharedRead:
      return "SHARED_READ";
  }
  return "UNKNOWN";
}

std::string SpanEvent::ToJson() const {
  std::ostringstream os;
  os << "{\"seq\":" << seq << ",\"kind\":\"" << SpanKindToString(kind)
     << "\",\"a\":" << a << ",\"b\":" << b
     << ",\"logical_reads\":" << io.logical_reads
     << ",\"logical_writes\":" << io.logical_writes
     << ",\"page_reads\":" << io.page_reads
     << ",\"page_writes\":" << io.page_writes << ",\"seeks\":" << io.seeks
     << ",\"sequential\":" << io.sequential_accesses << "}";
  return os.str();
}

CommandTracer::CommandTracer(int64_t capacity) : capacity_(capacity) {
  DSF_CHECK(capacity >= 1) << "tracer needs a positive ring capacity";
  MutexLock lock(mu_);
  ring_.reserve(static_cast<size_t>(capacity));
}

void CommandTracer::Record(const SpanEvent& event) {
  MutexLock lock(mu_);
  if (static_cast<int64_t>(ring_.size()) < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[static_cast<size_t>(next_)] = event;
    ++dropped_;
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<SpanEvent> CommandTracer::Events() const {
  MutexLock lock(mu_);
  std::vector<SpanEvent> out;
  out.reserve(ring_.size());
  if (static_cast<int64_t>(ring_.size()) < capacity_) {
    out = ring_;
  } else {
    // Full ring: `next_` is the oldest slot.
    for (int64_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[static_cast<size_t>((next_ + i) % capacity_)]);
    }
  }
  return out;
}

int64_t CommandTracer::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void CommandTracer::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

std::string CommandTracer::DumpJsonLines() const {
  const std::vector<SpanEvent> events = Events();
  const int64_t dropped_count = dropped();
  std::ostringstream os;
  for (const SpanEvent& e : events) {
    os << e.ToJson() << "\n";
  }
  if (dropped_count > 0) {
    os << "{\"dropped\":" << dropped_count << "}\n";
  }
  return os.str();
}

}  // namespace dsf
