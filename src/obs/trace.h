// CommandTracer — a bounded ring buffer of typed span events.
//
// Where the metrics registry answers "how much, overall", the tracer
// answers "what did command #4217 actually do": each mutating command
// emits a kCommand span, and the phases inside it — CONTROL 2's SHIFT /
// SELECT / ACTIVATE cycles, CONTROL 1's redistributions, the buffer
// pool's end-of-command flush — emit nested spans, every one carrying
// the logical/physical IoStats delta measured across the phase. The
// per-command cost profile is the object the lower-bound literature
// studies (bursts vs. smoothness), and a trace is the only artifact
// that shows *where inside a command* the accesses went.
//
// The buffer is a fixed-capacity ring: recording is O(1), memory is
// bounded, and when the ring wraps the oldest events are dropped (the
// dropped count is kept, so a dump is honest about truncation). All
// methods are thread-safe behind one mutex — tracing is for diagnosis
// runs, not the metrics hot path, so a lock per event is acceptable;
// install a tracer only on the files you are inspecting.
//
// DumpJsonLines() renders one JSON object per line (JSONL), fields:
//   {"seq":N,"kind":"SHIFT","a":...,"b":...,
//    "logical_reads":...,"logical_writes":...,
//    "page_reads":...,"page_writes":...,"seeks":...,"sequential":...}
// `a` and `b` are span-kind-specific details documented on SpanKind.

#ifndef DSF_OBS_TRACE_H_
#define DSF_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "util/thread_annotations.h"

namespace dsf {

enum class SpanKind {
  kCommand,         // a = CommandKind as int, b = end-of-command flush ok
  kShift,           // a = calibrator node v, b = records moved
  kSelect,          // a = selected node (or -1), b = cycle index
  kActivate,        // a = activated node w, b = DEST assigned
  kRedistribution,  // a = first block, b = last block of the range
  kFlush,           // a = pages flushed, b = flush runs
  kDrain,           // a = staged entries drained, b = entries remaining
  kSharedRead,      // a = branch (0 shared lock, 1 epoch hit, 2 epoch
                    //     miss blocking), b = shard index
};

const char* SpanKindToString(SpanKind kind);

struct SpanEvent {
  SpanKind kind = SpanKind::kCommand;
  // Ordinal of the enclosing command (CommandStats::commands at the time
  // the command began); phase spans share their command's seq.
  int64_t seq = 0;
  int64_t a = 0;  // see SpanKind
  int64_t b = 0;  // see SpanKind
  // IoStats delta across the span: logical vs. physical accesses and the
  // seek / sequential split, all from one tracker.
  IoStats io;

  std::string ToJson() const;
};

class CommandTracer {
 public:
  // Keeps the most recent `capacity` events.
  explicit CommandTracer(int64_t capacity = 4096);

  CommandTracer(const CommandTracer&) = delete;
  CommandTracer& operator=(const CommandTracer&) = delete;

  void Record(const SpanEvent& event) DSF_EXCLUDES(mu_);

  // Retained events, oldest first.
  std::vector<SpanEvent> Events() const DSF_EXCLUDES(mu_);
  // Events evicted by the ring since construction (or the last Clear).
  int64_t dropped() const DSF_EXCLUDES(mu_);
  int64_t capacity() const { return capacity_; }
  void Clear() DSF_EXCLUDES(mu_);

  // JSONL dump of Events(), one event per line, plus a trailing
  // {"dropped":N} line when the ring wrapped.
  std::string DumpJsonLines() const DSF_EXCLUDES(mu_);

 private:
  const int64_t capacity_;
  mutable Mutex mu_;
  std::vector<SpanEvent> ring_ DSF_GUARDED_BY(mu_);
  int64_t next_ DSF_GUARDED_BY(mu_) = 0;  // ring slot for the next event
  int64_t dropped_ DSF_GUARDED_BY(mu_) = 0;
};

}  // namespace dsf

#endif  // DSF_OBS_TRACE_H_
