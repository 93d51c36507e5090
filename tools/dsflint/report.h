// Typed findings, modeled on the runtime auditor's AuditReport
// (src/analysis/auditor.h): every rule failure carries its kind, exact
// location and a human-readable explanation, and a LintReport aggregates
// them so callers (main.cc, tests/dsflint_test.cc) assert on structure,
// not on output text.

#ifndef DSF_TOOLS_DSFLINT_REPORT_H_
#define DSF_TOOLS_DSFLINT_REPORT_H_

#include <string>
#include <vector>

namespace dsflint {

enum class RuleKind {
  // A DSF_GUARDED_BY field touched without its mutex held (lexically).
  kGuardedByViolation,
  // A lock acquisition edge that contradicts the declared hierarchy
  // file, or a lock class missing from it.
  kLockOrderViolation,
  // A cycle in the statically extracted acquisition graph.
  kLockCycle,
  // A lock acquisition whose member name several scanned classes
  // declare, so no lock class (and no graph edge) can be recorded.
  kUnresolvedLock,
  // A [[nodiscard]] Status/StatusOr returning call used as a bare
  // expression statement.
  kDiscardedStatus,
  // FindOrCreate{Counter,Gauge,Histogram} passed a raw string literal
  // outside the metrics module, or a kMetric* identifier that is not
  // declared in the metric_names.h catalog.
  kUnknownMetricName,
  // A catalog constant in metric_names.h never referenced anywhere else.
  kStaleMetricConstant,
  // A SpanKind enumerator missing from a SpanKindToString exporter body.
  kUnhandledSpanKind,
  // PageFile::RawRead / RawWrite called outside the storage layer.
  kRawPageIo,
  // A raw I/O syscall (open/pread/pwrite/fsync/...) outside the durable
  // storage backend.
  kRawSyscallIo,
  // DSF_CHECK / DSF_DCHECK over a Status .ok() in fault-reachable code.
  kCheckOnFaultPath,
  // Raw std:: mutex/lock types where dsf::Mutex is required.
  kNakedMutex,
};

// The lint:allow(...) rule name (and --rules= selector) for each kind.
const char* RuleKindName(RuleKind kind);

struct Finding {
  RuleKind kind = RuleKind::kGuardedByViolation;
  std::string file;
  int line = 0;
  std::string message;

  // "file:line: [rule] message"
  std::string ToString() const;
};

struct LintReport {
  std::vector<Finding> findings;
  int files_scanned = 0;

  bool ok() const { return findings.empty(); }
  std::string ToString() const;
};

}  // namespace dsflint

#endif  // DSF_TOOLS_DSFLINT_REPORT_H_
