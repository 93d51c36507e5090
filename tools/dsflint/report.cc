#include "report.h"

namespace dsflint {

const char* RuleKindName(RuleKind kind) {
  switch (kind) {
    case RuleKind::kGuardedByViolation:
      return "guarded-by";
    case RuleKind::kLockOrderViolation:
    case RuleKind::kLockCycle:
    case RuleKind::kUnresolvedLock:
      return "lock-order";
    case RuleKind::kUnknownMetricName:
    case RuleKind::kStaleMetricConstant:
      return "metric-catalog";
    case RuleKind::kUnhandledSpanKind:
      return "spankind-catalog";
    case RuleKind::kDiscardedStatus:
      return "discarded-status";
    case RuleKind::kRawPageIo:
      return "raw-page-io";
    case RuleKind::kRawSyscallIo:
      return "raw-syscall-io";
    case RuleKind::kCheckOnFaultPath:
      return "check-on-fault-path";
    case RuleKind::kNakedMutex:
      return "no-naked-mutex";
  }
  return "unknown";
}

std::string Finding::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + RuleKindName(kind) +
         "] " + message;
}

std::string LintReport::ToString() const {
  std::string out;
  for (const Finding& f : findings) out += f.ToString() + "\n";
  out += "dsflint: " + std::to_string(files_scanned) + " file(s), " +
         std::to_string(findings.size()) + " finding(s)\n";
  return out;
}

}  // namespace dsflint
