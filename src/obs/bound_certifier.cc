#include "obs/bound_certifier.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"
#include "util/check.h"

namespace dsf {

const char* CommandKindToString(CommandKind kind) {
  switch (kind) {
    case CommandKind::kInsert:
      return "INSERT";
    case CommandKind::kDelete:
      return "DELETE";
    case CommandKind::kRange:
      return "RANGE";
    case CommandKind::kCompact:
      return "COMPACT";
  }
  return "UNKNOWN";
}

std::string BoundViolation::ToString() const {
  std::ostringstream os;
  os << CommandKindToString(kind) << " command #" << command_index
     << " used " << accesses << " logical accesses, budget " << budget;
  return os.str();
}

Status BoundReport::ToStatus() const {
  if (ok()) return Status::OK();
  return Status::FailedPrecondition(
      "worst-case bound violated: " + violations.front().ToString() +
      (violations.size() > 1
           ? " (+" + std::to_string(violations.size() - 1) + " more)"
           : ""));
}

std::string BoundReport::ToString() const {
  std::ostringstream os;
  os << "BoundReport(M=" << num_pages << " K=" << block_size << " d=" << d
     << " D=" << D << " J=" << J << " budget=" << budget
     << " checked=" << commands_checked << " exempt=" << commands_exempt
     << " max=" << max_accesses << " violations=" << violations.size()
     << ")";
  for (const BoundViolation& v : violations) {
    os << "\n  " << v.ToString();
  }
  return os.str();
}

BoundCertifier::BoundCertifier(int64_t num_pages, int64_t d, int64_t D,
                               int64_t block_size, int64_t j) {
  DSF_CHECK(num_pages >= 1 && block_size >= 1 && j >= 0 && d >= 1 && D > d)
      << "certifier geometry invalid";
  report_.num_pages = num_pages;
  report_.block_size = block_size;
  report_.d = d;
  report_.D = D;
  report_.J = j;
  report_.budget = BudgetFor(block_size, j);
}

void BoundCertifier::Observe(CommandKind kind, int64_t logical_accesses) {
  if (kind == CommandKind::kRange || kind == CommandKind::kCompact) {
    ++report_.commands_exempt;
    return;
  }
  const int64_t index = report_.commands_checked++;
  report_.max_accesses = std::max(report_.max_accesses, logical_accesses);
  if (logical_accesses > report_.budget) {
    BoundViolation violation;
    violation.command_index = index;
    violation.kind = kind;
    violation.accesses = logical_accesses;
    violation.budget = report_.budget;
    report_.violations.push_back(violation);
    if (violations_counter_ != nullptr) violations_counter_->Increment();
  }
}

}  // namespace dsf
