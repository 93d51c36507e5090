#include "obs/export.h"

#include <limits>
#include <sstream>
#include <utility>
#include <vector>

namespace dsf {

namespace {

// Splits a rendered metric key into (bare name, label body):
// `dsf_command_accesses{shard="3"}` -> ("dsf_command_accesses", `shard="3"`).
void SplitKey(const std::string& key, std::string* name,
              std::string* label) {
  const size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *name = key;
    label->clear();
    return;
  }
  *name = key.substr(0, brace);
  *label = key.substr(brace + 1, key.size() - brace - 2);
}

// `name_suffix{label,le="edge"}` with any of the three parts optional.
std::string HistogramSeries(const std::string& name,
                            const std::string& label,
                            const std::string& suffix,
                            const std::string& le) {
  std::string out = name + suffix;
  if (label.empty() && le.empty()) return out;
  out += "{";
  if (!label.empty()) out += label;
  if (!le.empty()) {
    if (!label.empty()) out += ",";
    out += "le=\"" + le + "\"";
  }
  out += "}";
  return out;
}

// Labelled metric names carry literal quotes (`name{shard="0"}`), which
// must be escaped when the name becomes a JSON object key.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void AppendJsonMap(std::ostringstream& os, const char* section,
                   const std::vector<std::pair<std::string, int64_t>>& kv,
                   bool trailing_comma) {
  os << "\"" << section << "\":{";
  bool first = true;
  for (const auto& [name, value] : kv) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << value;
  }
  os << "}";
  if (trailing_comma) os << ",";
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  for (const auto& c : snapshot.counters) {
    os << c.name << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    os << g.name << " " << g.value << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    std::string name;
    std::string label;
    SplitKey(h.name, &name, &label);
    // Cumulative buckets, Prometheus-style; empty buckets elided except
    // the mandatory +Inf. The top bucket is the saturated catch-all
    // (everything >= 2^(kHistogramBuckets-1) lands there), so it has no
    // finite upper edge: a `le="<int64 max>"` line would duplicate the
    // +Inf cumulative count while claiming a finite bound the bucket
    // does not enforce. Fold it into +Inf instead of emitting it.
    int64_t cumulative = 0;
    for (int i = 0; i < kHistogramBuckets - 1; ++i) {
      const int64_t count = h.buckets[static_cast<size_t>(i)];
      if (count == 0) continue;
      cumulative += count;
      os << HistogramSeries(name, label, "_bucket",
                            std::to_string(Histogram::BucketUpperEdge(i)))
         << " " << cumulative << "\n";
    }
    os << HistogramSeries(name, label, "_bucket", "+Inf") << " " << h.count
       << "\n";
    os << HistogramSeries(name, label, "_sum", "") << " " << h.sum << "\n";
    os << HistogramSeries(name, label, "_count", "") << " " << h.count
       << "\n";
  }
  return os.str();
}

std::string ToJsonSnapshot(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{";

  std::vector<std::pair<std::string, int64_t>> kv;
  for (const auto& c : snapshot.counters) kv.emplace_back(c.name, c.value);
  AppendJsonMap(os, "counters", kv, /*trailing_comma=*/true);

  kv.clear();
  for (const auto& g : snapshot.gauges) kv.emplace_back(g.name, g.value);
  AppendJsonMap(os, "gauges", kv, /*trailing_comma=*/true);

  os << "\"histograms\":{";
  bool first_h = true;
  for (const auto& h : snapshot.histograms) {
    if (!first_h) os << ",";
    first_h = false;
    os << "\"" << JsonEscape(h.name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"max\":" << h.max
       << ",\"p50\":" << Histogram::QuantileFromBuckets(h.buckets, 0.50)
       << ",\"p99\":" << Histogram::QuantileFromBuckets(h.buckets, 0.99)
       << ",\"buckets\":{";
    bool first_b = true;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      const int64_t count = h.buckets[static_cast<size_t>(i)];
      if (count == 0) continue;
      if (!first_b) os << ",";
      first_b = false;
      os << "\"" << Histogram::BucketUpperEdge(i) << "\":" << count;
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

}  // namespace dsf
