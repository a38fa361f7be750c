#ifndef KOJAK_E2EBENCH_ORACLE_HPP
#define KOJAK_E2EBENCH_ORACLE_HPP

// Correctness oracle. A reference is one verdict per (property, context):
// the holding findings with condition, confidence and severity, plus the
// not-applicable contexts. Doubles render as hexfloat, so a digest line
// is lossless and two equal digests mean equal bits.
//
// SQL backends sum partition results in another order than the
// interpreter, so a timed pass is compared with the interpreter reference
// under the relative tolerance the repository's differential tests use
// (1e-9); a warm Monitor is compared with a cold Monitor of the same
// backend bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cosy/analyzer.hpp"
#include "cosy/monitor.hpp"

namespace e2e {

using Status = kojak::asl::PropertyResult::Status;

struct Verdict {
  Status status = Status::kDoesNotHold;
  std::string matched;
  double confidence = 0.0;
  double severity = 0.0;
};

/// Keyed by (property, context label).
using Reference = std::map<std::pair<std::string, std::string>, Verdict>;

[[nodiscard]] inline std::string digest(
    const std::pair<std::string, std::string>& key, const Verdict& v) {
  if (v.status == Status::kNotApplicable) {
    return key.first + " @ " + key.second + " | n/a";
  }
  char numbers[96];
  std::snprintf(numbers, sizeof numbers, "%a %a", v.confidence, v.severity);
  return key.first + " @ " + key.second + " | " + v.matched + " | " + numbers;
}

/// One digest line per verdict, in key order.
[[nodiscard]] inline std::string digest(const Reference& ref) {
  std::string out;
  for (const auto& [key, verdict] : ref) out += digest(key, verdict) + "\n";
  return out;
}

/// FNV-1a of the digest text (printed so equal seeds can be compared).
[[nodiscard]] inline std::uint64_t fingerprint(const Reference& ref) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : digest(ref)) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

[[nodiscard]] inline Verdict verdict_of(const kojak::asl::PropertyResult& r) {
  if (r.status == Status::kNotApplicable) return {r.status, {}, 0.0, 0.0};
  return {r.status, r.matched_condition, r.confidence, r.severity};
}

[[nodiscard]] inline Reference reference_of(
    const kojak::cosy::AnalysisReport& report) {
  Reference ref;
  for (const auto* list : {&report.findings, &report.not_applicable}) {
    for (const kojak::cosy::Finding& f : *list) {
      ref[{f.property, f.context}] = verdict_of(f.result);
    }
  }
  return ref;
}

[[nodiscard]] inline Reference reference_of(
    const kojak::cosy::EpochReport& report) {
  Reference ref;
  for (const kojak::cosy::MonitorFinding& f : report.findings) {
    ref[{f.property, f.context}] = verdict_of(f.result);
  }
  return ref;
}

/// Only the holding verdicts (what a Monitor reports).
[[nodiscard]] inline Reference holding(const Reference& ref) {
  Reference out;
  for (const auto& [key, v] : ref) {
    if (v.status == Status::kHolds) out.emplace(key, v);
  }
  return out;
}

[[nodiscard]] inline bool close_to(double want, double got, double rel) {
  if (rel == 0.0) return want == got;  // bit-equal (both finite here)
  return std::abs(want - got) <= rel * std::max(1.0, std::abs(want));
}

/// Mismatches of `got` against `want`, one "property @ context" line each.
[[nodiscard]] inline std::vector<std::string> compare(const Reference& want,
                                                      const Reference& got,
                                                      double rel) {
  std::vector<std::string> out;
  for (const auto& [key, w] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      out.push_back("missing " + digest(key, w));
      continue;
    }
    const Verdict& g = it->second;
    if (g.status != w.status || g.matched != w.matched ||
        !close_to(w.confidence, g.confidence, rel) ||
        !close_to(w.severity, g.severity, rel)) {
      out.push_back("want " + digest(key, w) + " got " + digest(key, g));
    }
  }
  for (const auto& [key, g] : got) {
    if (!want.contains(key)) out.push_back("unexpected " + digest(key, g));
  }
  return out;
}

/// The self-test's corruption: the first holding verdict's severity moves
/// by one part in a million, far outside the comparison tolerance.
inline void corrupt(Reference& ref) {
  for (auto& [key, v] : ref) {
    if (v.status == Status::kHolds) {
      v.severity += 1e-6 * std::max(1.0, std::abs(v.severity));
      return;
    }
  }
}

}  // namespace e2e

#endif  // KOJAK_E2EBENCH_ORACLE_HPP
