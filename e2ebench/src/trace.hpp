#ifndef KOJAK_E2EBENCH_TRACE_HPP
#define KOJAK_E2EBENCH_TRACE_HPP

// Span recorder of the traced run. Spans are taken only at the benchmark's
// own calls into the library's public API (setup functions, Analyzer,
// Monitor) and inside a forwarding EvalBackend registered under
// "traced-<backend>", which times the real backend's prepare/evaluate while
// Analyzer::analyze and Monitor::evaluate run their normal paths. Spans are
// kept in memory and summarized when the run ends.
//
// The recorder is single-threaded: the main thread is the only caller of
// the analyzer and the monitor, and the backends evaluate serially on it
// (the engine's scan pool never calls back into a backend).

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cosy/eval_backend.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;    ///< layer boundary, e.g. "cosy.sql_eval.evaluate"
  std::string detail;  ///< property name for evaluate spans, else empty
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        ///< index into the span list; -1 for a root
  std::uint32_t op = 0;   ///< pass or epoch id; 0 is set-up
  bool first_of_op = false;  ///< first evaluate of `detail` within `op`

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

class TracedBackend;

class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }
  /// Every span opened from now on belongs to `op`.
  void begin_op(std::uint32_t op) {
    op_ = op;
    seen_.clear();
  }

  int open(std::string name, std::string detail = {}) {
    Span span;
    span.first_of_op = !detail.empty() && seen_.insert(detail).second;
    span.name = std::move(name);
    span.detail = std::move(detail);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Duration minus the part of it that child spans cover.
  [[nodiscard]] std::vector<double> self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] += spans_[i].ms();
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<std::size_t>(span.parent)] -= span.ms();
      }
    }
    return self;
  }

  /// Backend accounting (plan cache, whole-condition fallbacks) of every
  /// traced backend, live or destroyed, summed.
  [[nodiscard]] kojak::cosy::EvalStats backend_stats() const;

 private:
  friend class TracedBackend;
  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::set<std::string> seen_;  // properties evaluated so far in this op
  std::set<const TracedBackend*> live_;
  kojak::cosy::EvalStats retired_;
};

/// Opens a span when tracing is on; closes it on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::string detail = {})
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      index_ = tracer_->open(std::move(name), std::move(detail));
    }
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_ = -1;
};

inline void add_stats(kojak::cosy::EvalStats& into,
                      const kojak::cosy::EvalStats& from) {
  into.sql_queries += from.sql_queries;
  into.plan_cache_hits += from.plan_cache_hits;
  into.plan_cache_misses += from.plan_cache_misses;
  into.whole_fallbacks += from.whole_fallbacks;
}

/// Forwards to a real backend created from the same dependencies and times
/// its prepare and evaluate calls. evaluate_all stays the base serial loop,
/// which is what the forwarded SQL backends use as well.
///
/// The real backend is created on first use, not in the constructor:
/// EvalBackend::create runs a factory while it holds the registry's lock,
/// so a factory that itself calls create would deadlock.
class TracedBackend final : public kojak::cosy::EvalBackend {
 public:
  TracedBackend(const kojak::cosy::EvalBackendDeps& deps,
                std::string_view inner, Tracer& tracer)
      : EvalBackend(deps),
        name_(std::string("traced-") + std::string(inner)),
        inner_name_(inner),
        tracer_(&tracer) {
    tracer_->live_.insert(this);
  }
  ~TracedBackend() override {
    add_stats(tracer_->retired_, stats());
    tracer_->live_.erase(this);
  }
  TracedBackend(const TracedBackend&) = delete;
  TracedBackend& operator=(const TracedBackend&) = delete;

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  void prepare(const kojak::asl::Model& model,
               kojak::asl::ObjectId run) override {
    const Scope span(*tracer_, "cosy.backend.prepare");
    inner().prepare(model, run);
  }
  [[nodiscard]] kojak::asl::PropertyResult evaluate(
      const kojak::asl::PropertyInfo& property,
      const std::vector<kojak::asl::RtValue>& args) override {
    const Scope span(*tracer_, "cosy.sql_eval.evaluate", property.name);
    return inner().evaluate(property, args);
  }
  [[nodiscard]] kojak::cosy::EvalStats stats() const override {
    return inner_ == nullptr ? kojak::cosy::EvalStats{} : inner_->stats();
  }

 private:
  EvalBackend& inner() {
    if (inner_ == nullptr) inner_ = EvalBackend::create(inner_name_, deps());
    return *inner_;
  }

  std::string name_;
  std::string inner_name_;
  std::unique_ptr<EvalBackend> inner_;
  Tracer* tracer_;
};

inline kojak::cosy::EvalStats Tracer::backend_stats() const {
  kojak::cosy::EvalStats total = retired_;
  for (const TracedBackend* backend : live_) add_stats(total, backend->stats());
  return total;
}

/// Registers "traced-<inner>" in the process-wide backend registry; returns
/// the registered name. `tracer` must outlive every backend created.
inline std::string register_traced_backend(Tracer& tracer,
                                           std::string inner) {
  std::string name = "traced-" + inner;
  kojak::cosy::EvalBackend::register_backend(
      {.name = name,
       .description = "span-recording wrapper around " + inner,
       .needs_store = false,
       .needs_connection = true,
       .factory = [&tracer, inner](const kojak::cosy::EvalBackendDeps& deps)
           -> std::unique_ptr<kojak::cosy::EvalBackend> {
         return std::make_unique<TracedBackend>(deps, inner, tracer);
       }});
  return name;
}

}  // namespace e2e

#endif  // KOJAK_E2EBENCH_TRACE_HPP
