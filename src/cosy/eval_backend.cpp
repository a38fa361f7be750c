#include "cosy/eval_backend.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "cosy/db_import.hpp"
#include "cosy/sql_eval.hpp"
#include "db/connection.hpp"
#include "db/connection_pool.hpp"
#include "support/error.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace kojak::cosy {

using support::EvalError;

void EvalBackend::prepare(const asl::Model& model, asl::ObjectId run) {
  (void)run;
  if (&model != deps_.model) {
    throw EvalError(support::cat(
        "backend '", name(),
        "' was created for a different model instance; create one backend "
        "per (model, analysis)"));
  }
}

void EvalBackend::evaluate_all(std::span<const EvalRequest> requests,
                               std::span<asl::PropertyResult> results) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    results[i] = evaluate(*requests[i].property, *requests[i].args);
  }
}

namespace {

/// The one intra-run sharding path. Runs `drain(w, next)` for w in
/// [0, workers) as tasks on the process pool; every worker evaluates the
/// request indices it claims from the shared `next()` and writes result
/// slot i for index i. Claiming one index at a time balances properties of
/// very different cost; indexing the results keeps the reduction in request
/// order, so reports are byte-identical for any worker count. 0 or 1 worker
/// runs serially on the caller. Must not be called from a global_pool()
/// task (the caller blocks until every worker finished).
template <typename Drain>
void shard_requests(std::size_t n, std::size_t workers, const Drain& drain) {
  workers = std::min(workers, n);
  std::atomic<std::size_t> cursor{0};
  const auto next = [&cursor] {
    return cursor.fetch_add(1, std::memory_order_relaxed);
  };
  if (workers <= 1) {
    drain(std::size_t{0}, next);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    tasks.emplace_back([&drain, &next, w] { drain(w, next); });
  }
  support::global_pool().run_all(std::move(tasks));
}

// ---------------------------------------------------------------------------
// Interpreter

class InterpreterBackend final : public EvalBackend {
 public:
  explicit InterpreterBackend(const EvalBackendDeps& deps)
      : EvalBackend(deps), interp_(*deps.model, *deps.store) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "interpreter";
  }

  [[nodiscard]] asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) override {
    return interp_.evaluate_property(property, args);
  }

  void evaluate_all(std::span<const EvalRequest> requests,
                    std::span<asl::PropertyResult> results) override {
    shard_requests(requests.size(), deps().threads,
                   [&](std::size_t, const auto& next) {
                     for (std::size_t i; (i = next()) < requests.size();) {
                       results[i] = interp_.evaluate_property(
                           *requests[i].property, *requests[i].args);
                     }
                   });
  }

 private:
  const asl::Interpreter interp_;
};

// ---------------------------------------------------------------------------
// SQL family

class SqlBackend final : public EvalBackend {
 public:
  SqlBackend(std::string_view name, SqlEvalMode mode,
             const EvalBackendDeps& deps, bool common_subexpr = true)
      : EvalBackend(deps),
        name_(name),
        mode_(mode),
        common_subexpr_(common_subexpr),
        eval_(*deps.model, *deps.conn, mode, deps.plan_cache, common_subexpr) {
    eval_.set_shard_cache(deps.shard_cache);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }

  [[nodiscard]] asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) override {
    return eval_.evaluate_property(property, args);
  }

  /// With a pool and `threads` > 1, worker 0 evaluates on `conn` and every
  /// other worker on a session leased for its whole share; the PlanCache
  /// (when supplied) is shared, so each property still compiles once.
  void evaluate_all(std::span<const EvalRequest> requests,
                    std::span<asl::PropertyResult> results) override {
    db::ConnectionPool* pool = deps().pool;
    const std::size_t workers =
        pool == nullptr ? 1 : std::min(deps().threads, 1 + pool->capacity());
    std::mutex stats_mutex;
    shard_requests(
        requests.size(), workers, [&](std::size_t w, const auto& next) {
          const auto drain = [&](SqlEvaluator& eval) {
            for (std::size_t i; (i = next()) < requests.size();) {
              results[i] = eval.evaluate_property(*requests[i].property,
                                                  *requests[i].args);
            }
          };
          if (w == 0) {
            drain(eval_);
            return;
          }
          db::ConnectionPool::Lease lease = pool->acquire();
          SqlEvaluator eval(*deps().model, *lease, mode_, deps().plan_cache,
                            common_subexpr_);
          eval.set_shard_cache(deps().shard_cache);
          drain(eval);
          const std::lock_guard lock(stats_mutex);
          add_stats(workers_, eval);
        });
  }

  [[nodiscard]] EvalStats stats() const override {
    EvalStats out = workers_;
    add_stats(out, eval_);
    return out;
  }

 private:
  static void add_stats(EvalStats& into, const SqlEvaluator& eval) {
    into.sql_queries += eval.queries_issued();
    into.plan_cache_hits += eval.plan_cache_hits();
    into.plan_cache_misses += eval.plan_cache_misses();
    into.whole_fallbacks += eval.whole_fallbacks();
  }

  std::string_view name_;  // points at the registry key (stable)
  SqlEvalMode mode_;
  bool common_subexpr_;
  SqlEvaluator eval_;  // on deps().conn: evaluate() and worker 0
  EvalStats workers_;  // accumulated from finished pool-session workers
};

/// One bulk transfer of every table in prepare(), then in-memory
/// interpretation (the batch ablation point of the strategy comparison).
class BulkFetchBackend final : public EvalBackend {
 public:
  explicit BulkFetchBackend(const EvalBackendDeps& deps) : EvalBackend(deps) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "bulk-fetch";
  }

  void prepare(const asl::Model& model, asl::ObjectId run) override {
    EvalBackend::prepare(model, run);
    db::Connection& conn = *deps().conn;
    const std::uint64_t before = conn.statements_executed();
    fetched_.emplace(rebuild_store(conn, model));
    queries_ = conn.statements_executed() - before;
    interp_.emplace(model, *fetched_);
  }

  [[nodiscard]] asl::PropertyResult evaluate(
      const asl::PropertyInfo& property,
      const std::vector<asl::RtValue>& args) override {
    if (!interp_) {
      throw EvalError("bulk-fetch backend evaluated before prepare()");
    }
    return interp_->evaluate_property(property, args);
  }

  [[nodiscard]] EvalStats stats() const override {
    return {queries_, 0, 0, 0};
  }

 private:
  std::optional<asl::ObjectStore> fetched_;
  std::optional<asl::Interpreter> interp_;
  std::uint64_t queries_ = 0;
};

// ---------------------------------------------------------------------------
// Registry

struct Registry {
  std::mutex mutex;
  std::map<std::string, EvalBackend::Registration, std::less<>> entries;
};

Registry& registry() {
  static Registry instance;
  static const bool initialized = [] {
    Registry& r = instance;
    const auto add = [&r](EvalBackend::Registration reg) {
      std::string key = reg.name;
      r.entries.emplace(std::move(key), std::move(reg));
    };
    add({"interpreter",
         "tree-walking evaluation over the in-memory store (threads > 1 "
         "shards the context list)",
         /*needs_store=*/true, /*needs_connection=*/false,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<InterpreterBackend>(deps);
         }});
    add({"sql-pushdown",
         "set operations compile to SQL; scalar glue stays client-side",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "sql-pushdown", SqlEvalMode::kPushdown, deps);
         }});
    add({"sql-whole-condition",
         "entire condition + confidence + severity compile into one "
         "parameterized statement per (property, context) with common "
         "subexpressions hoisted into CTEs and full-table aggregates over "
         "partitioned tables rewritten into per-partition CTE unions the "
         "engine materializes in parallel — paper §6",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "sql-whole-condition", SqlEvalMode::kWholeCondition, deps);
         }});
    add({"sql-whole-condition-plain",
         "whole-condition compilation without the CSE/CTE pass (every "
         "repeated subexpression re-executes) and layout-blind (no "
         "partition-union rewrite); the ablation baseline",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "sql-whole-condition-plain", SqlEvalMode::kWholeCondition,
               deps, /*common_subexpr=*/false);
         }});
    add({"client-fetch",
         "record-at-a-time component fetching with all evaluation in the "
         "tool (the paper's §5 slow path)",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<SqlBackend>(
               "client-fetch", SqlEvalMode::kClientSide, deps);
         }});
    add({"bulk-fetch",
         "one bulk transfer per table, then in-memory interpretation",
         /*needs_store=*/false, /*needs_connection=*/true,
         [](const EvalBackendDeps& deps) {
           return std::make_unique<BulkFetchBackend>(deps);
         }});
    return true;
  }();
  (void)initialized;
  return instance;
}

const EvalBackend::Registration& find_registration(std::string_view name) {
  Registry& r = registry();
  const auto it = r.entries.find(name);
  if (it == r.entries.end()) {
    std::string available;
    for (const auto& [known, reg] : r.entries) {
      if (!available.empty()) available += ", ";
      available += known;
    }
    throw EvalError(support::cat("unknown evaluation backend '", name,
                                 "' (available: ", available, ")"));
  }
  return it->second;
}

}  // namespace

std::unique_ptr<EvalBackend> EvalBackend::create(std::string_view name,
                                                 const EvalBackendDeps& deps) {
  // The factory runs on a copy, outside the registry lock: a factory that
  // itself calls create() (a wrapping backend building its inner one) would
  // otherwise re-lock the non-recursive mutex and deadlock.
  Registration reg;
  {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    reg = find_registration(name);
  }
  if (deps.model == nullptr) {
    throw EvalError(support::cat("backend '", name, "' needs a model"));
  }
  if (reg.needs_store && deps.store == nullptr) {
    throw EvalError(support::cat("backend '", name,
                                 "' needs an in-memory object store"));
  }
  if (reg.needs_connection && deps.conn == nullptr) {
    throw EvalError(
        support::cat("backend '", name, "' needs a database connection"));
  }
  return reg.factory(deps);
}

std::vector<std::string> EvalBackend::names() {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  std::vector<std::string> out;
  out.reserve(r.entries.size());
  for (const auto& [name, reg] : r.entries) out.push_back(name);
  return out;
}

bool EvalBackend::exists(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return r.entries.find(name) != r.entries.end();
}

std::string EvalBackend::describe(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return find_registration(name).description;
}

bool EvalBackend::requires_connection(std::string_view name) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  return find_registration(name).needs_connection;
}

void EvalBackend::register_backend(Registration registration) {
  Registry& r = registry();
  std::lock_guard lock(r.mutex);
  r.entries.insert_or_assign(registration.name, std::move(registration));
}

}  // namespace kojak::cosy
