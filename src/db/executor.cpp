// Volcano-lite executor for the SQL subset: scans with index selection,
// (hash/indexed) equi-joins, filters, grouped aggregation, HAVING, DISTINCT,
// ORDER BY, LIMIT/OFFSET, and the DML statements. Lives behind
// Database::execute; there is no separate physical-plan IR — the statement
// AST plus each SELECT node's resolved plan (sql::SelectPlan below) *is*
// the plan, which is adequate for the data volumes COSY manages
// (10^4..10^6 rows).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include "db/database.hpp"
#include "db/sql/expr_vm.hpp"
#include "db/sql/parser.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace kojak::db {

using sql::BinOp;
using sql::Expr;
using sql::UnOp;
using support::EvalError;

namespace {

// ---------------------------------------------------------------------------
// Parallel partition scans

/// Dedicated pool for partition scans and parallel CTE materialization,
/// separate from support::global_pool() — statements that themselves run on
/// global-pool workers (backends sharding a run's contexts) can block on these
/// futures without starving their own pool. Deadlock-freedom WITHIN this
/// pool rests on one protocol, not on tasks being leaves: every execution
/// dispatched onto the pool runs under an ExecEnv with `on_pool` set, and
/// every pool_for_each caller goes strictly serial when it sees that flag —
/// a pool task never submits to the pool and blocks. Any new pool user
/// must follow the same rule.
support::ThreadPool& scan_pool() {
  static support::ThreadPool pool;
  return pool;
}

/// Runs body(i, scratch) for every i in [0, n) on up to `workers` scan-pool
/// tasks that claim indices from one shared cursor; each task owns one VM
/// scratch. run_all joins every task before it rethrows the first error.
template <typename Body>
void pool_for_each(std::size_t workers, std::size_t n, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::function<void()>> tasks(std::min(workers, n), [&] {
    sql::ExprProgram::Scratch scratch;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      body(i, scratch);
    }
  });
  scan_pool().run_all(std::move(tasks));
}

// ---------------------------------------------------------------------------
// CTE machinery

/// Materialized WITH entries visible to a statement, chained so subqueries
/// see the enclosing statement's CTEs. `entries` grows as the WITH clause
/// materializes left to right, which gives each CTE body exactly the
/// earlier siblings the parser validated against. Names view the statement's
/// own CTE names (or the caller's injected names), which outlive the scope.
struct CteScope {
  const CteScope* parent = nullptr;
  std::vector<std::pair<std::string_view, const QueryResult*>> entries;

  [[nodiscard]] const QueryResult* find(std::string_view name) const {
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (support::iequals(it->first, name)) return it->second;
    }
    return parent == nullptr ? nullptr : parent->find(name);
  }
  /// Entries visible through the whole chain; part of the subquery-memo key
  /// (a name can mean a table before a shadowing CTE materializes and the
  /// CTE afterwards — the count disambiguates the two moments).
  [[nodiscard]] std::size_t visible_count() const {
    return entries.size() +
           (parent == nullptr ? 0 : parent->visible_count());
  }
};

/// Memo keys point at each subquery's cached structural key (SelectStmt::
/// key), which outlives the top-level execution, so a lookup allocates
/// nothing. Equal text and equal parameter indices mean an equal result
/// within one statement execution (subqueries are uncorrelated).
struct MemoKey {
  std::size_t visible = 0;                    // CteScope::visible_count()
  const sql::StructuralKey* shape = nullptr;  // the subquery's structural key
  bool operator==(const MemoKey& other) const {
    return visible == other.visible && *shape == *other.shape;
  }
};
struct MemoKeyHash {
  std::size_t operator()(const MemoKey& key) const noexcept {
    std::size_t h = std::hash<std::string_view>{}(key.shape->text) ^
                    (key.visible * 0x9e3779b97f4a7c15ULL);
    for (const std::size_t index : key.shape->params) {
      h = h * 31 + index;
    }
    return h;
  }
};

/// Per-top-level-statement execution state shared by every nested
/// execution: the uncorrelated-subquery memo. Structurally identical scalar
/// subqueries execute once per statement execution; later occurrences are
/// served from here (tests pin this via Database::exec_stats).
///
/// `on_pool` marks executions that already run on a scan-pool worker
/// (parallel CTE materialization): such executions must stay strictly
/// serial — submitting to the pool and blocking from inside a pool task is
/// how a fixed-size pool deadlocks on itself.
struct ExecEnv {
  std::unordered_map<MemoKey, Value, MemoKeyHash> subquery_memo;
  bool on_pool = false;
};

// ---------------------------------------------------------------------------
// Name resolution

/// One FROM/JOIN source: a base table or a materialized CTE ("derived").
struct ScanSource {
  const Table* table = nullptr;          // base table, or
  const QueryResult* derived = nullptr;  // materialized CTE rows
  /// Validated `PARTITION (k)` selector: scans and probes of this source
  /// touch only partition k.
  std::optional<std::size_t> partition;
  std::string_view qualifier;  // views the TableRef; read at bind time only
  std::size_t base_slot = 0;

  [[nodiscard]] std::size_t column_count() const {
    return table != nullptr ? table->schema().column_count()
                            : derived->column_count();
  }
  [[nodiscard]] std::optional<std::size_t> find_column(
      std::string_view name) const {
    if (table != nullptr) return table->schema().find_column(name);
    for (std::size_t i = 0; i < derived->columns.size(); ++i) {
      if (support::iequals(derived->columns[i], name)) return i;
    }
    return std::nullopt;
  }
  [[nodiscard]] std::string column_name(std::size_t i) const {
    return table != nullptr ? table->schema().column(i).name
                            : derived->columns[i];
  }
};

class Binder {
 public:
  Binder(Database& db, std::span<const Value> params) : db_(db), params_(params) {}

  std::vector<ScanSource> bind_sources(const sql::SelectStmt& stmt,
                                       const CteScope* ctes) {
    std::vector<ScanSource> sources;
    std::size_t slot = 0;
    const auto add = [&](const sql::TableRef& ref) {
      ScanSource source;
      // A CTE shadows a catalog table of the same name (standard scoping).
      if (const QueryResult* derived =
              ctes == nullptr ? nullptr : ctes->find(ref.table)) {
        if (ref.partition) {
          // Backstop for CTEs reaching here from an *enclosing* statement's
          // scope — same-statement selectors are already a parse error.
          throw EvalError(support::cat(
              "PARTITION selector on CTE '", ref.table,
              "' (partition selection applies to partitioned catalog "
              "tables, not temp results)"));
        }
        source.derived = derived;
      } else {
        source.table = db_.find_table(ref.table);
        if (source.table == nullptr) {
          throw EvalError(support::cat("unknown table '", ref.table, "'"));
        }
        if (ref.partition) {
          if (*ref.partition >= source.table->partition_count()) {
            throw EvalError(support::cat(
                "PARTITION selector ", *ref.partition, " out of range: table '",
                ref.table, "' has ", source.table->partition_count(),
                " partition(s)"));
          }
          source.partition = ref.partition;
        }
      }
      for (const ScanSource& s : sources) {
        if (support::iequals(s.qualifier, ref.qualifier())) {
          throw EvalError(support::cat("duplicate table alias '",
                                       ref.qualifier(), "'"));
        }
      }
      source.qualifier = ref.qualifier();
      source.base_slot = slot;
      slot += source.column_count();
      sources.push_back(std::move(source));
    };
    if (stmt.from) add(*stmt.from);
    for (const sql::Join& join : stmt.joins) add(join.table);
    return sources;
  }

  /// Resolves column refs to slots; validates functions and aggregate
  /// placement. `allow_aggregates` is false inside WHERE and ON.
  void bind_expr(Expr& e, const std::vector<ScanSource>& sources,
                 bool allow_aggregates, bool inside_aggregate = false) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kAliasRef:
        return;
      case Expr::Kind::kParam:
        params_needed_ = std::max(params_needed_, e.param_index + 1);
        if (e.param_index >= params_.size()) {
          throw EvalError(support::cat("statement needs parameter #",
                                       e.param_index + 1, " but only ",
                                       params_.size(), " given"));
        }
        return;
      case Expr::Kind::kColumnRef: {
        resolve_column(e, sources);
        return;
      }
      case Expr::Kind::kUnary:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kBinary:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        bind_expr(*e.rhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kIsNull:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kLike:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        bind_expr(*e.rhs, sources, allow_aggregates, inside_aggregate);
        return;
      case Expr::Kind::kInList:
        bind_expr(*e.lhs, sources, allow_aggregates, inside_aggregate);
        for (auto& arg : e.args) {
          bind_expr(*arg, sources, allow_aggregates, inside_aggregate);
        }
        return;
      case Expr::Kind::kSubquery:
        return;  // bound independently when materialized
      case Expr::Kind::kFuncCall: {
        if (is_aggregate_name(e.func)) {
          if (!allow_aggregates) {
            throw EvalError(support::cat("aggregate ", e.func,
                                         " not allowed in this clause"));
          }
          if (inside_aggregate) {
            throw EvalError("nested aggregates are not allowed");
          }
          if (!e.star_arg && e.args.size() != 1) {
            throw EvalError(support::cat(e.func, " expects exactly one argument"));
          }
          if (e.star_arg && e.func != "COUNT") {
            throw EvalError(support::cat(e.func, "(*) is not valid"));
          }
          for (auto& arg : e.args) {
            bind_expr(*arg, sources, allow_aggregates, /*inside_aggregate=*/true);
          }
          return;
        }
        validate_scalar_function(e);
        for (auto& arg : e.args) {
          bind_expr(*arg, sources, allow_aggregates, inside_aggregate);
        }
        return;
      }
    }
  }

  /// Highest `?` index + 1 among the expressions bound so far (scalar
  /// subqueries bind separately and do not count).
  [[nodiscard]] std::size_t params_needed() const noexcept {
    return params_needed_;
  }

  [[nodiscard]] static bool is_aggregate_name(std::string_view name) {
    return name == "COUNT" || name == "SUM" || name == "AVG" || name == "MIN" ||
           name == "MAX" || name == "STDDEV" || name == "VARIANCE";
  }

  static void validate_scalar_function(const Expr& e) {
    struct Fn {
      const char* name;
      std::size_t min_args;
      std::size_t max_args;
    };
    static constexpr Fn kFns[] = {
        {"ABS", 1, 1},    {"SQRT", 1, 1},   {"FLOOR", 1, 1}, {"CEIL", 1, 1},
        {"ROUND", 1, 2},  {"LENGTH", 1, 1}, {"UPPER", 1, 1}, {"LOWER", 1, 1},
        {"COALESCE", 1, sql::kMaxScalarFnArgs}, {"IIF", 3, 3},
        {"NULLIF", 2, 2}, {"LEAST", 2, sql::kMaxScalarFnArgs},
        {"GREATEST", 2, sql::kMaxScalarFnArgs},
    };
    for (const Fn& fn : kFns) {
      if (e.func == fn.name) {
        if (e.args.size() < fn.min_args || e.args.size() > fn.max_args) {
          throw EvalError(support::cat(e.func, " expects between ", fn.min_args,
                                       " and ", fn.max_args, " arguments"));
        }
        return;
      }
    }
    throw EvalError(support::cat("unknown function ", e.func));
  }

 private:
  void resolve_column(Expr& e, const std::vector<ScanSource>& sources) {
    std::size_t found_slot = static_cast<std::size_t>(-1);
    for (const ScanSource& s : sources) {
      if (!e.table.empty() && !support::iequals(e.table, s.qualifier)) continue;
      const auto col = s.find_column(e.column);
      if (!col) continue;
      if (found_slot != static_cast<std::size_t>(-1)) {
        throw EvalError(support::cat("ambiguous column '", e.column, "'"));
      }
      found_slot = s.base_slot + *col;
    }
    if (found_slot == static_cast<std::size_t>(-1)) {
      throw EvalError(support::cat("unknown column '",
                                   e.table.empty()
                                       ? e.column
                                       : e.table + "." + e.column,
                                   "'"));
    }
    e.resolved_slot = found_slot;
  }

  Database& db_;
  std::span<const Value> params_;
  std::size_t params_needed_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Node plans (the opaque SelectStmt::plan declared in ast.hpp)

namespace sql {

/// The columnar evaluator's input: the structural analysis of an aggregate
/// node over one columnar base table. A global aggregate is a GROUP BY with
/// zero keys (the per-partition `part<K>` CTE body the partition-union
/// rewrite emits is the dominant such shape). Everything value-dependent —
/// partition pruning, parameter and subquery constants — is re-bound per
/// execution. Expression pointers reference the owning node's tree, which
/// outlives the plan.
struct FusedPlan {
  std::vector<ValueType> column_types;  // the base table's schema

  /// Whole-WHERE bytecode program (null without a WHERE clause): its
  /// boolean output lanes AND into the selection bitmap with NULL-as-false
  /// semantics.
  std::shared_ptr<const ExprProgram> where_program;

  /// One GROUP BY key: a base-relative column index (program == nullptr)
  /// or a compiled key program. Empty for a global aggregate.
  struct GroupKey {
    std::size_t column = static_cast<std::size_t>(-1);  // SIZE_MAX => program
    std::shared_ptr<const ExprProgram> program;
  };
  std::vector<GroupKey> group_keys;  // GROUP BY order

  /// Output-side nodes (in items / HAVING / ORDER BY) structurally equal to
  /// a *program* group key: evaluated as that key's per-group value via
  /// EvalCtx pinning instead of from the representative row. Plain-column
  /// keys need no pinning — the representative row already carries them.
  std::vector<std::pair<const Expr*, std::size_t>> key_refs;

  /// One aggregate call: over a plain base column (program == nullptr;
  /// column == SIZE_MAX for COUNT(*)) or over an arbitrary compiled value
  /// program whose output lanes feed the same kernels. Collected in
  /// run_aggregation's order (items, HAVING, ORDER BY) so finalized values
  /// map back onto the same Expr nodes.
  struct Aggregate {
    const Expr* expr = nullptr;
    std::size_t column = static_cast<std::size_t>(-1);
    std::shared_ptr<const ExprProgram> program;
  };
  std::vector<Aggregate> aggregates;
};

/// Everything one SELECT node resolves once, under one stamp: valid while
/// Database::catalog_generation() stands (process-unique, so it also names
/// the database), and replaced whole by the first execution after DDL.
struct SelectPlan {
  std::uint64_t catalog = 0;
  /// Sources (table handle plus PARTITION selector, or CTE) with their slot
  /// bases, after star expansion; the tree keeps the resolved slots. CTE
  /// results are per execution: `derived` and the bind-time `qualifier`
  /// stay empty here, and `derived_columns` records the columns the slots
  /// were resolved against (empty for catalog sources).
  std::vector<ScanSource> sources;
  std::vector<std::vector<std::string>> derived_columns;
  /// Highest `?` index + 1 of the node's own expressions.
  std::size_t params_needed = 0;
  /// WITH schedule: the earlier entries each body references, and the
  /// catalog table each body's FROM scans (null when FROM-less, unknown, or
  /// naming an earlier entry) for the parallel-dispatch estimate.
  std::vector<std::vector<std::size_t>> cte_deps;
  std::vector<const Table*> cte_scan_tables;
  /// Fused verdict: the columnar evaluator's plan, or null for the row
  /// path. Analyzed only for a node aggregating over one columnar base
  /// table.
  std::unique_ptr<const FusedPlan> fused;
};

}  // namespace sql

namespace {

// ---------------------------------------------------------------------------
// Expression evaluation

struct EvalCtx {
  const Row* row = nullptr;
  std::span<const Value> params;
  const std::unordered_map<const Expr*, Value>* aggregates = nullptr;
  const std::unordered_map<const Expr*, Value>* subqueries = nullptr;
  const Row* output_row = nullptr;  // for kAliasRef in ORDER BY
  /// Values pinned onto specific expression nodes, consulted before ordinary
  /// evaluation: the grouped vectorized evaluator pins each compiled GROUP BY
  /// key expression to its per-group value (the synthesized representative
  /// row only carries plain-column keys).
  const std::unordered_map<const Expr*, Value>* pinned = nullptr;
};

using sql::like_match;  // one matcher shared with the batch VM (expr_vm.cpp)

Value eval_expr(const Expr& e, const EvalCtx& ctx);

Value eval_scalar_function(const Expr& e, const EvalCtx& ctx) {
  const auto arg = [&](std::size_t i) { return eval_expr(*e.args[i], ctx); };
  if (e.func == "COALESCE") {
    for (const auto& a : e.args) {
      Value v = eval_expr(*a, ctx);
      if (!v.is_null()) return v;
    }
    return Value::null();
  }
  if (e.func == "IIF") {
    const Value cond = arg(0);
    return (!cond.is_null() && cond.as_bool()) ? arg(1) : arg(2);
  }
  if (e.func == "NULLIF") {
    const Value a = arg(0);
    const Value b = arg(1);
    const auto cmp = Value::compare_sql(a, b);
    return (cmp && *cmp == 0) ? Value::null() : a;
  }
  if (e.func == "LEAST" || e.func == "GREATEST") {
    // NULL-skipping extrema (aggregate-MIN/MAX semantics, not the
    // NULL-poisoning variant some engines use): the partition-union rewrite
    // combines per-partition MIN/MAX shards with these, and an empty
    // partition's NULL must not erase the other shards' extremum. All-NULL
    // arguments yield NULL, exactly like MIN/MAX over an empty set.
    const bool want_min = e.func == "LEAST";
    Value best = Value::null();
    for (const auto& a : e.args) {
      const Value v = eval_expr(*a, ctx);
      if (v.is_null()) continue;
      if (best.is_null()) {
        best = v;
        continue;
      }
      const auto cmp = Value::compare_sql(v, best);
      if (cmp && (want_min ? *cmp < 0 : *cmp > 0)) best = v;
    }
    return best;
  }

  const Value v = arg(0);
  if (v.is_null()) return Value::null();
  if (e.func == "ABS") {
    return v.type() == ValueType::kInt ? Value::integer(std::llabs(v.as_int()))
                                       : Value::real(std::fabs(v.as_double()));
  }
  if (e.func == "SQRT") {
    const double x = v.as_double();
    if (x < 0) throw EvalError("SQRT of negative value");
    return Value::real(std::sqrt(x));
  }
  if (e.func == "FLOOR") return Value::real(std::floor(v.as_double()));
  if (e.func == "CEIL") return Value::real(std::ceil(v.as_double()));
  if (e.func == "ROUND") {
    const double digits = e.args.size() > 1 ? eval_expr(*e.args[1], ctx).as_double() : 0;
    const double scale = std::pow(10.0, digits);
    return Value::real(std::round(v.as_double() * scale) / scale);
  }
  if (e.func == "LENGTH") {
    return Value::integer(static_cast<std::int64_t>(v.as_string().size()));
  }
  if (e.func == "UPPER") return Value::text(support::to_upper(v.as_string()));
  if (e.func == "LOWER") return Value::text(support::to_lower(v.as_string()));
  throw EvalError(support::cat("unknown function ", e.func));
}

Value eval_expr(const Expr& e, const EvalCtx& ctx) {
  if (ctx.pinned != nullptr) {
    const auto it = ctx.pinned->find(&e);
    if (it != ctx.pinned->end()) return it->second;
  }
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kParam:
      return ctx.params[e.param_index];
    case Expr::Kind::kColumnRef:
      if (ctx.row == nullptr || e.resolved_slot >= ctx.row->size()) {
        throw EvalError(support::cat("column '", e.column,
                                     "' not available in this context"));
      }
      return (*ctx.row)[e.resolved_slot];
    case Expr::Kind::kAliasRef:
      if (ctx.output_row == nullptr || e.alias_index >= ctx.output_row->size()) {
        throw EvalError("alias reference outside ORDER BY");
      }
      return (*ctx.output_row)[e.alias_index];
    case Expr::Kind::kSubquery: {
      if (ctx.subqueries == nullptr) throw EvalError("unexpected subquery");
      const auto it = ctx.subqueries->find(&e);
      if (it == ctx.subqueries->end()) throw EvalError("subquery not materialized");
      return it->second;
    }
    case Expr::Kind::kUnary: {
      const Value v = eval_expr(*e.lhs, ctx);
      if (v.is_null()) return Value::null();
      if (e.un_op == UnOp::kNot) return Value::boolean(!v.as_bool());
      if (v.type() == ValueType::kInt) return Value::integer(-v.as_int());
      return Value::real(-v.as_double());
    }
    case Expr::Kind::kIsNull: {
      const bool null = eval_expr(*e.lhs, ctx).is_null();
      return Value::boolean(e.negated ? !null : null);
    }
    case Expr::Kind::kLike: {
      const Value text = eval_expr(*e.lhs, ctx);
      const Value pattern = eval_expr(*e.rhs, ctx);
      if (text.is_null() || pattern.is_null()) return Value::null();
      const bool m = like_match(text.as_string(), pattern.as_string());
      return Value::boolean(e.negated ? !m : m);
    }
    case Expr::Kind::kInList: {
      const Value needle = eval_expr(*e.lhs, ctx);
      if (needle.is_null()) return Value::null();
      bool saw_null = false;
      for (const auto& arg : e.args) {
        const Value v = eval_expr(*arg, ctx);
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        const auto cmp = Value::compare_sql(needle, v);
        if (cmp && *cmp == 0) return Value::boolean(!e.negated);
      }
      if (saw_null) return Value::null();
      return Value::boolean(e.negated);
    }
    case Expr::Kind::kFuncCall: {
      if (Binder::is_aggregate_name(e.func)) {
        if (ctx.aggregates == nullptr) {
          throw EvalError(support::cat("aggregate ", e.func,
                                       " outside aggregation context"));
        }
        const auto it = ctx.aggregates->find(&e);
        if (it == ctx.aggregates->end()) {
          throw EvalError("aggregate not computed for this expression");
        }
        return it->second;
      }
      return eval_scalar_function(e, ctx);
    }
    case Expr::Kind::kBinary: {
      switch (e.bin_op) {
        case BinOp::kAnd: {
          // Three-valued logic: FALSE dominates NULL.
          const Value a = eval_expr(*e.lhs, ctx);
          if (!a.is_null() && !a.as_bool()) return Value::boolean(false);
          const Value b = eval_expr(*e.rhs, ctx);
          if (!b.is_null() && !b.as_bool()) return Value::boolean(false);
          if (a.is_null() || b.is_null()) return Value::null();
          return Value::boolean(true);
        }
        case BinOp::kOr: {
          const Value a = eval_expr(*e.lhs, ctx);
          if (!a.is_null() && a.as_bool()) return Value::boolean(true);
          const Value b = eval_expr(*e.rhs, ctx);
          if (!b.is_null() && b.as_bool()) return Value::boolean(true);
          if (a.is_null() || b.is_null()) return Value::null();
          return Value::boolean(false);
        }
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod: {
          const char op = "+-*/%"[static_cast<int>(e.bin_op) -
                                  static_cast<int>(BinOp::kAdd)];
          return numeric_binop(op, eval_expr(*e.lhs, ctx), eval_expr(*e.rhs, ctx));
        }
        default: {
          const auto cmp =
              Value::compare_sql(eval_expr(*e.lhs, ctx), eval_expr(*e.rhs, ctx));
          if (!cmp) return Value::null();
          switch (e.bin_op) {
            case BinOp::kEq: return Value::boolean(*cmp == 0);
            case BinOp::kNe: return Value::boolean(*cmp != 0);
            case BinOp::kLt: return Value::boolean(*cmp < 0);
            case BinOp::kLe: return Value::boolean(*cmp <= 0);
            case BinOp::kGt: return Value::boolean(*cmp > 0);
            case BinOp::kGe: return Value::boolean(*cmp >= 0);
            default: throw EvalError("bad comparison operator");
          }
        }
      }
    }
  }
  throw EvalError("unhandled expression kind");
}

/// WHERE/ON/HAVING truthiness: NULL counts as false.
bool eval_predicate(const Expr& e, const EvalCtx& ctx) {
  const Value v = eval_expr(e, ctx);
  return !v.is_null() && v.as_bool();
}

// ---------------------------------------------------------------------------
// Aggregation machinery

struct AggState {
  std::size_t count = 0;           // COUNT
  support::RunningStats stats;     // SUM/AVG/STDDEV/VARIANCE
  Value min_value;                 // MIN/MAX under SQL comparison
  Value max_value;
  bool has_minmax = false;
  std::set<Value, bool (*)(const Value&, const Value&)> distinct{
      +[](const Value& a, const Value& b) {
        return Value::compare_total(a, b) < 0;
      }};
};

void agg_accumulate(const Expr& agg, AggState& state, const EvalCtx& ctx) {
  if (agg.star_arg) {
    ++state.count;
    return;
  }
  const Value v = eval_expr(*agg.args[0], ctx);
  if (v.is_null()) return;
  if (agg.distinct_arg) {
    if (!state.distinct.insert(v).second) return;
  }
  ++state.count;
  if (agg.func == "MIN" || agg.func == "MAX") {
    if (!state.has_minmax) {
      state.min_value = state.max_value = v;
      state.has_minmax = true;
    } else {
      const auto cmin = Value::compare_sql(v, state.min_value);
      if (cmin && *cmin < 0) state.min_value = v;
      const auto cmax = Value::compare_sql(v, state.max_value);
      if (cmax && *cmax > 0) state.max_value = v;
    }
    return;
  }
  if (agg.func != "COUNT") state.stats.push(v.as_double());
}

Value agg_finalize(const Expr& agg, const AggState& state) {
  if (agg.func == "COUNT") {
    return Value::integer(static_cast<std::int64_t>(state.count));
  }
  if (state.count == 0) return Value::null();
  if (agg.func == "SUM") return Value::real(state.stats.sum());
  if (agg.func == "AVG") return Value::real(state.stats.mean());
  if (agg.func == "MIN") return state.min_value;
  if (agg.func == "MAX") return state.max_value;
  if (agg.func == "STDDEV") return Value::real(state.stats.stddev_sample());
  if (agg.func == "VARIANCE") return Value::real(state.stats.variance_sample());
  throw EvalError(support::cat("unknown aggregate ", agg.func));
}

void collect_aggregates(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == Expr::Kind::kFuncCall && Binder::is_aggregate_name(e.func)) {
    out.push_back(&e);
    return;  // arguments evaluate per input row, not per group
  }
  if (e.lhs) collect_aggregates(*e.lhs, out);
  if (e.rhs) collect_aggregates(*e.rhs, out);
  for (const auto& arg : e.args) collect_aggregates(*arg, out);
}

// ---------------------------------------------------------------------------
// Columnar aggregate kernels
//
// Batch-at-a-time execution over STORAGE COLUMNAR partitions: the compiled
// WHERE program ANDs its boolean lanes into a per-partition selection
// bitmap over the typed column lanes, each selected lane maps to a group id
// through a hash over the GROUP BY key lanes (a global aggregate is the
// zero-key case: one pre-created group, no hash), and each aggregate runs a
// tight per-column kernel over the selected lanes, indexing per-group state
// with that id — no Row is ever materialized. Byte-identity with the row
// path is load-bearing: every kernel visits lanes in heap order
// (partition-major, local offset within) and pushes the exact doubles
// agg_accumulate would have pushed into the same RunningStats, with
// first-attained MIN/MAX ties. Group equality must mirror
// Value::compare_total for same-column pairs — the numeric class compares
// int lanes through double, every other class is declared-type-exact — so
// groups split exactly where the row path's std::map keys would.

constexpr std::size_t kVectorBatch = 1024;

/// Which kernel loop serves an aggregate call.
enum class AggKernel : std::uint8_t {
  kCountStar,     // COUNT(*)
  kCountColumn,   // COUNT(col)
  kNumericStats,  // SUM/AVG/STDDEV/VARIANCE: count + RunningStats pushes
  kMinMax,        // MIN/MAX: typed first-attained extremes
};

/// Typed running extremes for a MIN/MAX kernel, mirroring agg_accumulate's
/// first-attained rule (strict compare; ties and NaN keep the incumbent).
/// Only the member matching the column's lane type is meaningful; both the
/// low and the high side track, exactly as agg_accumulate updates both
/// min_value and max_value from one state.
struct MinMaxAcc {
  bool has = false;
  std::int64_t lo_i = 0;
  std::int64_t hi_i = 0;
  double lo_d = 0;
  double hi_d = 0;
  std::string lo_s;
  std::string hi_s;
};

/// Rebuilds the Value agg_finalize expects from a typed extreme.
Value minmax_value(ValueType col_type, const MinMaxAcc& acc, bool max_side) {
  switch (col_type) {
    case ValueType::kInt:
      return Value::integer(max_side ? acc.hi_i : acc.lo_i);
    case ValueType::kBool:
      return Value::boolean((max_side ? acc.hi_i : acc.lo_i) != 0);
    case ValueType::kDateTime:
      return Value::datetime(max_side ? acc.hi_i : acc.lo_i);
    case ValueType::kDouble:
      return Value::real(max_side ? acc.hi_d : acc.lo_d);
    default:
      return Value::text(max_side ? acc.hi_s : acc.lo_s);
  }
}

/// Kernel selection for one supported aggregate call.
AggKernel agg_kernel_of(const Expr& agg) {
  if (agg.star_arg) return AggKernel::kCountStar;
  if (agg.func == "COUNT") return AggKernel::kCountColumn;
  if (agg.func == "MIN" || agg.func == "MAX") return AggKernel::kMinMax;
  return AggKernel::kNumericStats;
}

/// Hash of one group-key lane; lanes that group_lane_equals treats as equal
/// hash equal (ints through double; ±0.0 normalized for the double lanes).
std::size_t group_lane_hash(ValueType type, const Table::ColumnSlice& slice,
                            std::size_t lane) {
  constexpr std::size_t kNullHash = 0x517cc1b727220a95ULL;
  if (slice.valid[lane] == 0) return kNullHash;
  switch (type) {
    case ValueType::kBool:
      return slice.ints[lane] != 0 ? 2 : 1;
    case ValueType::kInt:
      return std::hash<double>{}(static_cast<double>(slice.ints[lane]));
    case ValueType::kDateTime:
      return std::hash<std::int64_t>{}(slice.ints[lane]);
    case ValueType::kDouble: {
      const double d = slice.reals[lane];
      return std::hash<double>{}(d == 0.0 ? 0.0 : d);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(slice.strs[lane]);
    default:
      return 0;
  }
}

/// One group-key lane against a stored key Value of the same column:
/// replicates Value::compare_total == 0 (NULL equals NULL and nothing else).
bool group_lane_equals(ValueType type, const Table::ColumnSlice& slice,
                       std::size_t lane, const Value& key) {
  if (slice.valid[lane] == 0) return key.is_null();
  if (key.is_null()) return false;
  switch (type) {
    case ValueType::kBool:
      return (slice.ints[lane] != 0) == key.as_bool();
    case ValueType::kInt:
      // compare_total's numeric class compares through as_double.
      return static_cast<double>(slice.ints[lane]) == key.as_double();
    case ValueType::kDateTime:
      return slice.ints[lane] == key.as_datetime();
    case ValueType::kDouble:
      return slice.reals[lane] == key.as_double();
    case ValueType::kString:
      return slice.strs[lane] == key.as_string();
    default:
      return false;
  }
}

/// Rebuilds the Value a group-key lane denotes — the same mapping the row
/// path's eval of the GROUP BY column ref produces from the stored cell.
Value group_lane_value(ValueType type, const Table::ColumnSlice& slice,
                       std::size_t lane) {
  if (slice.valid[lane] == 0) return Value::null();
  switch (type) {
    case ValueType::kBool:
      return Value::boolean(slice.ints[lane] != 0);
    case ValueType::kInt:
      return Value::integer(slice.ints[lane]);
    case ValueType::kDateTime:
      return Value::datetime(slice.ints[lane]);
    case ValueType::kDouble:
      return Value::real(slice.reals[lane]);
    default:
      return Value::text(slice.strs[lane]);
  }
}

/// Aggregate kernel over lanes [begin, end): each selected lane lands in its
/// group's state (`gid[i]`; always group 0 without keys, so a global
/// aggregate's loops index one hoisted state). Lanes are visited in heap
/// order, so every group's push sequence is exactly the subsequence the row
/// path feeds it.
template <bool kKeyed>
void accumulate_grouped_batch(AggKernel kernel, ValueType col_type,
                              const Table::ColumnSlice& slice,
                              std::size_t begin, std::size_t end,
                              const std::uint8_t* sel,
                              const std::uint32_t* gid,
                              std::vector<AggState>& states,
                              std::vector<MinMaxAcc>& minmax) {
  const auto group = [gid](std::size_t i) -> std::uint32_t {
    return kKeyed ? gid[i] : 0;
  };
  switch (kernel) {
    case AggKernel::kCountStar:
    case AggKernel::kCountColumn: {
      const bool star = kernel == AggKernel::kCountStar;
      if constexpr (kKeyed) {
        for (std::size_t i = begin; i < end; ++i) {
          if (sel[i] && (star || slice.valid[i])) ++states[gid[i]].count;
        }
      } else {
        // One group: a branch-free sum the compiler vectorizes.
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i) {
          count += star ? sel[i] : sel[i] & slice.valid[i];
        }
        states[0].count += count;
      }
      return;
    }
    case AggKernel::kNumericStats:
      if (col_type == ValueType::kInt) {
        for (std::size_t i = begin; i < end; ++i) {
          if (sel[i] && slice.valid[i]) {
            AggState& state = states[group(i)];
            ++state.count;
            state.stats.push(static_cast<double>(slice.ints[i]));
          }
        }
      } else {
        for (std::size_t i = begin; i < end; ++i) {
          if (sel[i] && slice.valid[i]) {
            AggState& state = states[group(i)];
            ++state.count;
            state.stats.push(slice.reals[i]);
          }
        }
      }
      return;
    case AggKernel::kMinMax:
      switch (col_type) {
        case ValueType::kInt:
          for (std::size_t i = begin; i < end; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group(i)].count;
            MinMaxAcc& acc = minmax[group(i)];
            const std::int64_t x = slice.ints[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_i = acc.hi_i = x;
              continue;
            }
            const auto xd = static_cast<double>(x);
            if (xd < static_cast<double>(acc.lo_i)) acc.lo_i = x;
            if (xd > static_cast<double>(acc.hi_i)) acc.hi_i = x;
          }
          return;
        case ValueType::kBool:
        case ValueType::kDateTime:
          for (std::size_t i = begin; i < end; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group(i)].count;
            MinMaxAcc& acc = minmax[group(i)];
            const std::int64_t x = slice.ints[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_i = acc.hi_i = x;
              continue;
            }
            if (x < acc.lo_i) acc.lo_i = x;
            if (x > acc.hi_i) acc.hi_i = x;
          }
          return;
        case ValueType::kDouble:
          for (std::size_t i = begin; i < end; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group(i)].count;
            MinMaxAcc& acc = minmax[group(i)];
            const double x = slice.reals[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_d = acc.hi_d = x;
              continue;
            }
            if (x < acc.lo_d) acc.lo_d = x;
            if (x > acc.hi_d) acc.hi_d = x;
          }
          return;
        case ValueType::kString:
          for (std::size_t i = begin; i < end; ++i) {
            if (!(sel[i] && slice.valid[i])) continue;
            ++states[group(i)].count;
            MinMaxAcc& acc = minmax[group(i)];
            const std::string& x = slice.strs[i];
            if (!acc.has) {
              acc.has = true;
              acc.lo_s = acc.hi_s = x;
              continue;
            }
            if (x.compare(acc.lo_s) < 0) acc.lo_s = x;
            if (x.compare(acc.hi_s) > 0) acc.hi_s = x;
          }
          return;
        default:
          return;
      }
  }
}

// ---------------------------------------------------------------------------
// Columnar hash equi-join kernels

/// Key category of a columnar equi-join. Lane equality must mirror
/// ValueEqTotal: the numeric class joins INTEGER and DOUBLE lanes through
/// double; every other class requires the same declared type on both sides.
/// Cross-class pairs return nullopt — ValueEqTotal never matches them, so
/// the (cheap, empty) row path keeps that behavior.
enum class JoinKeyKind : std::uint8_t { kNumeric, kBool, kDateTime, kString };

std::optional<JoinKeyKind> join_key_kind(ValueType a, ValueType b) {
  const auto numeric = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  if (numeric(a) && numeric(b)) return JoinKeyKind::kNumeric;
  if (a != b) return std::nullopt;
  switch (a) {
    case ValueType::kBool:
      return JoinKeyKind::kBool;
    case ValueType::kDateTime:
      return JoinKeyKind::kDateTime;
    case ValueType::kString:
      return JoinKeyKind::kString;
    default:
      return std::nullopt;
  }
}

/// Build-and-probe over masked key slices: inserts every usable (live,
/// non-NULL) build lane's row id keyed by `key_of(slice, lane)`, then probes
/// with the other side's usable lanes and collects surviving
/// (outer id, inner id) pairs. Per-key id lists keep insertion (= build scan)
/// order, so when the build side is the inner table the pair stream is
/// already the row path's emission order. NULL lanes never participate: SQL
/// equality cannot match them, and the ON re-evaluation during row assembly
/// would discard such a pair anyway.
template <typename Key, typename KeyOf>
std::vector<std::pair<std::size_t, std::size_t>> columnar_join_pairs(
    const std::vector<Table::KeySlice>& build,
    const std::vector<Table::KeySlice>& probe, bool build_is_outer,
    std::uint64_t& lanes_probed, KeyOf&& key_of) {
  std::unordered_map<Key, std::vector<std::size_t>> table;
  for (const Table::KeySlice& s : build) {
    for (std::size_t i = 0; i < s.column.size; ++i) {
      if (s.usable(i)) {
        table[key_of(s.column, i)].push_back(make_row_id(s.partition, i));
      }
    }
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const Table::KeySlice& s : probe) {
    for (std::size_t i = 0; i < s.column.size; ++i) {
      if (!s.usable(i)) continue;
      ++lanes_probed;
      const auto it = table.find(key_of(s.column, i));
      if (it == table.end()) continue;
      const std::size_t probe_id = make_row_id(s.partition, i);
      for (const std::size_t build_id : it->second) {
        pairs.emplace_back(build_is_outer ? build_id : probe_id,
                           build_is_outer ? probe_id : build_id);
      }
    }
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// SELECT execution

class SelectExec {
 public:
  /// `enclosing` is the CTE scope of the statement this execution nests in
  /// (null at top level); `env` is the shared per-top-level-statement state
  /// (null at top level — one is created locally). `injected` optionally
  /// names externally-materialized results: WITH entries matching an
  /// injected name are not executed, their names resolve to the injected
  /// rows (the shard-result cache's merge path).
  SelectExec(Database& db, sql::SelectStmt& stmt, std::span<const Value> params,
             const CteScope* enclosing = nullptr, ExecEnv* env = nullptr,
             const CteScope* injected = nullptr)
      : db_(db), stmt_(stmt), params_(params), scope_{enclosing, {}},
        env_(env), injected_(injected) {}

  QueryResult run() {
    ExecEnv local_env;
    if (env_ == nullptr) env_ = &local_env;

    // The node's plan while its catalog stamp stands; otherwise resolve()
    // builds a fresh one, published once the subqueries have values.
    plan_ = stmt_.plan.get();
    if (plan_ != nullptr && plan_->catalog != db_.catalog_generation()) {
      plan_ = nullptr;
    }
    if (!stmt_.ctes.empty()) materialize_ctes();
    resolve();
    materialize_subqueries();
    const bool aggregation = needs_aggregation();
    const bool fresh = fresh_ != nullptr;
    if (fresh) publish_plan(aggregation);

    QueryResult result;
    result.columns = output_names();

    std::vector<std::pair<Row, Row>> out;  // (output row, order keys)
    std::optional<std::vector<std::pair<Row, Row>>> fused;
    if (aggregation && plan_->fused != nullptr) {
      fused = try_vectorized_aggregation(*plan_->fused, !fresh);
    }
    if (fused) {
      // Fused single-pass columnar evaluator: scan, WHERE, and aggregation
      // already happened batch-at-a-time over the column vectors.
      out = std::move(*fused);
    } else {
      std::vector<Row> rows = scan_and_join();
      if (stmt_.where && !where_applied_) {
        std::vector<Row> kept;
        kept.reserve(rows.size());
        for (Row& row : rows) {
          EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
          if (eval_predicate(*stmt_.where, ctx)) kept.push_back(std::move(row));
        }
        rows = std::move(kept);
      }

      if (aggregation) {
        out = run_aggregation(rows);
      } else {
        out.reserve(rows.size());
        for (const Row& row : rows) {
          EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
          Row output;
          output.reserve(stmt_.items.size());
          for (const auto& item : stmt_.items) {
            output.push_back(eval_expr(*item.expr, ctx));
          }
          Row keys = eval_order_keys(ctx, output);
          out.emplace_back(std::move(output), std::move(keys));
        }
      }
    }

    if (stmt_.distinct) {
      std::set<Row, bool (*)(const Row&, const Row&)> seen(+[](const Row& a,
                                                               const Row& b) {
        for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
          const int c = Value::compare_total(a[i], b[i]);
          if (c != 0) return c < 0;
        }
        return a.size() < b.size();
      });
      std::vector<std::pair<Row, Row>> deduped;
      for (auto& pair : out) {
        if (seen.insert(pair.first).second) deduped.push_back(std::move(pair));
      }
      out = std::move(deduped);
    }

    if (!stmt_.order_by.empty()) {
      std::stable_sort(out.begin(), out.end(), [&](const auto& a, const auto& b) {
        for (std::size_t i = 0; i < stmt_.order_by.size(); ++i) {
          int c = Value::compare_total(a.second[i], b.second[i]);
          if (stmt_.order_by[i].descending) c = -c;
          if (c != 0) return c < 0;
        }
        return false;
      });
    }

    const std::size_t offset = stmt_.offset.value_or(0);
    const std::size_t limit = stmt_.limit.value_or(out.size());
    for (std::size_t i = offset; i < out.size() && i - offset < limit; ++i) {
      result.rows.push_back(std::move(out[i].first));
    }
    return result;
  }

  /// Analysis-only companion to run() for Database::explain_fused: binds
  /// the statement exactly like run() but materializes nothing (CTE bodies
  /// are explained separately by the caller; a FROM naming one fails to
  /// bind here, which the caller reports as row path), then reports which
  /// evaluator the fused analysis picks. Any program compiled here is
  /// discarded with the caller's throwaway parse tree and never counted
  /// (count_compiles_ off) — explain must not move the pinned counters.
  [[nodiscard]] std::string explain_verdict() {
    ExecEnv local_env;
    if (env_ == nullptr) env_ = &local_env;
    count_compiles_ = false;
    // CTE names bind against an empty derived result — enough for the
    // verdict, since derived sources always stay on the row path.
    static const QueryResult kEmptyDerived;
    for (const auto& cte : stmt_.ctes) {
      scope_.entries.emplace_back(cte.name, &kEmptyDerived);
    }
    Binder binder(db_, params_);
    bind_fresh(binder);
    if (!needs_aggregation()) return "row path (no aggregation)";
    if (!single_columnar_base()) {
      return "row path (not a single columnar base table)";
    }
    const bool grouped = !stmt_.group_by.empty();
    if (analyze_aggregate(sources_[0]) == nullptr) {
      return grouped ? "row path (grouped shape unsupported)"
                     : "row path (shape unsupported)";
    }
    return grouped ? "fused grouped (vectorized)"
                   : "fused global aggregate (vectorized)";
  }

 private:
  /// Resolves this node's sources and binds its expressions, or reuses the
  /// node's plan: with enough parameters, and with every FROM/JOIN name
  /// resolving as it did — to the catalog, or to a CTE result with the same
  /// columns. The tree already holds the slots a bind would write, so reuse
  /// only points the CTE sources at this execution's results. Anything else
  /// binds from scratch into a fresh plan; too few parameters thereby raise
  /// the usual diagnostic.
  void resolve() {
    if (plan_ != nullptr && reuse(*plan_)) {
      db_.count_select_bind_reuses();
      return;
    }
    db_.count_select_binds();
    Binder binder(db_, params_);
    bind_fresh(binder);
    sql::SelectPlan& plan = fresh_plan();
    plan.sources = sources_;
    for (ScanSource& source : plan.sources) {
      plan.derived_columns.push_back(source.derived == nullptr
                                         ? std::vector<std::string>{}
                                         : source.derived->columns);
      source.derived = nullptr;
      source.qualifier = {};  // views the tree, which may move between runs
    }
    plan.params_needed = binder.params_needed();
  }

  /// Fills sources_ from `plan` when it still describes this execution.
  [[nodiscard]] bool reuse(const sql::SelectPlan& plan) {
    if (params_.size() < plan.params_needed) return false;
    std::vector<ScanSource> sources = plan.sources;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const sql::TableRef& ref =
          i == 0 ? *stmt_.from : stmt_.joins[i - 1].table;
      const QueryResult* derived = scope_.find(ref.table);
      const bool was_cte = sources[i].table == nullptr;
      if ((derived != nullptr) != was_cte ||
          (was_cte && derived->columns != plan.derived_columns[i])) {
        return false;
      }
      sources[i].derived = derived;
    }
    sources_ = std::move(sources);
    return true;
  }

  /// The plan this execution builds, started on first use with the catalog
  /// stamp and the WITH schedule: each body's references to earlier entries
  /// (FROM, JOINs, and subqueries, recursively — the parser already rejects
  /// self and forward references, so dependencies only point backwards),
  /// and the catalog table its FROM scans.
  sql::SelectPlan& fresh_plan() {
    if (fresh_ != nullptr) return *fresh_;
    fresh_ = std::make_shared<sql::SelectPlan>();
    fresh_->catalog = db_.catalog_generation();
    const std::size_t n = stmt_.ctes.size();
    fresh_->cte_deps.resize(n);
    fresh_->cte_scan_tables.resize(n, nullptr);
    const auto earlier = [&](std::size_t index, std::string_view name) {
      for (std::size_t j = 0; j < index; ++j) {
        if (support::iequals(name, stmt_.ctes[j].name)) return j;
      }
      return index;
    };
    for (std::size_t i = 0; i < n; ++i) {
      const sql::SelectStmt& body = *stmt_.ctes[i].select;
      sql::for_each_table_ref(body, [&](const sql::TableRef& ref) {
        const std::size_t j = earlier(i, ref.table);
        if (j < i) fresh_->cte_deps[i].push_back(j);
      });
      if (body.from && earlier(i, body.from->table) == i) {
        fresh_->cte_scan_tables[i] = db_.find_table(body.from->table);
      }
    }
    return *fresh_;
  }

  /// Completes the fresh plan with the fused verdict — analyzed once the
  /// scalar subqueries have values, so compiled constant slots carry their
  /// types — and installs it on the node.
  void publish_plan(bool aggregation) {
    if (aggregation && single_columnar_base()) {
      fresh_->fused = analyze_aggregate(sources_[0]);
    }
    stmt_.plan = std::move(fresh_);
    plan_ = stmt_.plan.get();
  }

  /// Live rows the `index`-th CTE's base scan would touch (0 when the body
  /// is FROM-less or reads a derived source) — the dispatch-threshold
  /// estimate for parallel materialization.
  [[nodiscard]] std::size_t cte_scan_estimate(const sql::SelectPlan& plan,
                                              std::size_t index) const {
    const Table* table = plan.cte_scan_tables[index];
    if (table == nullptr) return 0;  // unknown tables surface at bind
    const sql::TableRef& from = *stmt_.ctes[index].select->from;
    // An enclosing statement's CTE shadows the catalog table.
    if (scope_.parent != nullptr &&
        scope_.parent->find(from.table) != nullptr) {
      return 0;
    }
    const auto& partition = from.partition;
    if (partition && *partition < table->partition_count()) {
      return table->partition_live_count(*partition);
    }
    return table->live_row_count();
  }

  /// Materializes the WITH entries exactly once per execution. Entries are
  /// scheduled in dependency waves: every CTE whose (strictly earlier)
  /// references are already materialized is ready, and a ready wave of two
  /// or more bodies runs concurrently on the scan pool when the scan config
  /// allows it — this is what lets a partition-union statement scan its
  /// `part<K>` CTEs in parallel inside ONE statement execution. Results
  /// land in declaration-indexed slots and scope entries are appended in
  /// declaration order, so the visible row streams are byte-identical to
  /// the serial left-to-right materialization.
  void materialize_ctes() {
    const std::size_t n = stmt_.ctes.size();
    cte_results_.resize(n);
    const sql::SelectPlan& plan = plan_ != nullptr ? *plan_ : fresh_plan();
    const auto& deps = plan.cte_deps;

    const Database::ScanConfig& config = db_.scan_config();
    const std::size_t workers =
        config.threads == 0 ? scan_pool().size() : config.threads;

    std::vector<bool> done(n, false);
    std::size_t materialized = 0;
    if (injected_ != nullptr) {
      // Pre-materialized entries (shard-result cache): mark them done so no
      // wave executes their bodies, and expose the injected rows under the
      // declared names. Declaration order is preserved ahead of every wave,
      // so lookup shadowing behaves as in the serial materialization.
      for (std::size_t i = 0; i < n; ++i) {
        const QueryResult* pre = injected_->find(stmt_.ctes[i].name);
        if (pre == nullptr) continue;
        done[i] = true;
        scope_.entries.emplace_back(stmt_.ctes[i].name, pre);
        ++materialized;
      }
    }
    while (materialized < n) {
      std::vector<std::size_t> wave;
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i]) continue;
        const bool ready = std::all_of(deps[i].begin(), deps[i].end(),
                                       [&](std::size_t j) { return done[j]; });
        if (ready) wave.push_back(i);
      }
      // The dependency graph is acyclic (parser-enforced), so progress is
      // guaranteed: at least the lowest unfinished index is ready.

      std::size_t estimate = 0;
      for (const std::size_t i : wave) {
        estimate += cte_scan_estimate(plan, i);
      }
      const bool parallel = wave.size() >= 2 && workers >= 2 &&
                            !env_->on_pool &&
                            estimate >= config.min_parallel_rows;
      if (parallel) {
        // Each body gets a private ExecEnv seeded with the statement's memo
        // (bodies on the pool must not share a mutable map); fresh entries
        // merge back in declaration order, so the surviving memo is
        // deterministic. on_pool keeps the bodies strictly serial inside —
        // a pool task blocking on the pool is a self-deadlock.
        std::vector<ExecEnv> envs(wave.size());
        for (ExecEnv& env : envs) {
          env.subquery_memo = env_->subquery_memo;
          env.on_pool = true;
        }
        pool_for_each(workers, wave.size(),
                      [&](std::size_t i, sql::ExprProgram::Scratch&) {
                        SelectExec body(db_, *stmt_.ctes[wave[i]].select,
                                        params_, &scope_, &envs[i]);
                        cte_results_[wave[i]] = body.run();
                        db_.count_cte_materializations();
                      });
        db_.count_cte_parallel_materializations(wave.size());
        for (ExecEnv& env : envs) {
          for (auto& [key, value] : env.subquery_memo) {
            env_->subquery_memo.try_emplace(key, value);
          }
        }
      } else {
        for (const std::size_t i : wave) {
          SelectExec body(db_, *stmt_.ctes[i].select, params_, &scope_, env_);
          cte_results_[i] = body.run();
          db_.count_cte_materializations();
        }
      }
      for (const std::size_t i : wave) {
        done[i] = true;
        scope_.entries.emplace_back(stmt_.ctes[i].name, &cte_results_[i]);
        ++materialized;
      }
    }
  }

  /// Resolves the sources, expands stars and binds every expression.
  void bind_fresh(Binder& binder) {
    sources_ = binder.bind_sources(stmt_, &scope_);
    expand_stars();
    bind_all(binder);
  }

  void expand_stars() {
    std::vector<sql::SelectItem> expanded;
    for (auto& item : stmt_.items) {
      if (!item.star) {
        expanded.push_back(std::move(item));
        continue;
      }
      bool matched = false;
      for (const ScanSource& s : sources_) {
        if (!item.star_table.empty() &&
            !support::iequals(item.star_table, s.qualifier)) {
          continue;
        }
        matched = true;
        for (std::size_t c = 0; c < s.column_count(); ++c) {
          sql::SelectItem col;
          col.expr = std::make_unique<Expr>();
          col.expr->kind = Expr::Kind::kColumnRef;
          col.expr->table = std::string(s.qualifier);
          col.expr->column = s.column_name(c);
          expanded.push_back(std::move(col));
        }
      }
      if (!matched) {
        throw EvalError(item.star_table.empty()
                            ? std::string("SELECT * without FROM")
                            : support::cat("unknown table '", item.star_table,
                                           "' in ", item.star_table, ".*"));
      }
    }
    if (expanded.empty()) throw EvalError("empty select list");
    stmt_.items = std::move(expanded);
  }

  void bind_all(Binder& binder) {
    for (auto& item : stmt_.items) {
      binder.bind_expr(*item.expr, sources_, /*allow_aggregates=*/true);
    }
    if (stmt_.where) {
      binder.bind_expr(*stmt_.where, sources_, /*allow_aggregates=*/false);
    }
    for (auto& join : stmt_.joins) {
      if (join.on) binder.bind_expr(*join.on, sources_, /*allow_aggregates=*/false);
    }
    for (auto& g : stmt_.group_by) {
      binder.bind_expr(*g, sources_, /*allow_aggregates=*/false);
    }
    if (stmt_.having) {
      binder.bind_expr(*stmt_.having, sources_, /*allow_aggregates=*/true);
    }
    for (auto& key : stmt_.order_by) {
      // ORDER BY <ordinal> and ORDER BY <alias> resolve to select items.
      if (key.expr->kind == Expr::Kind::kLiteral &&
          key.expr->literal.type() == ValueType::kInt) {
        const std::int64_t ordinal = key.expr->literal.as_int();
        if (ordinal < 1 ||
            ordinal > static_cast<std::int64_t>(stmt_.items.size())) {
          throw EvalError(support::cat("ORDER BY position ", ordinal,
                                       " out of range"));
        }
        key.expr->kind = Expr::Kind::kAliasRef;
        key.expr->alias_index = static_cast<std::size_t>(ordinal - 1);
        continue;
      }
      if (key.expr->kind == Expr::Kind::kColumnRef && key.expr->table.empty()) {
        bool is_alias = false;
        for (std::size_t i = 0; i < stmt_.items.size(); ++i) {
          if (!stmt_.items[i].alias.empty() &&
              support::iequals(stmt_.items[i].alias, key.expr->column)) {
            key.expr->kind = Expr::Kind::kAliasRef;
            key.expr->alias_index = i;
            is_alias = true;
            break;
          }
        }
        if (is_alias) continue;
      }
      binder.bind_expr(*key.expr, sources_, /*allow_aggregates=*/true);
    }
  }

  void materialize_one(const Expr& e) {
    if (e.kind == Expr::Kind::kSubquery) {
      // Memo key: the node's structural key (cached on first use, before
      // its execution can expand stars or rewrite ordinals) plus the number
      // of CTE entries visible right now — a name can resolve to a table
      // before a shadowing CTE materializes and to the CTE afterwards, and
      // the count tells those two moments apart.
      sql::SelectStmt& sub = *e.subquery;
      const MemoKey key{scope_.visible_count(), &sql::structural_key(sub)};
      const auto hit = env_->subquery_memo.find(key);
      if (hit != env_->subquery_memo.end()) {
        db_.count_subquery_memo_hits();
        subquery_values_[&e] = hit->second;
        return;
      }
      // Runs in place, like a top-level statement: the node's plan stays
      // on it for the next execution.
      QueryResult sub_result =
          SelectExec(db_, sub, params_, &scope_, env_).run();
      db_.count_subquery_executions();
      if (sub_result.column_count() != 1) {
        throw EvalError("scalar subquery must produce one column");
      }
      if (sub_result.row_count() > 1) {
        throw EvalError("scalar subquery produced more than one row");
      }
      const Value scalar = sub_result.scalar();
      env_->subquery_memo.emplace(key, scalar);
      subquery_values_[&e] = scalar;
      return;
    }
    if (e.lhs) materialize_one(*e.lhs);
    if (e.rhs) materialize_one(*e.rhs);
    for (const auto& arg : e.args) materialize_one(*arg);
  }

  void materialize_subqueries() {
    for (const auto& item : stmt_.items) materialize_one(*item.expr);
    if (stmt_.where) materialize_one(*stmt_.where);
    for (const auto& join : stmt_.joins) {
      if (join.on) materialize_one(*join.on);
    }
    for (const auto& g : stmt_.group_by) materialize_one(*g);
    if (stmt_.having) materialize_one(*stmt_.having);
    for (const auto& key : stmt_.order_by) materialize_one(*key.expr);
  }

  /// Access path chosen for the base scan from indexable WHERE conjuncts.
  struct BaseScanPlan {
    enum class Kind { kFullScan, kEquality, kRange };
    Kind kind = Kind::kFullScan;
    const Index* index = nullptr;
    Value key;                 // kEquality
    std::optional<Value> lo;   // kRange (inclusive; strictness re-filtered)
    std::optional<Value> hi;
    /// Partition pruning: an equality conjunct on the table's partition
    /// column routes a heap scan to this single partition. Only full scans
    /// carry it — index paths route internally, shard by shard.
    std::optional<std::size_t> partition;
    /// An explicit `PARTITION (k)` selector conflicts with the partition an
    /// equality conjunct routes to: the scan provably yields nothing.
    bool empty = false;
  };

  /// Partitions [first, first + count) a scan touches after pruning, with
  /// their live-row and nonempty-partition totals.
  struct PartitionRange {
    std::size_t first = 0;
    std::size_t count = 0;
    std::size_t pruned = 0;
    std::size_t live = 0;
    std::size_t nonempty = 0;
  };

  /// The one pruning rule every partition-wise scan shares: `empty` (a
  /// selector and an equality route disagree) prunes every partition, a
  /// `partition` pins the scan to that one, otherwise all partitions scan.
  [[nodiscard]] static PartitionRange partition_range(
      const Table& table, std::optional<std::size_t> partition,
      bool empty = false) {
    const std::size_t nparts = table.partition_count();
    PartitionRange range;
    if (empty) {
      range.pruned = nparts;
      return range;
    }
    range.count = nparts;
    if (partition && nparts > 1) {
      range.first = *partition;
      range.count = 1;
      range.pruned = nparts - 1;
    }
    for (std::size_t p = range.first; p < range.first + range.count; ++p) {
      const std::size_t rows_in_partition = table.partition_live_count(p);
      range.live += rows_in_partition;
      if (rows_in_partition > 0) ++range.nonempty;
    }
    return range;
  }

  /// Bumps the pruning counters for a scan over `range`.
  void count_range(const PartitionRange& range) {
    db_.count_partitions_pruned(range.pruned);
    db_.count_partition_scans(range.count);
  }

  /// Collects `column op constant` conjuncts over the given source and
  /// picks an index access path: equality probes win; otherwise range
  /// bounds on an ordered-indexed column. The full WHERE clause is applied
  /// afterwards regardless, so inclusive range bounds are always safe.
  /// Equality conjuncts on the partition column additionally record the
  /// scan's target partition for heap-scan pruning.
  [[nodiscard]] BaseScanPlan plan_base_scan(const Expr* predicate,
                                            const ScanSource& source) {
    BaseScanPlan plan;
    if (source.table == nullptr) return plan;  // derived rows: full scan
    std::map<std::size_t, BaseScanPlan> ranges;  // column -> partial bounds

    const auto constant_of = [&](const Expr& e) -> std::optional<Value> {
      if (e.kind != Expr::Kind::kLiteral && e.kind != Expr::Kind::kParam &&
          e.kind != Expr::Kind::kSubquery) {
        return std::nullopt;
      }
      EvalCtx ctx{nullptr, params_, nullptr, &subquery_values_, nullptr};
      return eval_expr(e, ctx);
    };
    const auto column_of = [&](const Expr& e) -> std::optional<std::size_t> {
      if (e.kind != Expr::Kind::kColumnRef) return std::nullopt;
      if (e.resolved_slot < source.base_slot ||
          e.resolved_slot >= source.base_slot + source.column_count()) {
        return std::nullopt;
      }
      return e.resolved_slot - source.base_slot;
    };

    const auto visit = [&](auto&& self, const Expr* e) -> void {
      if (e == nullptr || plan.kind == BaseScanPlan::Kind::kEquality) return;
      if (e->kind == Expr::Kind::kBinary && e->bin_op == BinOp::kAnd) {
        self(self, e->lhs.get());
        self(self, e->rhs.get());
        return;
      }
      if (e->kind != Expr::Kind::kBinary) return;
      // Normalize to column-op-constant.
      auto column = column_of(*e->lhs);
      auto constant = column ? constant_of(*e->rhs) : std::nullopt;
      BinOp op = e->bin_op;
      if (!column || !constant) {
        column = column_of(*e->rhs);
        constant = column ? constant_of(*e->lhs) : std::nullopt;
        switch (op) {  // mirror the comparison
          case BinOp::kLt: op = BinOp::kGt; break;
          case BinOp::kLe: op = BinOp::kGe; break;
          case BinOp::kGt: op = BinOp::kLt; break;
          case BinOp::kGe: op = BinOp::kLe; break;
          default: break;
        }
      }
      if (!column || !constant || constant->is_null()) return;
      if (op == BinOp::kEq && !plan.partition &&
          source.table->partition_count() > 1 &&
          source.table->partition_column() == *column) {
        plan.partition = source.table->route(*constant);
      }
      const Index* index = source.table->find_index_on(*column);
      if (index == nullptr) return;

      if (op == BinOp::kEq) {
        plan.kind = BaseScanPlan::Kind::kEquality;
        plan.index = index;
        plan.key = *constant;
        return;
      }
      if (index->kind() != Index::Kind::kOrdered) return;
      BaseScanPlan& range = ranges[*column];
      range.kind = BaseScanPlan::Kind::kRange;
      range.index = index;
      if (op == BinOp::kGt || op == BinOp::kGe) {
        if (!range.lo || Value::compare_total(*constant, *range.lo) > 0) {
          range.lo = *constant;
        }
      } else if (op == BinOp::kLt || op == BinOp::kLe) {
        if (!range.hi || Value::compare_total(*constant, *range.hi) < 0) {
          range.hi = *constant;
        }
      }
    };
    visit(visit, predicate);
    if (source.partition && plan.partition &&
        *plan.partition != *source.partition) {
      // The explicit selector and an equality conjunct's routing disagree:
      // the scan is provably empty and touches nothing.
      BaseScanPlan empty;
      empty.empty = true;
      empty.partition = source.partition;
      return empty;
    }
    // One access-path cascade for pinned and unpinned scans alike:
    // equality probe, else the first bounded range, else full scan. A
    // selector then pins whichever path won — index paths stay worth
    // taking (their row ids are filtered by the row-id partition bits), so
    // a shard CTE whose body keeps an indexed equality (the rewritten
    // per-owner aggregates) probes instead of walking its partition heap.
    BaseScanPlan chosen = std::move(plan);
    if (chosen.kind != BaseScanPlan::Kind::kEquality) {
      for (auto& [column, range] : ranges) {
        if (range.lo || range.hi) {
          chosen = std::move(range);
          break;
        }
      }
    }
    if (source.partition) chosen.partition = source.partition;
    return chosen;
  }

  /// Schema snapshot validated on plan reuse (table may have been dropped
  /// and re-created with another layout since the plan was built).
  [[nodiscard]] static std::vector<ValueType> column_type_snapshot(
      const Table& table) {
    std::vector<ValueType> types;
    types.reserve(table.schema().column_count());
    for (const ColumnDef& col : table.schema().columns()) {
      types.push_back(col.type);
    }
    return types;
  }

  /// Compiles `e` into a batch program over the given source's base table.
  /// Params and already-materialized scalar subqueries resolve to their
  /// current values at compile time (re-validated per execution by
  /// bind_constants); anything unresolvable compiles as a NULL-typed slot.
  /// nullptr = the shape falls outside the VM (row-path fallback).
  [[nodiscard]] std::shared_ptr<const sql::ExprProgram> compile_program(
      const Expr& e, const ScanSource& source,
      const std::vector<ValueType>& column_types) const {
    const auto constant_value = [this](const Expr& c) -> std::optional<Value> {
      EvalCtx ctx{nullptr, params_, nullptr, &subquery_values_, nullptr};
      try {
        return eval_expr(c, ctx);
      } catch (const EvalError&) {
        return std::nullopt;  // dry-run analysis (explain): type unknown
      }
    };
    auto program = sql::ExprProgram::compile(
        e, source.base_slot, std::span(column_types), constant_value);
    if (program != nullptr && count_compiles_) {
      db_.count_expr_programs_compiled(1);
    }
    return program;
  }

  /// Binds one program's runtime-constant slots for this execution; no-op
  /// (true) for null programs. False = a param or subquery re-evaluated to a
  /// different type than at compile time, so this execution declines to the
  /// row path.
  [[nodiscard]] bool bind_program(const sql::ExprProgram* program,
                                  sql::ExprProgram::Bound& out,
                                  std::size_t& evals) {
    if (program == nullptr) return true;
    EvalCtx ctx{nullptr, params_, nullptr, &subquery_values_, nullptr};
    auto bound = program->bind_constants(
        [&](const Expr& e) { return eval_expr(e, ctx); });
    if (!bound) return false;
    out = std::move(*bound);
    ++evals;
    return true;
  }

  /// Runs one compiled program over a batch, bumping the VM counters.
  sql::ExprProgram::Result run_program(const sql::ExprProgram& program,
                                       sql::ExprProgram::Scratch& scratch,
                                       const sql::ExprProgram::Bound& bound,
                                       std::span<const Table::ColumnSlice> cols,
                                       const std::uint8_t* demand,
                                       std::size_t begin, std::size_t end) {
    db_.count_expr_vm_batches();
    db_.count_expr_vm_lanes(end - begin);
    return program.run(scratch, bound, cols, demand, begin, end);
  }

  /// Collects run_aggregation's aggregate list (items, HAVING, ORDER BY
  /// order, so finalized values land on the same Expr nodes eval_expr will
  /// look up) as kernel descriptors. Plain base-column arguments (and
  /// COUNT(*)) feed the kernels directly; any other argument is compiled to
  /// a batch program whose output lanes feed the same kernels. False when a
  /// call falls outside both: DISTINCT, an uncompilable argument, or a
  /// numeric-only aggregate (SUM/AVG/STDDEV/VARIANCE) over a non-numeric
  /// input — the row path raises as_double's diagnostic for that one.
  [[nodiscard]] bool collect_kernel_aggregates(
      const ScanSource& base, const std::vector<ValueType>& column_types,
      std::vector<sql::FusedPlan::Aggregate>& out) const {
    std::vector<const Expr*> agg_exprs;
    for (const auto& item : stmt_.items) {
      collect_aggregates(*item.expr, agg_exprs);
    }
    if (stmt_.having) collect_aggregates(*stmt_.having, agg_exprs);
    for (const auto& key : stmt_.order_by) {
      collect_aggregates(*key.expr, agg_exprs);
    }
    for (const Expr* agg : agg_exprs) {
      if (agg->distinct_arg) return false;
      sql::FusedPlan::Aggregate entry;
      entry.expr = agg;
      if (!agg->star_arg) {
        if (agg->args.empty()) return false;
        const Expr& arg = *agg->args[0];
        const bool numeric_only = agg->func == "SUM" || agg->func == "AVG" ||
                                  agg->func == "STDDEV" ||
                                  agg->func == "VARIANCE";
        if (arg.kind == Expr::Kind::kColumnRef &&
            arg.resolved_slot >= base.base_slot &&
            arg.resolved_slot < base.base_slot + column_types.size()) {
          entry.column = arg.resolved_slot - base.base_slot;
          const ValueType type = column_types[entry.column];
          if (numeric_only && type != ValueType::kInt &&
              type != ValueType::kDouble) {
            return false;
          }
        } else {
          entry.program = compile_program(arg, base, column_types);
          if (entry.program == nullptr) return false;
          const ValueType type = entry.program->result_type();
          // An all-NULL program result is fine for any kernel: no lane is
          // ever valid, so the aggregate sees the empty input.
          if (numeric_only && type != ValueType::kInt &&
              type != ValueType::kDouble && type != ValueType::kNull) {
            return false;
          }
        }
      }
      out.push_back(entry);
    }
    return true;
  }

  /// True when every bare (non-aggregate-argument) node of `e` has a
  /// per-group value on the grouped vectorized path: aggregate calls take
  /// their finalized values, nodes structurally equal to a compiled GROUP BY
  /// key expression take that key's value (recorded in plan.key_refs for
  /// EvalCtx pinning), and plain column refs must be plain-column GROUP BY
  /// keys (the synthesized representative row carries those). `key_strs`
  /// holds each program key's structural key (empty for column keys).
  [[nodiscard]] bool grouped_refs_covered(
      const Expr& e, const ScanSource& base, sql::FusedPlan& plan,
      const std::vector<sql::StructuralKey>& key_strs) const {
    if (e.kind == Expr::Kind::kFuncCall && Binder::is_aggregate_name(e.func)) {
      return true;  // argument columns feed the kernels, not the output row
    }
    sql::StructuralKey rendered;
    for (std::size_t k = 0; k < key_strs.size(); ++k) {
      if (key_strs[k].text.empty()) continue;
      if (rendered.text.empty()) sql::append_key(e, rendered);
      if (rendered == key_strs[k]) {
        plan.key_refs.emplace_back(&e, k);
        return true;
      }
    }
    if (e.kind == Expr::Kind::kColumnRef) {
      if (e.resolved_slot < base.base_slot) return false;
      const std::size_t column = e.resolved_slot - base.base_slot;
      for (const auto& key : plan.group_keys) {
        if (key.program == nullptr && key.column == column) return true;
      }
      return false;
    }
    if (e.lhs && !grouped_refs_covered(*e.lhs, base, plan, key_strs)) {
      return false;
    }
    if (e.rhs && !grouped_refs_covered(*e.rhs, base, plan, key_strs)) {
      return false;
    }
    for (const auto& arg : e.args) {
      if (!grouped_refs_covered(*arg, base, plan, key_strs)) return false;
    }
    return true;
  }

  /// Structural analysis for the columnar evaluator over `base`, the node's
  /// one columnar base table (single_columnar_base). Eligible shape: every
  /// GROUP BY expression (none for a global aggregate) a plain base column
  /// reference or a VM-compilable key expression, every aggregate a supported
  /// non-DISTINCT call over a plain base column, COUNT(*), or a
  /// VM-compilable argument (a keyed statement may have none — pure key
  /// deduplication), every bare column reference outside aggregate
  /// arguments covered per grouped_refs_covered (a global aggregate has no
  /// representative row, so it admits none), and a WHERE clause the VM
  /// compiles to one boolean program. Returns null when the statement
  /// doesn't fit.
  [[nodiscard]] std::unique_ptr<const sql::FusedPlan> analyze_aggregate(
      const ScanSource& base) const {
    auto plan = std::make_unique<sql::FusedPlan>();
    plan->column_types = column_type_snapshot(*base.table);

    std::vector<sql::StructuralKey> key_strs;  // empty for column keys
    for (const auto& g : stmt_.group_by) {
      sql::FusedPlan::GroupKey key;
      key_strs.emplace_back();
      if (g->kind == Expr::Kind::kColumnRef &&
          g->resolved_slot >= base.base_slot &&
          g->resolved_slot < base.base_slot + plan->column_types.size()) {
        key.column = g->resolved_slot - base.base_slot;
      } else {
        key.program = compile_program(*g, base, plan->column_types);
        if (key.program == nullptr) return nullptr;
        sql::append_key(*g, key_strs.back());
      }
      plan->group_keys.push_back(std::move(key));
    }

    if (!collect_kernel_aggregates(base, plan->column_types,
                                   plan->aggregates)) {
      return nullptr;
    }
    for (const auto& item : stmt_.items) {
      if (!grouped_refs_covered(*item.expr, base, *plan, key_strs)) {
        return nullptr;
      }
    }
    if (stmt_.having &&
        !grouped_refs_covered(*stmt_.having, base, *plan, key_strs)) {
      return nullptr;
    }
    for (const auto& key : stmt_.order_by) {
      if (key.expr->kind != Expr::Kind::kAliasRef &&
          !grouped_refs_covered(*key.expr, base, *plan, key_strs)) {
        return nullptr;
      }
    }

    if (stmt_.where) {
      plan->where_program =
          compile_program(*stmt_.where, base, plan->column_types);
      if (plan->where_program == nullptr) return nullptr;
      const ValueType type = plan->where_program->result_type();
      if (type != ValueType::kBool && type != ValueType::kNull) return nullptr;
    }
    return plan;
  }

  /// Entry point of the columnar evaluator: returns the (output row, order
  /// keys) pairs the scan + WHERE + run_aggregation pipeline would have
  /// produced, or nullopt to fall back to it. The structural verdict is the
  /// node plan's (`reused` when an earlier execution analyzed it);
  /// everything value-dependent is re-derived here per execution.
  std::optional<std::vector<std::pair<Row, Row>>> try_vectorized_aggregation(
      const sql::FusedPlan& plan, bool reused) {
    const ScanSource& base = sources_[0];
    const Table& table = *base.table;

    // Index probes beat a columnar partition walk when the planner found
    // one; the columnar evaluator only replaces full scans.
    const BaseScanPlan scan = plan_base_scan(stmt_.where.get(), base);
    if (scan.kind != BaseScanPlan::Kind::kFullScan) return std::nullopt;

    // Every program re-binds its runtime-constant slots per execution
    // (parameters and subquery results change run to run); a type drift
    // since compilation declines this execution to the row path, which
    // raises the interpreter's usual diagnostics.
    std::size_t program_evals = 0;
    sql::ExprProgram::Bound where_bound;
    if (!bind_program(plan.where_program.get(), where_bound, program_evals)) {
      return std::nullopt;
    }
    std::vector<sql::ExprProgram::Bound> key_bounds(plan.group_keys.size());
    for (std::size_t k = 0; k < plan.group_keys.size(); ++k) {
      if (!bind_program(plan.group_keys[k].program.get(), key_bounds[k],
                        program_evals)) {
        return std::nullopt;
      }
    }
    std::vector<sql::ExprProgram::Bound> agg_bounds(plan.aggregates.size());
    for (std::size_t a = 0; a < plan.aggregates.size(); ++a) {
      if (!bind_program(plan.aggregates[a].program.get(), agg_bounds[a],
                        program_evals)) {
        return std::nullopt;
      }
    }
    if (program_evals > 0) db_.count_expr_program_evals(program_evals);

    if (reused) db_.count_fused_plan_evals();
    return run_columnar_grouped(table, plan, where_bound, key_bounds,
                                agg_bounds, scan);
  }

  /// Scan-pool workers for a partition-wise pass over `range`: the
  /// configured thread count (0 = pool size), capped by the partitions that
  /// actually hold rows — a range of mostly empty partitions (skewed
  /// routing, heavy deletes) would otherwise pay pool dispatch for workers
  /// that find nothing to do. 1 (serial) below the configured row threshold
  /// and for executions already on a scan-pool worker (parallel CTE
  /// bodies): blocking on the pool from inside it can deadlock the pool.
  [[nodiscard]] std::size_t scan_workers(const PartitionRange& range) const {
    const Database::ScanConfig& config = db_.scan_config();
    if (env_->on_pool || range.live < config.min_parallel_rows) return 1;
    return std::min(config.threads == 0 ? scan_pool().size() : config.threads,
                    range.nonempty);
  }

  /// Selection bitmaps for the partitions of `range`: one bitmap per
  /// partition, seeded from the live bits (tombstones never select) and
  /// narrowed batch-at-a-time by the compiled WHERE program's boolean lanes
  /// (NULL-as-false; the live-seeded bitmap doubles as the program's demand
  /// mask, so `/`, `%` and SQRT raise exactly where the row path would have
  /// evaluated them). The filter stage fans out across the scan pool under
  /// the same gate as run_heap_scan; each worker owns a VM scratch.
  std::vector<std::vector<std::uint8_t>> build_selection_bitmaps(
      const Table& table, const sql::FusedPlan& plan,
      const sql::ExprProgram::Bound& where_bound, const PartitionRange& range) {
    const sql::ExprProgram* where_program = plan.where_program.get();
    std::vector<std::vector<std::uint8_t>> sels(range.count);
    const auto filter_partition = [&](std::size_t index,
                                      sql::ExprProgram::Scratch& scratch) {
      const std::size_t p = range.first + index;
      const std::size_t lanes = table.partition_heap_size(p);
      std::vector<std::uint8_t>& sel = sels[index];
      const std::uint8_t* live_bits = table.live_bits(p);
      sel.assign(live_bits, live_bits + lanes);
      if (lanes == 0 || where_program == nullptr) return;
      std::vector<Table::ColumnSlice> columns(plan.column_types.size());
      for (const std::size_t c : where_program->used_columns()) {
        columns[c] = table.column_slice(p, c);
      }
      for (std::size_t b = 0; b < lanes; b += kVectorBatch) {
        const std::size_t e = std::min(lanes, b + kVectorBatch);
        const sql::ExprProgram::Result res = run_program(
            *where_program, scratch, where_bound, columns, sel.data(), b, e);
        // Result lanes are batch-relative; undemanded lanes hold
        // unspecified values, so AND through the incoming bitmap.
        for (std::size_t i = b; i < e; ++i) {
          sel[i] &= static_cast<std::uint8_t>((res.valid[i - b] != 0) &
                                              (res.ints[i - b] != 0));
        }
      }
    };

    if (const std::size_t workers = scan_workers(range); workers > 1) {
      pool_for_each(workers, range.count, filter_partition);
      db_.count_parallel_scan_batches();
    } else {
      sql::ExprProgram::Scratch scratch;
      for (std::size_t i = 0; i < range.count; ++i) {
        filter_partition(i, scratch);
      }
    }
    return sels;
  }

  /// The columnar evaluator proper: selection bitmaps, then a hash group
  /// table keyed on the GROUP BY lanes, with per-group aggregate state fed
  /// by the batch kernels. Group ids are assigned in first-seen (heap)
  /// order and accumulation stays serial in partition order, so every
  /// per-group push sequence is exactly the row path's subsequence; output
  /// replays run_aggregation's std::map order by sorting the groups with
  /// the same key comparator. A global aggregate (zero keys) builds no hash
  /// index and sorts nothing: its one group exists up front, so an empty
  /// input still yields one row.
  std::vector<std::pair<Row, Row>> run_columnar_grouped(
      const Table& table, const sql::FusedPlan& plan,
      const sql::ExprProgram::Bound& where_bound,
      const std::vector<sql::ExprProgram::Bound>& key_bounds,
      const std::vector<sql::ExprProgram::Bound>& agg_bounds,
      const BaseScanPlan& scan) {
    const PartitionRange range =
        partition_range(table, scan.partition, scan.empty);
    count_range(range);
    db_.count_columnar_scans(range.count);
    const std::size_t naggs = plan.aggregates.size();
    const std::size_t nkeys = plan.group_keys.size();
    if (nkeys > 0) db_.count_grouped_vector_evals();

    std::vector<std::vector<std::uint8_t>> sels =
        build_selection_bitmaps(table, plan, where_bound, range);

    std::vector<AggKernel> kernels(naggs);
    std::vector<sql::ExprProgram::Scratch> agg_scratches(naggs);
    bool any_program = false;
    for (std::size_t a = 0; a < naggs; ++a) {
      kernels[a] = agg_kernel_of(*plan.aggregates[a].expr);
      any_program |= plan.aggregates[a].program != nullptr;
    }
    // Per-key lane type and per-batch access: a plain-column key reads its
    // partition slice directly (offset 0); a compiled key's result lanes
    // are batch-relative, so the slice is refreshed per batch with the
    // batch start as offset.
    std::vector<ValueType> key_types(nkeys);
    std::vector<sql::ExprProgram::Scratch> key_scratches(nkeys);
    for (std::size_t k = 0; k < nkeys; ++k) {
      const auto& key = plan.group_keys[k];
      key_types[k] = key.program != nullptr
                         ? key.program->result_type()
                         : plan.column_types[key.column];
      any_program |= key.program != nullptr;
    }

    // Group table: keys[gid] is the materialized GROUP BY tuple, the index
    // maps key hash → candidate gids, and aggregate state is column-major
    // per aggregate so accumulate_grouped_batch indexes states[gid]
    // directly. A global aggregate's one group (gid 0) exists up front and
    // every selected lane keeps gid 0 — no hash index is ever consulted.
    std::vector<Row> keys;
    std::unordered_multimap<std::size_t, std::uint32_t> group_index;
    std::vector<std::vector<AggState>> states(naggs);
    std::vector<std::vector<MinMaxAcc>> minmax(naggs);

    const auto new_group = [&](Row key) {
      const auto gid = static_cast<std::uint32_t>(keys.size());
      keys.push_back(std::move(key));
      for (std::size_t a = 0; a < naggs; ++a) {
        states[a].emplace_back();
        minmax[a].emplace_back();
      }
      return gid;
    };
    if (nkeys == 0) new_group(Row{});
    const auto accumulate = nkeys > 0 ? accumulate_grouped_batch<true>
                                      : accumulate_grouped_batch<false>;

    std::uint64_t batches = 0;
    std::size_t selected = 0;
    std::vector<std::uint32_t> gids;
    for (std::size_t index = 0; index < range.count; ++index) {
      const std::size_t p = range.first + index;
      const std::size_t lanes = table.partition_heap_size(p);
      if (lanes == 0) continue;
      const std::uint8_t* sel = sels[index].data();
      // key_access[k] is the lane view the hash reads: partition-absolute
      // for plain columns, batch-relative (offset = batch start) for
      // compiled keys — group_of subtracts the offset per key.
      struct KeyAccess {
        Table::ColumnSlice slice;
        std::size_t offset = 0;
      };
      std::vector<KeyAccess> key_access(nkeys);
      for (std::size_t k = 0; k < nkeys; ++k) {
        if (plan.group_keys[k].program == nullptr) {
          key_access[k].slice = table.column_slice(p, plan.group_keys[k].column);
        }
      }
      std::vector<Table::ColumnSlice> agg_slices(naggs);
      for (std::size_t a = 0; a < naggs; ++a) {
        if (plan.aggregates[a].column != static_cast<std::size_t>(-1)) {
          agg_slices[a] = table.column_slice(p, plan.aggregates[a].column);
        }
      }
      std::vector<Table::ColumnSlice> columns;
      if (any_program) {
        columns.resize(plan.column_types.size());
        const auto load_used = [&](const sql::ExprProgram* program) {
          if (program == nullptr) return;
          for (const std::size_t c : program->used_columns()) {
            columns[c] = table.column_slice(p, c);
          }
        };
        for (std::size_t k = 0; k < nkeys; ++k) {
          load_used(plan.group_keys[k].program.get());
        }
        for (std::size_t a = 0; a < naggs; ++a) {
          load_used(plan.aggregates[a].program.get());
        }
      }
      const auto group_of = [&](std::size_t lane) -> std::uint32_t {
        std::size_t h = 1469598103934665603ULL;  // FNV-1a offset basis
        for (std::size_t k = 0; k < nkeys; ++k) {
          h = (h * 1099511628211ULL) ^
              group_lane_hash(key_types[k], key_access[k].slice,
                              lane - key_access[k].offset);
        }
        const auto [lo, hi] = group_index.equal_range(h);
        for (auto it = lo; it != hi; ++it) {
          const Row& key = keys[it->second];
          bool match = true;
          for (std::size_t k = 0; k < nkeys && match; ++k) {
            match = group_lane_equals(key_types[k], key_access[k].slice,
                                      lane - key_access[k].offset, key[k]);
          }
          if (match) return it->second;
        }
        Row key;
        key.reserve(nkeys);
        for (std::size_t k = 0; k < nkeys; ++k) {
          key.push_back(group_lane_value(key_types[k], key_access[k].slice,
                                         lane - key_access[k].offset));
        }
        const std::uint32_t gid = new_group(std::move(key));
        group_index.emplace(h, gid);
        return gid;
      };
      gids.assign(lanes, 0);
      for (std::size_t b = 0; b < lanes; b += kVectorBatch) {
        const std::size_t e = std::min(lanes, b + kVectorBatch);
        for (std::size_t k = 0; k < nkeys; ++k) {
          const auto& key = plan.group_keys[k];
          if (key.program == nullptr) continue;
          const sql::ExprProgram::Result res = run_program(
              *key.program, key_scratches[k], key_bounds[k], columns, sel, b, e);
          key_access[k].slice = res.as_slice(e - b);
          key_access[k].offset = b;
        }
        if (nkeys == 0) {
          for (std::size_t i = b; i < e; ++i) selected += sel[i];
        } else {
          for (std::size_t i = b; i < e; ++i) {
            if (sel[i] == 0) continue;
            ++selected;
            gids[i] = group_of(i);
          }
        }
        for (std::size_t a = 0; a < naggs; ++a) {
          const auto& agg = plan.aggregates[a];
          if (agg.program != nullptr) {
            const sql::ExprProgram::Result res =
                run_program(*agg.program, agg_scratches[a], agg_bounds[a],
                            columns, sel, b, e);
            accumulate(kernels[a], res.type, res.as_slice(e - b), 0, e - b,
                       sel + b, gids.data() + b, states[a], minmax[a]);
            continue;
          }
          const std::size_t column = agg.column;
          accumulate(kernels[a],
                     column == static_cast<std::size_t>(-1)
                         ? ValueType::kNull
                         : plan.column_types[column],
                     agg_slices[a], b, e, sel, gids.data(), states[a],
                     minmax[a]);
        }
        ++batches;
      }
    }
    db_.count_vectorized_batches(batches);
    db_.count_rows_skipped_by_bitmap(range.live - selected);
    if (nkeys > 0) db_.count_groups_built(keys.size());

    for (std::size_t a = 0; a < naggs; ++a) {
      if (kernels[a] != AggKernel::kMinMax) continue;
      const ValueType type =
          plan.aggregates[a].program != nullptr
              ? plan.aggregates[a].program->result_type()
              : plan.column_types[plan.aggregates[a].column];
      for (std::size_t g = 0; g < keys.size(); ++g) {
        if (states[a][g].count == 0) continue;
        states[a][g].min_value =
            minmax_value(type, minmax[a][g], /*max_side=*/false);
        states[a][g].max_value =
            minmax_value(type, minmax[a][g], /*max_side=*/true);
        states[a][g].has_minmax = true;
      }
    }

    // run_aggregation's std::map iterates groups in ascending key order;
    // replay that by sorting the group ids with the same lexicographic
    // comparator (a global aggregate's one group needs no order).
    std::vector<std::uint32_t> order(keys.size());
    for (std::size_t g = 0; g < order.size(); ++g) {
      order[g] = static_cast<std::uint32_t>(g);
    }
    if (nkeys > 0) {
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const Row& x = keys[a];
                  const Row& y = keys[b];
                  for (std::size_t i = 0; i < x.size(); ++i) {
                    const int c = Value::compare_total(x[i], y[i]);
                    if (c != 0) return c < 0;
                  }
                  return false;
                });
    }
    std::vector<std::pair<Row, Row>> out;
    out.reserve(order.size());
    for (const std::uint32_t g : order) {
      std::unordered_map<const Expr*, Value> agg_values;
      for (std::size_t a = 0; a < naggs; ++a) {
        agg_values[plan.aggregates[a].expr] =
            agg_finalize(*plan.aggregates[a].expr, states[a][g]);
      }
      // Bare refs were proven covered at analysis time: plain-column keys
      // ride the synthesized representative row, compiled keys pin their
      // per-group values onto the nodes key_refs recorded.
      Row rep(plan.column_types.size(), Value::null());
      for (std::size_t k = 0; k < nkeys; ++k) {
        if (plan.group_keys[k].program == nullptr) {
          rep[plan.group_keys[k].column] = keys[g][k];
        }
      }
      std::unordered_map<const Expr*, Value> pinned;
      for (const auto& [node, k] : plan.key_refs) pinned[node] = keys[g][k];
      EvalCtx ctx{&rep, params_, &agg_values, &subquery_values_, nullptr,
                  plan.key_refs.empty() ? nullptr : &pinned};
      if (stmt_.having && !eval_predicate(*stmt_.having, ctx)) continue;
      Row output;
      output.reserve(stmt_.items.size());
      for (const auto& item : stmt_.items) {
        output.push_back(eval_expr(*item.expr, ctx));
      }
      Row ord = eval_order_keys(ctx, output);
      out.emplace_back(std::move(output), std::move(ord));
    }
    return out;
  }

  /// Heap scan of a base table: every partition the plan did not prune, in
  /// partition order, heap order within each. Single-table statements fold
  /// the WHERE clause into the scan itself (the hot path stops producing
  /// rows a later pass would discard), and multi-partition scans above the
  /// configured row threshold fan out across the scan pool — each worker
  /// owns whole partitions, buckets merge in partition order, so the
  /// parallel row stream is byte-identical to the serial one.
  std::vector<Row> run_heap_scan(const Table& table, const BaseScanPlan& plan) {
    const PartitionRange range =
        partition_range(table, plan.partition, plan.empty);
    count_range(range);
    const Expr* filter =
        stmt_.joins.empty() && stmt_.where ? stmt_.where.get() : nullptr;
    where_applied_ = filter != nullptr;
    const auto scan_partition = [&](std::size_t p, std::vector<Row>& out) {
      table.for_each_live_row_in(p, [&](std::size_t, const Row& row) {
        if (filter != nullptr) {
          EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
          if (!eval_predicate(*filter, ctx)) return;
        }
        out.push_back(row);
      });
    };

    std::vector<Row> rows;
    if (const std::size_t workers = scan_workers(range); workers > 1) {
      std::vector<std::vector<Row>> buckets(range.count);
      pool_for_each(workers, range.count,
                    [&](std::size_t i, sql::ExprProgram::Scratch&) {
                      scan_partition(range.first + i, buckets[i]);
                    });
      db_.count_parallel_scan_batches();
      std::size_t total = 0;
      for (const std::vector<Row>& bucket : buckets) total += bucket.size();
      rows.reserve(total);
      for (std::vector<Row>& bucket : buckets) {
        for (Row& row : bucket) rows.push_back(std::move(row));
      }
    } else {
      rows.reserve(range.live);
      for (std::size_t p = range.first; p < range.first + range.count; ++p) {
        scan_partition(p, rows);
      }
    }
    return rows;
  }

  /// Finds an equi-join conjunct between earlier slots and the new table;
  /// returns (outer slot, inner column within new table).
  [[nodiscard]] static std::optional<std::pair<std::size_t, std::size_t>>
  equi_join_key(const Expr* on, const ScanSource& inner) {
    if (on == nullptr) return std::nullopt;
    if (on->kind == Expr::Kind::kBinary && on->bin_op == BinOp::kAnd) {
      if (auto lhs = equi_join_key(on->lhs.get(), inner)) return lhs;
      return equi_join_key(on->rhs.get(), inner);
    }
    if (on->kind != Expr::Kind::kBinary || on->bin_op != BinOp::kEq) {
      return std::nullopt;
    }
    const Expr& a = *on->lhs;
    const Expr& b = *on->rhs;
    if (a.kind != Expr::Kind::kColumnRef || b.kind != Expr::Kind::kColumnRef) {
      return std::nullopt;
    }
    const std::size_t inner_begin = inner.base_slot;
    const std::size_t inner_end = inner.base_slot + inner.column_count();
    const bool a_inner = a.resolved_slot >= inner_begin && a.resolved_slot < inner_end;
    const bool b_inner = b.resolved_slot >= inner_begin && b.resolved_slot < inner_end;
    if (a_inner == b_inner) return std::nullopt;
    if (b_inner) return std::make_pair(a.resolved_slot, b.resolved_slot - inner_begin);
    return std::make_pair(b.resolved_slot, a.resolved_slot - inner_begin);
  }

  /// The columnar hash join's one build/probe/assemble path, over the key
  /// lanes of both sides — zero-copy column slices for plain-column keys,
  /// VM output lanes for computed ones. Builds from the smaller side (ties
  /// build from the inner source, the row hash join's only choice), probes
  /// with the other, and assembles rows only for surviving lane pairs, each
  /// re-filtered by the whole ON clause. Emission is outer-scan-major with
  /// inner-scan order within each outer row — byte-identical to the row
  /// hash join.
  std::vector<Row> hash_join_rows(
      JoinKeyKind kind, const ScanSource& base,
      const std::vector<Table::KeySlice>& outer_slices, std::size_t outer_live,
      const ScanSource& inner, const std::vector<Table::KeySlice>& inner_slices,
      std::size_t inner_live, const sql::Join& join) {
    const bool build_is_outer = outer_live < inner_live;
    const std::vector<Table::KeySlice>& build =
        build_is_outer ? outer_slices : inner_slices;
    const std::vector<Table::KeySlice>& probe =
        build_is_outer ? inner_slices : outer_slices;

    std::uint64_t probed = 0;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    switch (kind) {
      case JoinKeyKind::kNumeric:
        // Ints compare through double (the compare_total class) and ±0.0
        // collapses so hash equality matches value equality.
        pairs = columnar_join_pairs<double>(
            build, probe, build_is_outer, probed,
            [](const Table::ColumnSlice& s, std::size_t i) {
              const double d = s.ints != nullptr
                                   ? static_cast<double>(s.ints[i])
                                   : s.reals[i];
              return d == 0.0 ? 0.0 : d;
            });
        break;
      case JoinKeyKind::kBool:
      case JoinKeyKind::kDateTime:
        pairs = columnar_join_pairs<std::int64_t>(
            build, probe, build_is_outer, probed,
            [](const Table::ColumnSlice& s, std::size_t i) {
              return s.ints[i];
            });
        break;
      case JoinKeyKind::kString:
        // Views into the key lanes: stable for this call (DDL/DML never
        // interleaves with an executing SELECT, and computed lanes outlive
        // the join).
        pairs = columnar_join_pairs<std::string_view>(
            build, probe, build_is_outer, probed,
            [](const Table::ColumnSlice& s, std::size_t i) {
              return std::string_view(s.strs[i]);
            });
        break;
    }
    db_.count_hash_join_builds();
    db_.count_join_lanes_probed(probed);

    // Build-from-inner already emits outer-major (probe order) with
    // insertion (= inner scan) order per key. Build-from-outer emits
    // probe-major; row-id numeric order is scan order, so one sort
    // restores the row path's emission order.
    if (build_is_outer) std::sort(pairs.begin(), pairs.end());

    std::vector<Row> joined;
    joined.reserve(pairs.size());
    for (const auto& [outer_id, inner_id] : pairs) {
      Row combined = base.table->row(outer_id);
      const Row& inner_row = inner.table->row(inner_id);
      combined.insert(combined.end(), inner_row.begin(), inner_row.end());
      EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
      if (!join.on || eval_predicate(*join.on, ctx)) {
        joined.push_back(std::move(combined));
      }
    }
    return joined;
  }

  /// Expression-key extension of the columnar hash join (the VM's join
  /// satellite): when the whole ON clause is a single `expr = expr`
  /// equality whose sides each compile over exactly one table, both sides'
  /// key lanes are materialized by the batch VM into owned buffers and
  /// hash_join_rows consumes them like column slices. Plain-column keys
  /// never arrive here — equi_join_key handles those, AND trees included.
  /// Declines (nullopt, row-path nested loop) when a side doesn't compile,
  /// the key types have no kernel, a bind re-types a constant, or a live
  /// double key lane holds NaN (compare_sql treats NaN as equal to
  /// everything; a hash probe can't reproduce that).
  std::optional<std::vector<Row>> try_expr_key_join(const ScanSource& base,
                                                    const ScanSource& inner,
                                                    const sql::Join& join,
                                                    const BaseScanPlan& plan) {
    if (join.on == nullptr || join.on->kind != Expr::Kind::kBinary ||
        join.on->bin_op != BinOp::kEq) {
      return std::nullopt;
    }
    const std::vector<ValueType> outer_types =
        column_type_snapshot(*base.table);
    const std::vector<ValueType> inner_types =
        column_type_snapshot(*inner.table);
    // Side assignment falls out of compilation: a program declines any
    // column slot outside its own table's range. Try lhs-over-outer /
    // rhs-over-inner, then the mirrored pairing.
    auto outer_prog = compile_program(*join.on->lhs, base, outer_types);
    auto inner_prog = outer_prog != nullptr
                          ? compile_program(*join.on->rhs, inner, inner_types)
                          : nullptr;
    if (inner_prog == nullptr) {
      outer_prog = compile_program(*join.on->rhs, base, outer_types);
      inner_prog = outer_prog != nullptr
                       ? compile_program(*join.on->lhs, inner, inner_types)
                       : nullptr;
    }
    if (inner_prog == nullptr) return std::nullopt;
    const auto kind =
        join_key_kind(outer_prog->result_type(), inner_prog->result_type());
    if (!kind) return std::nullopt;

    std::size_t program_evals = 0;
    sql::ExprProgram::Bound outer_bound;
    sql::ExprProgram::Bound inner_bound;
    if (!bind_program(outer_prog.get(), outer_bound, program_evals) ||
        !bind_program(inner_prog.get(), inner_bound, program_evals)) {
      return std::nullopt;
    }

    // Outer-side pruning, mirroring the plain-column path.
    const PartitionRange outer =
        partition_range(*base.table, plan.partition, plan.empty);
    if (plan.empty) {
      count_range(outer);
      return std::vector<Row>{};
    }
    const PartitionRange inner_range =
        partition_range(*inner.table, inner.partition);
    if (outer.live == 0 || inner_range.live == 0) {
      // The row path's nested loop never evaluates ON over an empty cross
      // product; skip the programs so key-expression errors match.
      count_range(outer);
      db_.count_columnar_scans(outer.count + inner_range.count);
      return std::vector<Row>{};
    }

    /// One partition's VM-computed key lanes, owned (the Scratch buffers
    /// are reused across batches) and exposed as a Table::KeySlice.
    struct KeyLanes {
      std::vector<std::int64_t> ints;
      std::vector<double> reals;
      std::vector<std::string> strs;
      std::vector<std::uint8_t> valid;
    };
    // Materializes one side's key lanes with the live bitmap as the demand
    // mask (a dead lane's key is never read — usable() filters by live).
    // False: a live valid double key lane holds NaN, decline the join.
    const auto materialize =
        [this](const Table& table, const sql::ExprProgram& program,
               const sql::ExprProgram::Bound& bound,
               const PartitionRange& range, std::vector<KeyLanes>& owned,
               std::vector<Table::KeySlice>& slices) -> bool {
      const ValueType type = program.result_type();
      sql::ExprProgram::Scratch scratch;
      std::vector<Table::ColumnSlice> columns(table.schema().column_count());
      owned.resize(range.count);
      slices.resize(range.count);
      for (std::size_t index = 0; index < range.count; ++index) {
        const std::size_t p = range.first + index;
        const std::size_t lanes = table.partition_heap_size(p);
        KeyLanes& dst = owned[index];
        Table::KeySlice& ks = slices[index];
        dst.valid.resize(lanes);
        ks.column.size = lanes;
        ks.column.valid = dst.valid.data();
        ks.live = table.live_bits(p);
        ks.partition = p;
        if (type == ValueType::kString) {
          dst.strs.resize(lanes);
          ks.column.strs = dst.strs.data();
        } else if (type == ValueType::kDouble) {
          dst.reals.resize(lanes);
          ks.column.reals = dst.reals.data();
        } else {
          dst.ints.resize(lanes);
          ks.column.ints = dst.ints.data();
        }
        if (lanes == 0) continue;
        for (const std::size_t c : program.used_columns()) {
          columns[c] = table.column_slice(p, c);
        }
        for (std::size_t b = 0; b < lanes; b += kVectorBatch) {
          const std::size_t e = std::min(lanes, b + kVectorBatch);
          const auto res =
              run_program(program, scratch, bound, columns, ks.live, b, e);
          for (std::size_t i = b; i < e; ++i) {
            dst.valid[i] = res.valid[i - b];
          }
          if (type == ValueType::kString) {
            for (std::size_t i = b; i < e; ++i) dst.strs[i] = res.strs[i - b];
          } else if (type == ValueType::kDouble) {
            for (std::size_t i = b; i < e; ++i) {
              dst.reals[i] = res.reals[i - b];
              if (ks.live[i] && dst.valid[i] && std::isnan(dst.reals[i])) {
                return false;
              }
            }
          } else {
            for (std::size_t i = b; i < e; ++i) dst.ints[i] = res.ints[i - b];
          }
        }
      }
      return true;
    };

    std::vector<KeyLanes> outer_lanes;
    std::vector<KeyLanes> inner_lanes;
    std::vector<Table::KeySlice> outer_slices;
    std::vector<Table::KeySlice> inner_slices;
    if (!materialize(*base.table, *outer_prog, outer_bound, outer, outer_lanes,
                     outer_slices) ||
        !materialize(*inner.table, *inner_prog, inner_bound, inner_range,
                     inner_lanes, inner_slices)) {
      return std::nullopt;  // NaN key: the nested loop matches it, we can't
    }
    // Committed to the columnar path — count only now, so a NaN decline
    // leaves the row path's counters untouched.
    if (program_evals > 0) db_.count_expr_program_evals(program_evals);
    count_range(outer);
    db_.count_columnar_scans(outer.count + inner_range.count);
    return hash_join_rows(*kind, base, outer_slices, outer.live, inner,
                          inner_slices, inner_range.live, join);
  }

  /// Columnar hash equi-join over the base table and the first join: the
  /// key column slices of both sides (tombstoned and NULL lanes never enter
  /// — a NULL key can't satisfy the ON equality) feed hash_join_rows
  /// zero-copy. Returns nullopt to fall back when either side isn't
  /// columnar, the ON clause has no equality conjunct on a base column
  /// (try_expr_key_join then gets a shot at a computed key), the key types
  /// have no kernel, or an inner index makes the indexed nested loop
  /// cheaper.
  std::optional<std::vector<Row>> try_columnar_hash_join(
      const ScanSource& base, const BaseScanPlan& plan) {
    if (base.table == nullptr || !base.table->columnar()) return std::nullopt;
    const sql::Join& join = stmt_.joins[0];
    const ScanSource& inner = sources_[1];
    if (inner.table == nullptr || !inner.table->columnar()) {
      return std::nullopt;
    }
    const auto key = equi_join_key(join.on.get(), inner);
    if (!key) return try_expr_key_join(base, inner, join, plan);
    if (key->first >= base.column_count()) return std::nullopt;
    if (inner.table->find_index_on(key->second) != nullptr) {
      return std::nullopt;  // the indexed nested loop wins
    }
    const auto kind =
        join_key_kind(base.table->schema().column(key->first).type,
                      inner.table->schema().column(key->second).type);
    if (!kind) return std::nullopt;

    // Outer-side pruning, mirroring run_heap_scan.
    const PartitionRange outer =
        partition_range(*base.table, plan.partition, plan.empty);
    count_range(outer);
    if (plan.empty) return std::vector<Row>{};
    const PartitionRange inner_range =
        partition_range(*inner.table, inner.partition);
    db_.count_columnar_scans(outer.count + inner_range.count);

    const auto key_slices = [](const Table& table, const PartitionRange& range,
                               std::size_t column) {
      std::vector<Table::KeySlice> slices;
      slices.reserve(range.count);
      for (std::size_t p = range.first; p < range.first + range.count; ++p) {
        slices.push_back(table.key_slice(p, column));
      }
      return slices;
    };
    return hash_join_rows(*kind, base,
                          key_slices(*base.table, outer, key->first),
                          outer.live, inner,
                          key_slices(*inner.table, inner_range, key->second),
                          inner_range.live, join);
  }

  std::vector<Row> scan_and_join() {
    std::vector<Row> rows;
    if (!stmt_.from) {
      rows.emplace_back();  // one empty row: SELECT 1+1
      return rows;
    }

    // Base scan, optionally via index (equality probe or ordered range);
    // derived (CTE) sources have no indexes and copy their rows directly.
    // When both sides of the first join are columnar and the ON clause has
    // an equality conjunct, the columnar hash join consumes the base scan
    // and the first join together (first_join skips it below).
    const ScanSource& base = sources_[0];
    std::size_t first_join = 0;
    bool base_scanned = false;
    if (base.derived != nullptr) {
      rows = base.derived->rows;
      base_scanned = true;
    } else {
      const BaseScanPlan plan = plan_base_scan(stmt_.where.get(), base);
      if (plan.kind == BaseScanPlan::Kind::kFullScan && !stmt_.joins.empty()) {
        if (auto joined = try_columnar_hash_join(base, plan)) {
          rows = std::move(*joined);
          base_scanned = true;
          first_join = 1;
        }
      }
      if (!base_scanned) {
        switch (plan.kind) {
          case BaseScanPlan::Kind::kEquality:
          case BaseScanPlan::Kind::kRange: {
            const std::vector<std::size_t> base_row_ids =
                plan.kind == BaseScanPlan::Kind::kEquality
                    ? plan.index->equal_range(plan.key)
                    : plan.index->range_open(plan.lo ? &*plan.lo : nullptr,
                                             plan.hi ? &*plan.hi : nullptr);
            rows.reserve(base_row_ids.size());
            for (const std::size_t id : base_row_ids) {
              if (!base.table->is_live(id)) continue;
              // A PARTITION (k) selector keeps the probe but drops foreign
              // shards' ids (probes aggregate across shards).
              if (plan.partition && row_id_partition(id) != *plan.partition) {
                continue;
              }
              rows.push_back(base.table->row(id));
            }
            break;
          }
          case BaseScanPlan::Kind::kFullScan:
            rows = run_heap_scan(*base.table, plan);
            break;
        }
      }
    }

    for (std::size_t j = first_join; j < stmt_.joins.size(); ++j) {
      const sql::Join& join = stmt_.joins[j];
      const ScanSource& inner = sources_[j + 1];
      std::vector<Row> joined;

      // Iterates the inner source's rows regardless of kind (zero-copy: the
      // visitor walks the partition heaps without materializing an id list).
      // A `PARTITION (k)` selector restricts the walk to that partition.
      const auto each_inner_row = [&inner](auto&& fn) {
        if (inner.table != nullptr) {
          if (inner.partition) {
            inner.table->for_each_live_row_in(
                *inner.partition,
                [&fn](std::size_t, const Row& row) { fn(row); });
          } else {
            inner.table->for_each_live_row(
                [&fn](std::size_t, const Row& row) { fn(row); });
          }
        } else {
          for (const Row& row : inner.derived->rows) fn(row);
        }
      };

      const auto key = equi_join_key(join.on.get(), inner);
      const Index* inner_index =
          key && inner.table != nullptr ? inner.table->find_index_on(key->second)
                                        : nullptr;
      if (key && inner_index != nullptr) {
        // Indexed nested-loop join: probe the inner index per outer row —
        // O(|outer|) probes; the pushdown evaluator's per-context queries
        // rely on this staying cheap when the inner table is large.
        for (const Row& outer : rows) {
          for (const std::size_t id : inner_index->equal_range(outer[key->first])) {
            if (!inner.table->is_live(id)) continue;
            // The probe aggregates shards; honor an explicit selector.
            if (inner.partition && row_id_partition(id) != *inner.partition) {
              continue;
            }
            Row combined = outer;
            const Row& inner_row = inner.table->row(id);
            combined.insert(combined.end(), inner_row.begin(), inner_row.end());
            EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
            if (!join.on || eval_predicate(*join.on, ctx)) {
              joined.push_back(std::move(combined));
            }
          }
        }
      } else if (key) {
        // Hash join: build on the inner source, probe with outer rows. Each
        // key's matches are kept in inner-scan order (a multimap's
        // equal_range order is unspecified), so emission is outer-major
        // with inner-scan order within — the order the columnar hash join
        // reproduces.
        std::unordered_map<Value, std::vector<const Row*>, ValueHash,
                           ValueEqTotal>
            built;
        each_inner_row([&](const Row& inner_row) {
          built[inner_row[key->second]].push_back(&inner_row);
        });
        for (const Row& outer : rows) {
          const auto it = built.find(outer[key->first]);
          if (it == built.end()) continue;
          for (const Row* match : it->second) {
            Row combined = outer;
            combined.insert(combined.end(), match->begin(), match->end());
            EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
            if (!join.on || eval_predicate(*join.on, ctx)) {
              joined.push_back(std::move(combined));
            }
          }
        }
      } else {
        for (const Row& outer : rows) {
          each_inner_row([&](const Row& inner_row) {
            Row combined = outer;
            combined.insert(combined.end(), inner_row.begin(), inner_row.end());
            EvalCtx ctx{&combined, params_, nullptr, &subquery_values_, nullptr};
            if (!join.on || eval_predicate(*join.on, ctx)) {
              joined.push_back(std::move(combined));
            }
          });
        }
      }
      rows = std::move(joined);
    }
    return rows;
  }

  [[nodiscard]] bool needs_aggregation() const {
    if (!stmt_.group_by.empty()) return true;
    std::vector<const Expr*> aggs;
    for (const auto& item : stmt_.items) collect_aggregates(*item.expr, aggs);
    if (stmt_.having) collect_aggregates(*stmt_.having, aggs);
    for (const auto& key : stmt_.order_by) collect_aggregates(*key.expr, aggs);
    return !aggs.empty();
  }

  /// The gate of the fused analysis: one source, a columnar base table.
  [[nodiscard]] bool single_columnar_base() const {
    return sources_.size() == 1 && sources_[0].table != nullptr &&
           sources_[0].table->columnar();
  }

  std::vector<std::pair<Row, Row>> run_aggregation(const std::vector<Row>& rows) {
    std::vector<const Expr*> agg_exprs;
    for (const auto& item : stmt_.items) collect_aggregates(*item.expr, agg_exprs);
    if (stmt_.having) collect_aggregates(*stmt_.having, agg_exprs);
    for (const auto& key : stmt_.order_by) collect_aggregates(*key.expr, agg_exprs);

    struct Group {
      Row representative;
      bool has_rows = false;
      std::vector<AggState> states;
    };
    struct RowLess {
      bool operator()(const Row& a, const Row& b) const {
        for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
          const int c = Value::compare_total(a[i], b[i]);
          if (c != 0) return c < 0;
        }
        return a.size() < b.size();
      }
    };
    std::map<Row, Group, RowLess> groups;

    for (const Row& row : rows) {
      EvalCtx ctx{&row, params_, nullptr, &subquery_values_, nullptr};
      Row key;
      key.reserve(stmt_.group_by.size());
      for (const auto& g : stmt_.group_by) key.push_back(eval_expr(*g, ctx));
      Group& group = groups[key];
      if (!group.has_rows) {
        group.representative = row;
        group.has_rows = true;
        group.states.resize(agg_exprs.size());
      }
      for (std::size_t i = 0; i < agg_exprs.size(); ++i) {
        agg_accumulate(*agg_exprs[i], group.states[i], ctx);
      }
    }
    // Global aggregation over an empty input still yields one group.
    if (groups.empty() && stmt_.group_by.empty()) {
      Group& group = groups[Row{}];
      group.states.resize(agg_exprs.size());
      group.has_rows = false;
    }

    std::vector<std::pair<Row, Row>> out;
    for (auto& [key, group] : groups) {
      std::unordered_map<const Expr*, Value> agg_values;
      for (std::size_t i = 0; i < agg_exprs.size(); ++i) {
        agg_values[agg_exprs[i]] = agg_finalize(*agg_exprs[i], group.states[i]);
      }
      const Row* rep = group.has_rows ? &group.representative : nullptr;
      Row empty_row;
      EvalCtx ctx{rep ? rep : &empty_row, params_, &agg_values,
                  &subquery_values_, nullptr};
      if (stmt_.having && !eval_predicate(*stmt_.having, ctx)) continue;
      Row output;
      output.reserve(stmt_.items.size());
      for (const auto& item : stmt_.items) {
        output.push_back(eval_expr(*item.expr, ctx));
      }
      Row keys = eval_order_keys(ctx, output);
      out.emplace_back(std::move(output), std::move(keys));
    }
    return out;
  }

  Row eval_order_keys(EvalCtx ctx, const Row& output) {
    Row keys;
    keys.reserve(stmt_.order_by.size());
    ctx.output_row = &output;
    for (const auto& key : stmt_.order_by) {
      keys.push_back(eval_expr(*key.expr, ctx));
    }
    return keys;
  }

  [[nodiscard]] std::vector<std::string> output_names() const {
    std::vector<std::string> names;
    names.reserve(stmt_.items.size());
    for (const auto& item : stmt_.items) {
      if (!item.alias.empty()) {
        names.push_back(item.alias);
      } else if (item.expr->kind == Expr::Kind::kColumnRef) {
        names.push_back(item.expr->column);
      } else {
        names.push_back(item.expr->to_string());
      }
    }
    return names;
  }

  Database& db_;
  sql::SelectStmt& stmt_;
  std::span<const Value> params_;
  /// This statement's CTE scope: chained to the enclosing statement's and
  /// filled as the WITH clause materializes. Deque keeps result addresses
  /// stable while entries accumulate.
  CteScope scope_;
  std::deque<QueryResult> cte_results_;
  ExecEnv* env_;
  /// Externally-materialized CTE results (shard-result cache); null
  /// for ordinary executions.
  const CteScope* injected_ = nullptr;
  /// The node's plan this execution runs under (owned by the node, which
  /// only this execution writes): the cached one while its catalog stamp
  /// stands, else the fresh one once published.
  const sql::SelectPlan* plan_ = nullptr;
  /// The plan this execution is building (fresh_plan), null when the cached
  /// one is reused whole.
  std::shared_ptr<sql::SelectPlan> fresh_;
  std::vector<ScanSource> sources_;
  std::unordered_map<const Expr*, Value> subquery_values_;
  /// Set when the base heap scan already applied the WHERE clause
  /// (single-table statements); run() must not filter twice.
  bool where_applied_ = false;
  /// Off in the explain_verdict path: analysis-only compiles are discarded
  /// with the throwaway parse tree and must not move expr_programs_compiled.
  bool count_compiles_ = true;
};

// ---------------------------------------------------------------------------
// DML / DDL execution

QueryResult exec_create_table(Database& db, const sql::CreateTableStmt& stmt) {
  if (stmt.if_not_exists && db.find_table(stmt.schema.name()) != nullptr) {
    return {};
  }
  db.create_table(stmt.schema);
  return {};
}

QueryResult exec_create_index(Database& db, const sql::CreateIndexStmt& stmt) {
  Table& table = db.table(stmt.table);
  const auto col = table.schema().find_column(stmt.column);
  if (!col) {
    throw EvalError(support::cat("unknown column '", stmt.column, "' in table ",
                                 stmt.table));
  }
  table.create_index(stmt.index_name, *col,
                     stmt.ordered ? Index::Kind::kOrdered : Index::Kind::kHash);
  return {};
}

QueryResult exec_insert(Database& db, const sql::InsertStmt& stmt,
                        std::span<const Value> params) {
  Table& table = db.table(stmt.table);
  const TableSchema& schema = table.schema();

  std::vector<std::size_t> positions;
  if (stmt.columns.empty()) {
    positions.resize(schema.column_count());
    for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  } else {
    for (const std::string& name : stmt.columns) {
      const auto col = schema.find_column(name);
      if (!col) {
        throw EvalError(support::cat("unknown column '", name, "' in table ",
                                     stmt.table));
      }
      positions.push_back(*col);
    }
  }

  QueryResult result;
  EvalCtx ctx{nullptr, params, nullptr, nullptr, nullptr};
  for (const auto& exprs : stmt.rows) {
    if (exprs.size() != positions.size()) {
      throw EvalError(support::cat("INSERT expects ", positions.size(),
                                   " values, got ", exprs.size()));
    }
    Row row(schema.column_count(), Value::null());
    for (std::size_t i = 0; i < exprs.size(); ++i) {
      row[positions[i]] = eval_expr(*exprs[i], ctx);
    }
    table.insert(std::move(row));
    ++result.affected_rows;
  }
  return result;
}

QueryResult exec_update(Database& db, sql::UpdateStmt& stmt,
                        std::span<const Value> params) {
  Table& table = db.table(stmt.table);
  Binder binder(db, params);
  std::vector<ScanSource> sources{
      {&table, nullptr, std::nullopt, table.schema().name(), 0}};
  std::vector<std::pair<std::size_t, Expr*>> sets;
  for (auto& [name, expr] : stmt.assignments) {
    const auto col = table.schema().find_column(name);
    if (!col) {
      throw EvalError(support::cat("unknown column '", name, "' in table ",
                                   stmt.table));
    }
    binder.bind_expr(*expr, sources, /*allow_aggregates=*/false);
    sets.emplace_back(*col, expr.get());
  }
  if (stmt.where) {
    binder.bind_expr(*stmt.where, sources, /*allow_aggregates=*/false);
  }

  QueryResult result;
  for (const std::size_t id : table.live_rows()) {
    const Row& row = table.row(id);
    EvalCtx ctx{&row, params, nullptr, nullptr, nullptr};
    if (stmt.where && !eval_predicate(*stmt.where, ctx)) continue;
    Row updated = row;
    for (const auto& [col, expr] : sets) {
      updated[col] = eval_expr(*expr, ctx);
    }
    table.update(id, std::move(updated));
    ++result.affected_rows;
  }
  return result;
}

QueryResult exec_delete(Database& db, sql::DeleteStmt& stmt,
                        std::span<const Value> params) {
  Table& table = db.table(stmt.table);
  Binder binder(db, params);
  std::vector<ScanSource> sources{
      {&table, nullptr, std::nullopt, table.schema().name(), 0}};
  if (stmt.where) {
    binder.bind_expr(*stmt.where, sources, /*allow_aggregates=*/false);
  }
  QueryResult result;
  for (const std::size_t id : table.live_rows()) {
    const Row& row = table.row(id);
    EvalCtx ctx{&row, params, nullptr, nullptr, nullptr};
    if (stmt.where && !eval_predicate(*stmt.where, ctx)) continue;
    table.erase(id);
    ++result.affected_rows;
  }
  return result;
}

QueryResult exec_drop(Database& db, const sql::DropTableStmt& stmt) {
  if (!db.drop_table(stmt.table) && !stmt.if_exists) {
    throw EvalError(support::cat("unknown table '", stmt.table, "'"));
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryResult helpers

std::size_t QueryResult::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (support::iequals(columns[i], name)) return i;
  }
  throw support::EvalError(support::cat("no column named '", name, "'"));
}

std::string QueryResult::to_table() const {
  std::string out;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += " | ";
    out += columns[c];
  }
  out += '\n';
  for (const Row& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += " | ";
      out += row[c].to_display();
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Database facade

bool Database::CaseInsensitiveLess::operator()(
    std::string_view a, std::string_view b) const noexcept {
  // The order of the lowercased strings (std::string compares chars as
  // unsigned char), without building them.
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(), [](char x, char y) {
        return std::tolower(static_cast<unsigned char>(x)) <
               std::tolower(static_cast<unsigned char>(y));
      });
}

std::uint64_t Database::next_catalog_generation() noexcept {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Table& Database::create_table(TableSchema schema) {
  const std::string name = schema.name();
  if (tables_.contains(name)) {
    throw EvalError(support::cat("table '", name, "' already exists"));
  }
  auto [it, inserted] =
      tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
  // Invalidates the layout-fingerprint memo and every node plan.
  catalog_generation_ = next_catalog_generation();
  return *it->second;
}

bool Database::drop_table(std::string_view name) {
  const bool dropped = tables_.erase(std::string(name)) > 0;
  if (dropped) catalog_generation_ = next_catalog_generation();
  return dropped;
}

Table* Database::find_table(std::string_view name) {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::find_table(std::string_view name) const {
  const auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table& Database::table(std::string_view name) {
  Table* t = find_table(name);
  if (t == nullptr) throw EvalError(support::cat("unknown table '", name, "'"));
  return *t;
}

const Table& Database::table(std::string_view name) const {
  const Table* t = find_table(name);
  if (t == nullptr) throw EvalError(support::cat("unknown table '", name, "'"));
  return *t;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

namespace {

Database::TableLayout layout_of(const Table& table) {
  Database::TableLayout layout;
  layout.table = table.schema().name();
  layout.partition = table.schema().partition();
  layout.partitions = table.partition_count();
  if (layout.partition) layout.partition_column = layout.partition->column;
  return layout;
}

void hash_mix(std::uint64_t& h, std::string_view text) {
  // FNV-1a over the lowercased text (the catalog is case-insensitive, so
  // two spellings of one layout must fingerprint identically).
  for (const char c : text) {
    h ^= static_cast<std::uint64_t>(
        std::tolower(static_cast<unsigned char>(c)));
    h *= 0x100000001b3ULL;
  }
  h ^= 0x1f;
  h *= 0x100000001b3ULL;
}

}  // namespace

std::optional<Database::TableLayout> Database::table_layout(
    std::string_view name) const {
  const Table* table = find_table(name);
  if (table == nullptr) return std::nullopt;
  return layout_of(*table);
}

std::vector<Database::TableLayout> Database::table_layouts() const {
  std::vector<TableLayout> layouts;
  layouts.reserve(tables_.size());
  for (const auto& [name, table] : tables_) layouts.push_back(layout_of(*table));
  return layouts;
}

std::uint64_t Database::layout_fingerprint() const {
  if (layout_memo_.generation.load(std::memory_order_acquire) ==
      catalog_generation_) {
    return layout_memo_.fingerprint.load(std::memory_order_relaxed);
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const auto& [name, table] : tables_) {
    hash_mix(h, table->schema().name());
    const auto& spec = table->schema().partition();
    if (!spec) {
      hash_mix(h, "-");
      continue;
    }
    hash_mix(h, spec->method == PartitionSpec::Method::kHash ? "hash" : "range");
    hash_mix(h, spec->column);
    hash_mix(h, std::to_string(spec->partitions));
    for (const Value& bound : spec->range_bounds) {
      hash_mix(h, bound.to_display());
    }
  }
  layout_memo_.fingerprint.store(h, std::memory_order_relaxed);
  layout_memo_.generation.store(catalog_generation_, std::memory_order_release);
  return h;
}

QueryResult Database::execute(std::string_view sql_text,
                              std::span<const Value> params) {
  std::vector<sql::Statement> stmts = sql::parse_sql(sql_text);
  if (stmts.empty()) return {};
  QueryResult result;
  for (sql::Statement& stmt : stmts) {
    result = execute(stmt, params);
  }
  return result;
}

QueryResult Database::execute(sql::Statement& stmt, std::span<const Value> params) {
  return std::visit(
      [&](auto& s) -> QueryResult {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, sql::SelectStmt>) {
          return SelectExec(*this, s, params).run();
        } else if constexpr (std::is_same_v<T, sql::CreateTableStmt>) {
          return exec_create_table(*this, s);
        } else if constexpr (std::is_same_v<T, sql::CreateIndexStmt>) {
          return exec_create_index(*this, s);
        } else if constexpr (std::is_same_v<T, sql::InsertStmt>) {
          return exec_insert(*this, s, params);
        } else if constexpr (std::is_same_v<T, sql::UpdateStmt>) {
          return exec_update(*this, s, params);
        } else if constexpr (std::is_same_v<T, sql::DeleteStmt>) {
          return exec_delete(*this, s, params);
        } else {
          return exec_drop(*this, s);
        }
      },
      stmt);
}

PreparedStatement Database::prepare(std::string_view sql_text) const {
  return PreparedStatement(sql::parse_single(sql_text));
}

QueryResult Database::execute(PreparedStatement& stmt,
                              std::span<const Value> params) {
  return execute(stmt.ast(), params);
}

QueryResult Database::execute_select_with(sql::SelectStmt& stmt,
                                          std::span<const Value> params,
                                          std::span<const InjectedCte> injected) {
  CteScope pre;
  pre.entries.reserve(injected.size());
  for (const InjectedCte& cte : injected) {
    pre.entries.emplace_back(cte.name, cte.rows);
  }
  return SelectExec(*this, stmt, params, nullptr, nullptr, &pre).run();
}

namespace {

/// Highest `?` marker index in the statement (recursively), so explain can
/// size an all-NULL parameter vector that satisfies the binder.
void max_param_count(const sql::SelectStmt& stmt, std::size_t& n);

void max_param_count(const sql::Expr* e, std::size_t& n) {
  if (e == nullptr) return;
  if (e->kind == sql::Expr::Kind::kParam) n = std::max(n, e->param_index + 1);
  max_param_count(e->lhs.get(), n);
  max_param_count(e->rhs.get(), n);
  for (const auto& arg : e->args) max_param_count(arg.get(), n);
  if (e->subquery) max_param_count(*e->subquery, n);
}

void max_param_count(const sql::SelectStmt& stmt, std::size_t& n) {
  for (const auto& cte : stmt.ctes) max_param_count(*cte.select, n);
  for (const auto& item : stmt.items) max_param_count(item.expr.get(), n);
  max_param_count(stmt.where.get(), n);
  for (const auto& join : stmt.joins) max_param_count(join.on.get(), n);
  for (const auto& g : stmt.group_by) max_param_count(g.get(), n);
  max_param_count(stmt.having.get(), n);
  for (const auto& key : stmt.order_by) max_param_count(key.expr.get(), n);
}

/// One SELECT node's analysis-only verdict. Binds the node of explain's
/// own throwaway parse (binding mutates the tree: star expansion, alias
/// rewrites) with all-NULL parameters; bind failures — including FROM
/// naming a CTE, which explain never materializes — report as row path
/// with the diagnostic.
std::string fused_verdict(Database& db, sql::SelectStmt& stmt,
                          std::span<const Value> params) {
  try {
    return SelectExec(db, stmt, params).explain_verdict();
  } catch (const EvalError& e) {
    return support::cat("row path (", e.what(), ")");
  }
}

}  // namespace

std::vector<Database::FusedExplain> Database::explain_fused(
    std::string_view sql_text) {
  std::vector<FusedExplain> out;
  std::vector<sql::Statement> stmts = sql::parse_sql(sql_text);
  for (std::size_t s = 0; s < stmts.size(); ++s) {
    const std::string prefix =
        stmts.size() > 1 ? support::cat("stmt", s + 1, " ") : std::string();
    auto* select = std::get_if<sql::SelectStmt>(&stmts[s]);
    if (select == nullptr) {
      out.push_back({support::cat(prefix, "main"), "not a SELECT"});
      continue;
    }
    std::size_t nparams = 0;
    max_param_count(*select, nparams);
    const std::vector<Value> params(nparams);  // default Value is NULL
    for (const auto& cte : select->ctes) {
      out.push_back({support::cat(prefix, cte.name),
                     fused_verdict(*this, *cte.select, params)});
    }
    out.push_back(
        {support::cat(prefix, "main"), fused_verdict(*this, *select, params)});
  }
  return out;
}

std::size_t Database::total_rows() const {
  std::size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->live_row_count();
  return total;
}

}  // namespace kojak::db
