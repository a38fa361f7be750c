#ifndef KOJAK_DB_SQL_AST_HPP
#define KOJAK_DB_SQL_AST_HPP

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "db/schema.hpp"
#include "db/value.hpp"
#include "support/source_location.hpp"

namespace kojak::db::sql {

/// Argument cap of the variadic scalar functions (COALESCE, LEAST,
/// GREATEST) in the executor's binder — the single definition query
/// compilers consult too: a MIN/MAX partition-union fold with more shards
/// than this would fail at bind time, so the rewrite declines beyond it.
inline constexpr std::size_t kMaxScalarFnArgs = 64;

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct SelectStmt;

enum class BinOp : std::uint8_t {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAdd, kSub, kMul, kDiv, kMod,
  kAnd, kOr,
};
enum class UnOp : std::uint8_t { kNeg, kNot };

[[nodiscard]] std::string_view to_string(BinOp op);

/// SQL expression node. A single struct with a kind discriminator keeps the
/// binder/executor simple; unused fields stay empty.
struct Expr {
  enum class Kind : std::uint8_t {
    kLiteral,    // literal
    kColumnRef,  // [table.]column  (resolved_slot filled by the binder)
    kParam,      // ? placeholder, 0-based param_index
    kUnary,      // un_op lhs
    kBinary,     // lhs bin_op rhs
    kFuncCall,   // func(args...) — scalar or aggregate; star_arg for COUNT(*)
    kIsNull,     // lhs IS [NOT] NULL
    kInList,     // lhs IN (args...)
    kLike,       // lhs LIKE rhs (negated supports NOT LIKE)
    kSubquery,   // scalar subquery (uncorrelated)
    kAliasRef,   // ORDER BY / HAVING reference to a select item (alias_index)
  };

  Kind kind = Kind::kLiteral;
  support::SourceLoc loc;

  Value literal;

  std::string table;   // optional qualifier of a column ref
  std::string column;
  /// Filled by the binder: slot in the flattened scan row; SIZE_MAX until bound.
  std::size_t resolved_slot = static_cast<std::size_t>(-1);

  std::size_t param_index = 0;

  UnOp un_op = UnOp::kNeg;
  BinOp bin_op = BinOp::kAnd;
  ExprPtr lhs;
  ExprPtr rhs;

  std::string func;
  std::vector<ExprPtr> args;
  bool star_arg = false;
  bool distinct_arg = false;  // COUNT(DISTINCT x)

  bool negated = false;  // IS NOT NULL / NOT IN / NOT LIKE

  std::unique_ptr<SelectStmt> subquery;

  std::size_t alias_index = 0;

  /// Debug / display rendering, also used to derive result column names.
  [[nodiscard]] std::string to_string() const;
};

struct SelectItem {
  ExprPtr expr;          // null when star
  std::string alias;     // empty when none
  bool star = false;     // SELECT * or t.*
  std::string star_table;
};

struct TableRef {
  std::string table;
  std::string alias;  // empty -> table name is the qualifier
  /// `FROM t PARTITION (k) [alias]`: restrict the scan to partition k of a
  /// partitioned catalog table. Only valid on catalog tables — the parser
  /// rejects selectors on CTE names, the executor on any derived source —
  /// and out-of-range selectors are an execution-time diagnostic. This is
  /// the scan predicate the partition-union rewrite compiles per-partition
  /// CTEs with.
  std::optional<std::size_t> partition;
  support::SourceLoc loc;

  [[nodiscard]] const std::string& qualifier() const noexcept {
    return alias.empty() ? table : alias;
  }
};

struct Join {
  TableRef table;
  ExprPtr on;  // may be null for CROSS JOIN
};

struct OrderKey {
  ExprPtr expr;
  bool descending = false;
};

/// One `name AS (SELECT ...)` entry of a statement-level WITH clause.
/// Non-recursive: a CTE body may reference only CTEs defined before it
/// (the parser rejects self and forward references with a diagnostic).
/// The executor materializes each CTE exactly once per statement execution;
/// every scalar subquery or FROM that names it scans the materialized rows.
struct CommonTableExpr {
  std::string name;
  std::unique_ptr<SelectStmt> select;
  support::SourceLoc loc;
};

/// Executor-side plan of one SELECT node (defined in the executor).
struct SelectPlan;

/// Structural key of a SELECT node or an expression: an unambiguous
/// rendering of its tree in which every placeholder is written as `?` and
/// its absolute param_index recorded in `params`, in text order. Literals
/// carry their type, table refs their PARTITION selector and alias, select
/// items their alias (a CTE's result columns are looked up by name), and
/// nested subqueries render in full. Two nodes with equal keys compute the
/// same rows from the same catalog and the same values at `params`, so the
/// key text alone names one computation at any parameter offset.
struct StructuralKey {
  std::string text;
  std::vector<std::size_t> params;
  bool operator==(const StructuralKey&) const = default;
};

/// Appends the structural key of `e` / `s` to `out`.
void append_key(const Expr& e, StructuralKey& out);
void append_key(const SelectStmt& s, StructuralKey& out);

struct SelectStmt {
  std::vector<CommonTableExpr> ctes;  // statement-level WITH, in order
  bool distinct = false;
  std::vector<SelectItem> items;
  std::optional<TableRef> from;
  std::vector<Join> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderKey> order_by;
  std::optional<std::size_t> limit;
  std::optional<std::size_t> offset;

  /// The node's plan, written by its first execution and replaced whole by
  /// any later one that must rebind (after DDL, or when a FROM/JOIN name
  /// resolves differently): its resolved sources (table handles with
  /// PARTITION selectors, or CTEs with the columns bound against), slot
  /// bases and parameter count, its WITH schedule, and its fused verdict
  /// (the columnar evaluator's plan, or the row path). One
  /// catalog-generation stamp covers all of it. The plan holds pointers into
  /// this node's expression tree, so it lives and dies with the node; every
  /// SELECT node (statement, WITH body, scalar subquery) carries its own.
  /// Mutable: an execution annotation, not part of the statement's SQL;
  /// safe under the executor's concurrency contract (concurrent execution
  /// only of DISTINCT prepared statements).
  mutable std::shared_ptr<const SelectPlan> plan;
  /// The node's structural key, filled by structural_key() on first use.
  /// Callers take it before the node first executes (execution expands
  /// stars and rewrites ORDER BY aliases, which would change a later
  /// rendering). Empty until then.
  mutable StructuralKey key;
};

/// `s.key`, computed on first use.
[[nodiscard]] const StructuralKey& structural_key(const SelectStmt& s);

/// Visits every TableRef of one SELECT — FROM, every JOIN, and every
/// expression position (WHERE, items, GROUP BY, HAVING, ORDER BY, join
/// conditions), recursing into scalar subqueries. Does NOT descend into
/// `stmt.ctes`: CTE bodies are separate scopes and every caller (the
/// parser's reference/selector validation, the executor's dependency
/// analysis) walks them individually. The one traversal all of them share —
/// so a new expression-bearing clause is added here once, not in three
/// hand-rolled copies.
void for_each_table_ref(const SelectStmt& stmt,
                        const std::function<void(const TableRef&)>& fn);

struct CreateTableStmt {
  TableSchema schema;
  bool if_not_exists = false;
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::string column;
  bool ordered = false;  // CREATE [ORDERED] INDEX (hash is the default)
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty -> full row order
  std::vector<std::vector<ExprPtr>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

using Statement = std::variant<SelectStmt, CreateTableStmt, CreateIndexStmt,
                               InsertStmt, UpdateStmt, DeleteStmt, DropTableStmt>;

}  // namespace kojak::db::sql

#endif  // KOJAK_DB_SQL_AST_HPP
