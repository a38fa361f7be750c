#ifndef KOJAK_DB_SQL_PLAN_HPP
#define KOJAK_DB_SQL_PLAN_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/sql/ast.hpp"
#include "db/sql/expr_vm.hpp"
#include "db/value.hpp"

namespace kojak::db::sql {

/// Hot-plan annotation behind `SelectStmt::fused_plan`: the structural
/// analysis of an aggregate statement over one columnar base table, the
/// input of the executor's one columnar evaluator. A global aggregate is a
/// GROUP BY with zero keys (the per-partition `part<K>` CTE body the
/// partition-union rewrite emits is the dominant such shape). Built once
/// per statement by the executor, reused by every later execution of the
/// same statement (prepared statements, plan-cache hits, monitor
/// re-evaluation); everything value-dependent — partition pruning,
/// parameter and subquery constants — is re-bound per execution.
/// Expression pointers reference the owning statement's AST, so the
/// annotation must never outlive or migrate off its statement —
/// `SelectStmt::clone()` carries it by remapping every pointer onto the
/// cloned expression tree (see remap_onto below).
struct FusedPlan {
  /// Database::catalog_generation() at analysis: the plan is reused only
  /// while it stands, so it never outlives the table layout it describes.
  std::uint64_t catalog_generation = 0;
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

/// Re-targets a plan's expression pointers through `map`. Returns nullptr if
/// any pointer is missing from the map — a carried plan must never dangle, so
/// an incomplete map silently degrades to "re-analyze on first execution".
[[nodiscard]] std::shared_ptr<const FusedPlan> remap_onto(
    const FusedPlan& plan, const ExprRemap& map);

}  // namespace kojak::db::sql

#endif  // KOJAK_DB_SQL_PLAN_HPP
