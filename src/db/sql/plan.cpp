#include "db/sql/plan.hpp"

namespace kojak::db::sql {

namespace {

/// nullptr-preserving pointer translation; sets `ok` false on a miss so the
/// caller can abandon the whole carry instead of shipping a dangling plan.
const Expr* translate(const Expr* expr, const ExprRemap& map, bool& ok) {
  if (expr == nullptr) return nullptr;
  const auto it = map.find(expr);
  if (it == map.end()) {
    ok = false;
    return nullptr;
  }
  return it->second;
}

/// nullptr-preserving program carry: compiled programs hold `const Expr*`
/// runtime-constant slots (params, scalar subqueries) that must follow the
/// clone exactly like the plan's own pointers.
bool remap_program(std::shared_ptr<const ExprProgram>& program,
                   const ExprRemap& map) {
  if (program == nullptr) return true;
  program = program->remapped(map);
  return program != nullptr;
}

}  // namespace

std::shared_ptr<const FusedPlan> remap_onto(const FusedPlan& plan,
                                            const ExprRemap& map) {
  auto out = std::make_shared<FusedPlan>(plan);
  if (!remap_program(out->where_program, map)) return nullptr;
  for (auto& key : out->group_keys) {
    if (!remap_program(key.program, map)) return nullptr;
  }
  bool ok = true;
  for (auto& [node, index] : out->key_refs) node = translate(node, map, ok);
  for (auto& a : out->aggregates) {
    a.expr = translate(a.expr, map, ok);
    if (!remap_program(a.program, map)) return nullptr;
  }
  if (!ok) return nullptr;
  return out;
}

}  // namespace kojak::db::sql
