#include "db/sql/ast.hpp"

#include "support/str.hpp"

namespace kojak::db::sql {

std::string_view to_string(BinOp op) {
  switch (op) {
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

namespace {

void walk_refs(const SelectStmt& s,
               const std::function<void(const TableRef&)>& fn);

void walk_refs(const Expr& e, const std::function<void(const TableRef&)>& fn) {
  if (e.subquery) walk_refs(*e.subquery, fn);
  if (e.lhs) walk_refs(*e.lhs, fn);
  if (e.rhs) walk_refs(*e.rhs, fn);
  for (const auto& arg : e.args) walk_refs(*arg, fn);
}

void walk_refs(const SelectStmt& s,
               const std::function<void(const TableRef&)>& fn) {
  if (s.from) fn(*s.from);
  for (const Join& join : s.joins) {
    fn(join.table);
    if (join.on) walk_refs(*join.on, fn);
  }
  for (const auto& item : s.items) {
    if (item.expr) walk_refs(*item.expr, fn);
  }
  if (s.where) walk_refs(*s.where, fn);
  for (const auto& g : s.group_by) walk_refs(*g, fn);
  if (s.having) walk_refs(*s.having, fn);
  for (const auto& key : s.order_by) walk_refs(*key.expr, fn);
}

}  // namespace

void for_each_table_ref(const SelectStmt& stmt,
                        const std::function<void(const TableRef&)>& fn) {
  walk_refs(stmt, fn);
}

std::string Expr::to_string() const {
  using support::cat;
  switch (kind) {
    case Kind::kLiteral:
      return literal.to_display();
    case Kind::kColumnRef:
      return table.empty() ? column : cat(table, ".", column);
    case Kind::kParam:
      return "?";
    case Kind::kUnary:
      return cat(un_op == UnOp::kNeg ? "-" : "NOT ", lhs ? lhs->to_string() : "");
    case Kind::kBinary:
      return cat("(", lhs ? lhs->to_string() : "", " ", sql::to_string(bin_op),
                 " ", rhs ? rhs->to_string() : "", ")");
    case Kind::kFuncCall: {
      std::string out = func;
      out += '(';
      if (star_arg) {
        out += '*';
      } else {
        if (distinct_arg) out += "DISTINCT ";
        for (std::size_t i = 0; i < args.size(); ++i) {
          if (i > 0) out += ", ";
          out += args[i]->to_string();
        }
      }
      out += ')';
      return out;
    }
    case Kind::kIsNull:
      return cat(lhs ? lhs->to_string() : "", negated ? " IS NOT NULL" : " IS NULL");
    case Kind::kInList: {
      std::string out = lhs ? lhs->to_string() : "";
      out += negated ? " NOT IN (" : " IN (";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->to_string();
      }
      out += ')';
      return out;
    }
    case Kind::kLike:
      return cat(lhs ? lhs->to_string() : "", negated ? " NOT LIKE " : " LIKE ",
                 rhs ? rhs->to_string() : "");
    case Kind::kSubquery:
      return "(SELECT ...)";
    case Kind::kAliasRef:
      return cat("@", alias_index);
  }
  return "?";
}

}  // namespace kojak::db::sql
