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

void append_key(const Expr& e, StructuralKey& out) {
  std::string& text = out.text;
  text += static_cast<char>('A' + static_cast<int>(e.kind));
  switch (e.kind) {
    case Expr::Kind::kLiteral: {
      // Type tag and length prefix: `1` and `1.0` differ, and a string
      // literal cannot spell the key's own punctuation.
      const std::string shown = e.literal.to_display();
      text += static_cast<char>('0' + static_cast<int>(e.literal.type()));
      text += std::to_string(shown.size());
      text += ':';
      text += shown;
      break;
    }
    case Expr::Kind::kColumnRef:
      text += e.table;
      text += '.';
      text += e.column;
      break;
    case Expr::Kind::kParam:
      text += '?';
      out.params.push_back(e.param_index);
      break;
    case Expr::Kind::kUnary:
      text += static_cast<char>('0' + static_cast<int>(e.un_op));
      break;
    case Expr::Kind::kBinary:
      text += static_cast<char>('0' + static_cast<int>(e.bin_op));
      break;
    case Expr::Kind::kFuncCall:
      text += e.func;
      if (e.star_arg) text += '*';
      if (e.distinct_arg) text += '!';
      break;
    case Expr::Kind::kIsNull:
    case Expr::Kind::kInList:
    case Expr::Kind::kLike:
      if (e.negated) text += '!';
      break;
    case Expr::Kind::kSubquery:
      append_key(*e.subquery, out);
      break;
    case Expr::Kind::kAliasRef:
      text += std::to_string(e.alias_index);
      break;
  }
  text += '(';
  if (e.lhs) append_key(*e.lhs, out);
  text += ',';
  if (e.rhs) append_key(*e.rhs, out);
  for (const auto& arg : e.args) {
    text += ',';
    append_key(*arg, out);
  }
  text += ')';
}

void append_key(const SelectStmt& s, StructuralKey& out) {
  std::string& text = out.text;
  text += s.distinct ? "S!" : "S";
  for (const CommonTableExpr& cte : s.ctes) {
    text += "C";
    text += cte.name;
    text += ' ';
    append_key(*cte.select, out);
  }
  for (const auto& item : s.items) {
    if (item.star) {
      text += '*';
      text += item.star_table;
    } else {
      append_key(*item.expr, out);
    }
    text += ' ';
    text += item.alias;
    text += ',';
  }
  const auto table_ref_key = [&text](const TableRef& ref) {
    text += ref.table;
    // `t PARTITION (0)` and `t PARTITION (1)` scan different rows.
    if (ref.partition) text += support::cat("#p", *ref.partition);
    text += ' ';
    text += ref.alias;
  };
  if (s.from) {
    text += "F";
    table_ref_key(*s.from);
  }
  for (const auto& join : s.joins) {
    text += "J";
    table_ref_key(join.table);
    if (join.on) append_key(*join.on, out);
  }
  if (s.where) {
    text += "W";
    append_key(*s.where, out);
  }
  for (const auto& g : s.group_by) {
    text += "G";
    append_key(*g, out);
  }
  if (s.having) {
    text += "H";
    append_key(*s.having, out);
  }
  for (const auto& key : s.order_by) {
    text += key.descending ? "Od" : "Oa";
    append_key(*key.expr, out);
  }
  if (s.limit) text += support::cat("L", *s.limit);
  if (s.offset) text += support::cat("K", *s.offset);
}

const StructuralKey& structural_key(const SelectStmt& s) {
  if (s.key.text.empty()) append_key(s, s.key);
  return s.key;
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
