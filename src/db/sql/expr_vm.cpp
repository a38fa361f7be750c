// Batch bytecode VM for scalar SQL expressions over columnar partitions.
//
// Byte-identity with the row-path interpreter (executor.cpp's eval_expr /
// value.cpp's numeric_binop + compare_sql) is load-bearing: every kernel
// below reproduces the exact double/int operations and NULL propagation the
// interpreter performs, including NaN comparing equal to everything,
// int-through-double comparison, and first-attained LEAST/GREATEST ties.
// Shapes with a statically ambiguous result type (or that would throw a
// per-row type diagnostic) are declined at compile time so the row path
// keeps raising its usual errors.

#include "db/sql/expr_vm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "support/error.hpp"
#include "support/str.hpp"

namespace kojak::db::sql {

using support::EvalError;

bool like_match(std::string_view text, std::string_view pattern) {
  // Iterative matcher for SQL LIKE with '%' (any run) and '_' (single char).
  std::size_t t = 0, p = 0;
  std::size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

namespace {

constexpr std::uint16_t kNoReg = 0xffff;

bool numeric_type(ValueType t) noexcept {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

/// Whether compare_sql(a, b) is defined (never throws) for every non-NULL
/// value pair of these static types.
bool comparable_types(ValueType a, ValueType b) noexcept {
  if (numeric_type(a) && numeric_type(b)) return true;
  return a == b && (a == ValueType::kBool || a == ValueType::kDateTime ||
                    a == ValueType::kString);
}

/// Conservative: does this subtree contain an operation that can raise at
/// evaluation time (`/`, `%`, SQRT)? Used to decide where demand-mask
/// refinements are worth emitting.
bool can_raise(const Expr& e) {
  if (e.kind == Expr::Kind::kBinary &&
      (e.bin_op == BinOp::kDiv || e.bin_op == BinOp::kMod)) {
    return true;
  }
  if (e.kind == Expr::Kind::kFuncCall && e.func == "SQRT") return true;
  if (e.lhs && can_raise(*e.lhs)) return true;
  if (e.rhs && can_raise(*e.rhs)) return true;
  for (const auto& arg : e.args) {
    if (arg && can_raise(*arg)) return true;
  }
  return false;
}

/// Signed arithmetic through unsigned so lanes the row path never evaluates
/// (filtered rows computed eagerly by the VM) cannot trip UBSan; on the
/// lanes both paths evaluate the bit results are identical.
std::int64_t wrap_add(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                   static_cast<std::uint64_t>(y));
}
std::int64_t wrap_sub(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                   static_cast<std::uint64_t>(y));
}
std::int64_t wrap_mul(std::int64_t x, std::int64_t y) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                   static_cast<std::uint64_t>(y));
}
std::int64_t wrap_neg(std::int64_t x) noexcept {
  return static_cast<std::int64_t>(0u - static_cast<std::uint64_t>(x));
}

bool comparison_keeps(BinOp op, int c) noexcept {
  switch (op) {
    case BinOp::kEq: return c == 0;
    case BinOp::kNe: return c != 0;
    case BinOp::kLt: return c < 0;
    case BinOp::kLe: return c <= 0;
    case BinOp::kGt: return c > 0;
    case BinOp::kGe: return c >= 0;
    default: return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler

class ProgramBuilder {
 public:
  ProgramBuilder(std::size_t base_slot, std::span<const ValueType> column_types,
                 const ExprProgram::ConstantValueFn& constant_value)
      : base_slot_(base_slot),
        column_types_(column_types),
        constant_value_(constant_value) {}

  std::shared_ptr<const ExprProgram> build(const Expr& root) {
    const auto res = compile(root, kNoReg);
    if (!res) return nullptr;
    auto out = std::make_shared<ExprProgram>(std::move(prog_));
    out->root_reg_ = res->reg;
    out->root_type_ = res->type;
    std::sort(out->used_columns_.begin(), out->used_columns_.end());
    out->used_columns_.erase(
        std::unique(out->used_columns_.begin(), out->used_columns_.end()),
        out->used_columns_.end());
    return out;
  }

 private:
  struct Res {
    std::uint16_t reg;
    ValueType type;
  };
  using Op = ExprProgram::Op;
  using Instr = ExprProgram::Instr;

  std::optional<std::uint16_t> new_reg(ValueType t) {
    if (prog_.reg_types_.size() >= kNoReg) return std::nullopt;
    prog_.reg_types_.push_back(t);
    return static_cast<std::uint16_t>(prog_.reg_types_.size() - 1);
  }

  Instr& emit(Op op, std::uint16_t dest) {
    prog_.instrs_.push_back(Instr{});
    Instr& ins = prog_.instrs_.back();
    ins.op = op;
    ins.dest = dest;
    return ins;
  }

  /// Canonical all-NULL register: compile-time NULL folds land here. Owns
  /// zeroed int/double/string lanes so any consumer can copy through it.
  std::optional<Res> null_reg() {
    if (null_reg_ == kNoReg) {
      const auto reg = new_reg(ValueType::kNull);
      if (!reg) return std::nullopt;
      null_reg_ = *reg;
      emit(Op::kLoadConst, null_reg_);  // payload kNoPayload = NULL broadcast
    }
    return Res{null_reg_, ValueType::kNull};
  }

  /// Demand-mask seed (the caller's `demand` bitmap), created on first use.
  std::optional<std::uint16_t> seed_mask() {
    if (seed_mask_ == kNoReg) {
      const auto reg = new_reg(ValueType::kBool);
      if (!reg) return std::nullopt;
      seed_mask_ = *reg;
      emit(Op::kMaskSeed, seed_mask_);
    }
    return seed_mask_;
  }

  std::optional<std::uint16_t> mask_or_seed(std::uint16_t m) {
    if (m != kNoReg) return m;
    return seed_mask();
  }

  std::optional<std::uint16_t> refine_mask(Op op, std::uint16_t parent,
                                           std::uint16_t over) {
    const auto base = mask_or_seed(parent);
    if (!base) return std::nullopt;
    const auto reg = new_reg(ValueType::kBool);
    if (!reg) return std::nullopt;
    Instr& ins = emit(op, *reg);
    ins.a = *base;
    ins.b = over;
    return reg;
  }

  /// Compile-time value of a constant expression (literal, param, scalar
  /// subquery); nullopt for "unknown" (recorded as NULL-typed).
  std::optional<Value> constant_of(const Expr& e) {
    if (e.kind == Expr::Kind::kLiteral) return e.literal;
    if (constant_value_) return constant_value_(e);
    return std::nullopt;
  }

  /// Registers a runtime-constant slot for `e` and loads it. NULL-typed
  /// constants fold to the null register but still claim a slot when the
  /// runtime value could change (params/subqueries): bind_constants then
  /// declines the execution whose value stopped being NULL.
  std::optional<Res> const_slot_reg(const Expr& e) {
    auto value = constant_of(e);
    Value v = value ? std::move(*value) : Value::null();
    const ValueType type = v.type();
    ExprProgram::ConstSlot slot;
    slot.expr = &e;
    slot.type = type;
    if (e.kind == Expr::Kind::kLiteral) {
      slot.literal = v;
      slot.literal_baked = true;
    }
    if (type == ValueType::kNull) {
      if (e.kind != Expr::Kind::kLiteral) {
        prog_.consts_.push_back(std::move(slot));  // validation-only slot
      }
      return null_reg();
    }
    prog_.consts_.push_back(std::move(slot));
    const std::uint32_t slot_index =
        static_cast<std::uint32_t>(prog_.consts_.size() - 1);
    const auto reg = new_reg(type);
    if (!reg) return std::nullopt;
    Instr& ins = emit(Op::kLoadConst, *reg);
    ins.payload = slot_index;
    return Res{*reg, type};
  }

  /// Registers a constant slot without loading it into a register (IN-list
  /// members, ROUND digits). Returns the slot index and its recorded type.
  std::optional<std::pair<std::uint32_t, ValueType>> const_slot_only(
      const Expr& e) {
    auto value = constant_of(e);
    Value v = value ? std::move(*value) : Value::null();
    ExprProgram::ConstSlot slot;
    slot.expr = &e;
    slot.type = v.type();
    if (e.kind == Expr::Kind::kLiteral) {
      slot.literal = std::move(v);
      slot.literal_baked = true;
    }
    prog_.consts_.push_back(std::move(slot));
    return std::pair{static_cast<std::uint32_t>(prog_.consts_.size() - 1),
                     prog_.consts_.back().type};
  }

  static bool is_constant_expr(const Expr& e) {
    return e.kind == Expr::Kind::kLiteral || e.kind == Expr::Kind::kParam ||
           e.kind == Expr::Kind::kSubquery;
  }

  std::optional<Res> emit_unary(Op op, const Res& a, ValueType out_type,
                                std::uint16_t mask = kNoReg) {
    const auto reg = new_reg(out_type);
    if (!reg) return std::nullopt;
    Instr& ins = emit(op, *reg);
    ins.a = a.reg;
    ins.at = a.type;
    ins.m = mask;
    return Res{*reg, out_type};
  }

  std::optional<Res> emit_binary(Op op, const Res& a, const Res& b,
                                 ValueType out_type,
                                 std::uint16_t mask = kNoReg) {
    const auto reg = new_reg(out_type);
    if (!reg) return std::nullopt;
    Instr& ins = emit(op, *reg);
    ins.a = a.reg;
    ins.b = b.reg;
    ins.at = a.type;
    ins.bt = b.type;
    ins.m = mask;
    return Res{*reg, out_type};
  }

  // -- expression dispatch --------------------------------------------------

  std::optional<Res> compile(const Expr& e, std::uint16_t mask) {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kParam:
      case Expr::Kind::kSubquery:
        return const_slot_reg(e);
      case Expr::Kind::kColumnRef:
        return compile_column(e);
      case Expr::Kind::kUnary:
        return compile_unary(e, mask);
      case Expr::Kind::kIsNull:
        return compile_is_null(e, mask);
      case Expr::Kind::kLike:
        return compile_like(e, mask);
      case Expr::Kind::kInList:
        return compile_in_list(e, mask);
      case Expr::Kind::kFuncCall:
        return compile_func(e, mask);
      case Expr::Kind::kBinary:
        return compile_binary(e, mask);
      case Expr::Kind::kAliasRef:
      default:
        return std::nullopt;  // not a per-row scalar over the base table
    }
  }

  std::optional<Res> compile_column(const Expr& e) {
    if (e.resolved_slot < base_slot_) return std::nullopt;
    const std::size_t col = e.resolved_slot - base_slot_;
    if (col >= column_types_.size()) return std::nullopt;
    const ValueType type = column_types_[col];
    const auto reg = new_reg(type);
    if (!reg) return std::nullopt;
    Instr& ins = emit(Op::kLoadColumn, *reg);
    ins.payload = static_cast<std::uint32_t>(col);
    ins.at = type;
    prog_.used_columns_.push_back(col);
    return Res{*reg, type};
  }

  std::optional<Res> compile_unary(const Expr& e, std::uint16_t mask) {
    const auto a = compile(*e.lhs, mask);
    if (!a) return std::nullopt;
    if (a->type == ValueType::kNull) return null_reg();
    if (e.un_op == UnOp::kNot) {
      if (a->type != ValueType::kBool) return std::nullopt;
      return emit_unary(Op::kNot, *a, ValueType::kBool);
    }
    if (a->type == ValueType::kInt) {
      return emit_unary(Op::kNegI, *a, ValueType::kInt);
    }
    if (a->type == ValueType::kDouble) {
      return emit_unary(Op::kNegD, *a, ValueType::kDouble);
    }
    return std::nullopt;  // -bool / -datetime / -string throw per row
  }

  std::optional<Res> compile_is_null(const Expr& e, std::uint16_t mask) {
    const auto a = compile(*e.lhs, mask);
    if (!a) return std::nullopt;
    const auto res = emit_unary(Op::kIsNull, *a, ValueType::kBool);
    if (res) prog_.instrs_.back().flag = e.negated;
    return res;
  }

  std::optional<Res> compile_like(const Expr& e, std::uint16_t mask) {
    const auto a = compile(*e.lhs, mask);
    if (!a) return std::nullopt;
    const auto b = compile(*e.rhs, mask);
    if (!b) return std::nullopt;
    if (a->type == ValueType::kNull || b->type == ValueType::kNull) {
      return null_reg();
    }
    if (a->type != ValueType::kString || b->type != ValueType::kString) {
      return std::nullopt;
    }
    const auto res = emit_binary(Op::kLike, *a, *b, ValueType::kBool);
    if (res) prog_.instrs_.back().flag = e.negated;
    return res;
  }

  std::optional<Res> compile_in_list(const Expr& e, std::uint16_t mask) {
    const auto needle = compile(*e.lhs, mask);
    if (!needle) return std::nullopt;
    if (needle->type == ValueType::kNull) return null_reg();
    // Members must be constants: the interpreter stops scanning at the first
    // match, and constant members are the only shape whose (non-)evaluation
    // is unobservable. Types must be comparable so compare_sql can't throw.
    std::vector<std::uint32_t> slots;
    slots.reserve(e.args.size());
    for (const auto& arg : e.args) {
      if (arg == nullptr || !is_constant_expr(*arg)) return std::nullopt;
      const auto slot = const_slot_only(*arg);
      if (!slot) return std::nullopt;
      if (slot->second != ValueType::kNull &&
          !comparable_types(needle->type, slot->second)) {
        return std::nullopt;
      }
      slots.push_back(slot->first);
    }
    prog_.slot_lists_.push_back(std::move(slots));
    const auto res = emit_unary(Op::kInList, *needle, ValueType::kBool);
    if (!res) return std::nullopt;
    prog_.instrs_.back().payload =
        static_cast<std::uint32_t>(prog_.slot_lists_.size() - 1);
    prog_.instrs_.back().flag = e.negated;
    return res;
  }

  std::optional<Res> compile_func(const Expr& e, std::uint16_t mask) {
    if (e.star_arg || e.distinct_arg) return std::nullopt;
    if (e.func == "COALESCE") return compile_coalesce(e, mask);
    if (e.func == "IIF") return compile_iif(e, mask);
    if (e.func == "NULLIF") return compile_nullif(e, mask);
    if (e.func == "LEAST" || e.func == "GREATEST") {
      return compile_extremum(e, mask);
    }
    if (e.args.empty() || e.args[0] == nullptr) return std::nullopt;
    const auto a = compile(*e.args[0], mask);
    if (!a) return std::nullopt;
    if (a->type == ValueType::kNull) return null_reg();
    if (e.func == "ABS") {
      if (a->type == ValueType::kInt) {
        return emit_unary(Op::kAbsI, *a, ValueType::kInt);
      }
      if (a->type == ValueType::kDouble) {
        return emit_unary(Op::kAbsD, *a, ValueType::kDouble);
      }
      return std::nullopt;
    }
    if (e.func == "SQRT") {
      if (!numeric_type(a->type)) return std::nullopt;
      const auto m = mask_or_seed(mask);
      if (!m) return std::nullopt;
      return emit_unary(Op::kSqrt, *a, ValueType::kDouble, *m);
    }
    if (e.func == "FLOOR" || e.func == "CEIL") {
      if (!numeric_type(a->type)) return std::nullopt;
      return emit_unary(e.func == "FLOOR" ? Op::kFloorD : Op::kCeilD, *a,
                        ValueType::kDouble);
    }
    if (e.func == "ROUND") {
      if (!numeric_type(a->type)) return std::nullopt;
      std::uint32_t digits_slot = ExprProgram::kNoPayload;
      if (e.args.size() > 1 && e.args[1] != nullptr) {
        // The digits argument is evaluated per matching row; only a non-NULL
        // numeric literal is guaranteed to behave identically.
        const Expr& d = *e.args[1];
        if (d.kind != Expr::Kind::kLiteral || !d.literal.is_numeric()) {
          return std::nullopt;
        }
        const auto slot = const_slot_only(d);
        if (!slot) return std::nullopt;
        digits_slot = slot->first;
      }
      const auto res = emit_unary(Op::kRound, *a, ValueType::kDouble);
      if (res) prog_.instrs_.back().payload = digits_slot;
      return res;
    }
    if (e.func == "LENGTH") {
      if (a->type != ValueType::kString) return std::nullopt;
      return emit_unary(Op::kLength, *a, ValueType::kInt);
    }
    if (e.func == "UPPER" || e.func == "LOWER") {
      if (a->type != ValueType::kString) return std::nullopt;
      return emit_unary(e.func == "UPPER" ? Op::kUpper : Op::kLower, *a,
                        ValueType::kString);
    }
    return std::nullopt;
  }

  std::optional<Res> compile_coalesce(const Expr& e, std::uint16_t mask) {
    // Arguments evaluate left to right, each demanded only where everything
    // before it was NULL (the interpreter stops at the first non-NULL).
    std::optional<Res> merged;
    std::uint16_t arm_mask = mask;
    for (const auto& arg : e.args) {
      if (arg == nullptr) return std::nullopt;
      if (merged && can_raise(*arg)) {
        const auto m =
            refine_mask(Op::kMaskAndInvalid, arm_mask, merged->reg);
        if (!m) return std::nullopt;
        arm_mask = *m;
      }
      const auto a = compile(*arg, merged ? arm_mask : mask);
      if (!a) return std::nullopt;
      if (a->type == ValueType::kNull) continue;  // contributes nothing
      if (!merged) {
        merged = a;
        continue;
      }
      if (a->type != merged->type) return std::nullopt;  // dynamic result type
      merged = emit_binary(Op::kMergeValid, *merged, *a, merged->type);
      if (!merged) return std::nullopt;
    }
    if (!merged) return null_reg();
    return merged;
  }

  std::optional<Res> compile_iif(const Expr& e, std::uint16_t mask) {
    if (e.args.size() != 3) return std::nullopt;
    const auto cond = compile(*e.args[0], mask);
    if (!cond) return std::nullopt;
    if (cond->type == ValueType::kNull) {
      // NULL condition always takes the else arm; the then arm is never
      // evaluated by the interpreter, so it is not compiled either.
      return compile(*e.args[2], mask);
    }
    if (cond->type != ValueType::kBool) return std::nullopt;
    std::uint16_t then_mask = mask;
    if (can_raise(*e.args[1])) {
      const auto m = refine_mask(Op::kMaskAndTrue, mask, cond->reg);
      if (!m) return std::nullopt;
      then_mask = *m;
    }
    const auto then_arm = compile(*e.args[1], then_mask);
    if (!then_arm) return std::nullopt;
    std::uint16_t else_mask = mask;
    if (can_raise(*e.args[2])) {
      const auto m = refine_mask(Op::kMaskAndNotTrue, mask, cond->reg);
      if (!m) return std::nullopt;
      else_mask = *m;
    }
    const auto else_arm = compile(*e.args[2], else_mask);
    if (!else_arm) return std::nullopt;
    ValueType out = then_arm->type;
    if (out == ValueType::kNull) out = else_arm->type;
    if (else_arm->type != ValueType::kNull && else_arm->type != out) {
      return std::nullopt;  // mixed arm types = dynamic result type
    }
    if (out == ValueType::kNull) return null_reg();
    const auto reg = new_reg(out);
    if (!reg) return std::nullopt;
    Instr& ins = emit(Op::kIif, *reg);
    ins.a = cond->reg;
    ins.b = then_arm->reg;
    ins.c = else_arm->reg;
    return Res{*reg, out};
  }

  std::optional<Res> compile_nullif(const Expr& e, std::uint16_t mask) {
    if (e.args.size() != 2) return std::nullopt;
    const auto a = compile(*e.args[0], mask);
    if (!a) return std::nullopt;
    const auto b = compile(*e.args[1], mask);
    if (!b) return std::nullopt;
    if (a->type == ValueType::kNull) return null_reg();
    if (b->type == ValueType::kNull) return a;  // compare is never 0
    if (!comparable_types(a->type, b->type)) return std::nullopt;
    return emit_binary(Op::kNullIf, *a, *b, a->type);
  }

  std::optional<Res> compile_extremum(const Expr& e, std::uint16_t mask) {
    const bool want_min = e.func == "LEAST";
    std::vector<Res> args;
    for (const auto& arg : e.args) {
      if (arg == nullptr) return std::nullopt;
      const auto a = compile(*arg, mask);  // interpreter evaluates all args
      if (!a) return std::nullopt;
      if (a->type == ValueType::kNull) continue;  // NULLs are skipped
      args.push_back(*a);
    }
    if (args.empty()) return null_reg();
    const ValueType type = args[0].type;
    for (const auto& a : args) {
      if (a.type != type) return std::nullopt;  // dynamic result type
    }
    if (args.size() == 1) return args[0];
    std::vector<std::uint16_t> regs;
    regs.reserve(args.size());
    for (const auto& a : args) regs.push_back(a.reg);
    prog_.arg_lists_.push_back(std::move(regs));
    const auto reg = new_reg(type);
    if (!reg) return std::nullopt;
    Instr& ins = emit(Op::kExtremum, *reg);
    ins.at = type;
    ins.payload = static_cast<std::uint32_t>(prog_.arg_lists_.size() - 1);
    ins.flag = want_min;
    return Res{*reg, type};
  }

  std::optional<Res> compile_binary(const Expr& e, std::uint16_t mask) {
    if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
      return compile_logic(e, mask);
    }
    const auto a = compile(*e.lhs, mask);
    if (!a) return std::nullopt;
    const auto b = compile(*e.rhs, mask);
    if (!b) return std::nullopt;
    switch (e.bin_op) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kMod:
        return compile_arith(e.bin_op, *a, *b, mask);
      default:
        break;
    }
    // Comparison: NULL operands fold (compare_sql is unknown), numeric
    // pairs compare through double, same-type bool/datetime/string compare
    // natively, anything else throws per row.
    if (a->type == ValueType::kNull || b->type == ValueType::kNull) {
      return null_reg();
    }
    if (!comparable_types(a->type, b->type)) return std::nullopt;
    // `x op constant`: the constant was loaded just now, solely for this
    // comparison — drop the broadcast and compare against the bound scalar.
    const Instr& last = prog_.instrs_.back();
    if (last.op == Op::kLoadConst && last.dest == b->reg) {
      const std::uint32_t slot = last.payload;
      prog_.instrs_.pop_back();
      const auto res = emit_unary(Op::kCmpConst, *a, ValueType::kBool);
      if (res) {
        prog_.instrs_.back().cmp = e.bin_op;
        prog_.instrs_.back().payload = slot;
      }
      return res;
    }
    const auto res = emit_binary(Op::kCmp, *a, *b, ValueType::kBool);
    if (res) prog_.instrs_.back().cmp = e.bin_op;
    return res;
  }

  std::optional<Res> compile_logic(const Expr& e, std::uint16_t mask) {
    const bool is_and = e.bin_op == BinOp::kAnd;
    const auto a = compile(*e.lhs, mask);
    if (!a) return std::nullopt;
    if (a->type != ValueType::kBool && a->type != ValueType::kNull) {
      return std::nullopt;
    }
    // The interpreter skips the rhs when the lhs already decides (non-NULL
    // false for AND, non-NULL true for OR) — refine the rhs demand mask so
    // a throwing rhs only raises where the interpreter would have.
    std::uint16_t rhs_mask = mask;
    if (can_raise(*e.rhs)) {
      const auto m = refine_mask(
          is_and ? Op::kMaskAndNotFalse : Op::kMaskAndNotTrue, mask, a->reg);
      if (!m) return std::nullopt;
      rhs_mask = *m;
    }
    const auto b = compile(*e.rhs, rhs_mask);
    if (!b) return std::nullopt;
    if (b->type != ValueType::kBool && b->type != ValueType::kNull) {
      return std::nullopt;
    }
    return emit_binary(is_and ? Op::kAnd : Op::kOr, *a, *b, ValueType::kBool);
  }

  std::optional<Res> compile_arith(BinOp op, const Res& a, const Res& b,
                                   std::uint16_t mask) {
    // numeric_binop checks NULL before anything else, so a NULL operand
    // folds even against a non-numeric sibling.
    if (a.type == ValueType::kNull || b.type == ValueType::kNull) {
      return null_reg();
    }
    if (op == BinOp::kAdd && a.type == ValueType::kString &&
        b.type == ValueType::kString) {
      return emit_binary(Op::kConcat, a, b, ValueType::kString);
    }
    if (!numeric_type(a.type) || !numeric_type(b.type)) return std::nullopt;
    const bool both_int =
        a.type == ValueType::kInt && b.type == ValueType::kInt;
    if (both_int && op != BinOp::kDiv) {
      switch (op) {
        case BinOp::kAdd: return emit_binary(Op::kAddI, a, b, ValueType::kInt);
        case BinOp::kSub: return emit_binary(Op::kSubI, a, b, ValueType::kInt);
        case BinOp::kMul: return emit_binary(Op::kMulI, a, b, ValueType::kInt);
        case BinOp::kMod: {
          const auto m = mask_or_seed(mask);
          if (!m) return std::nullopt;
          return emit_binary(Op::kModI, a, b, ValueType::kInt, *m);
        }
        default: return std::nullopt;
      }
    }
    switch (op) {
      case BinOp::kAdd: return emit_binary(Op::kAddD, a, b, ValueType::kDouble);
      case BinOp::kSub: return emit_binary(Op::kSubD, a, b, ValueType::kDouble);
      case BinOp::kMul: return emit_binary(Op::kMulD, a, b, ValueType::kDouble);
      case BinOp::kDiv: {
        const auto m = mask_or_seed(mask);
        if (!m) return std::nullopt;
        return emit_binary(Op::kDivD, a, b, ValueType::kDouble, *m);
      }
      case BinOp::kMod: {
        const auto m = mask_or_seed(mask);
        if (!m) return std::nullopt;
        return emit_binary(Op::kModD, a, b, ValueType::kDouble, *m);
      }
      default: return std::nullopt;
    }
  }

  std::size_t base_slot_;
  std::span<const ValueType> column_types_;
  const ExprProgram::ConstantValueFn& constant_value_;
  ExprProgram prog_;
  std::uint16_t null_reg_ = kNoReg;
  std::uint16_t seed_mask_ = kNoReg;
};

std::shared_ptr<const ExprProgram> ExprProgram::compile(
    const Expr& root, std::size_t base_slot,
    std::span<const ValueType> column_types,
    const ConstantValueFn& constant_value) {
  ProgramBuilder builder(base_slot, column_types, constant_value);
  return builder.build(root);
}

std::optional<ExprProgram::Bound> ExprProgram::bind_constants(
    const std::function<Value(const Expr&)>& eval) const {
  Bound out;
  out.reserve(consts_.size());
  for (const auto& slot : consts_) {
    Value v = slot.literal_baked ? slot.literal : eval(*slot.expr);
    if (!v.is_null() && v.type() != slot.type) return std::nullopt;
    out.push_back(std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Interpreter

namespace {

/// Numeric lane read: int lanes promote through double exactly like
/// Value::as_double does on the row path.
inline double lane_num(const ExprProgram::Scratch::View& v, ValueType t,
                       std::size_t l) noexcept {
  return t == ValueType::kDouble ? v.d[l] : static_cast<double>(v.i[l]);
}

/// compare_sql for two same-class lanes; `at`/`bt` pre-validated comparable.
inline int lane_cmp(const ExprProgram::Scratch::View& a, ValueType at,
                    const ExprProgram::Scratch::View& b, ValueType bt,
                    std::size_t l) {
  if (numeric_type(at)) {
    const double x = lane_num(a, at, l);
    const double y = lane_num(b, bt, l);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  switch (at) {
    case ValueType::kBool:
      return static_cast<int>(a.i[l] != 0) - static_cast<int>(b.i[l] != 0);
    case ValueType::kDateTime:
      return a.i[l] < b.i[l] ? -1 : (a.i[l] > b.i[l] ? 1 : 0);
    case ValueType::kString: {
      const int c = a.s[l].compare(b.s[l]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

/// kCmpConst's lane loop. Everything arrives by value: the byte stores into
/// `dv` may alias any object in memory, so nothing the loop reads may live
/// behind a reference. `sign(l)` is lane l's three-way compare_sql result;
/// invalid lanes compare whatever their payload holds and the validity AND
/// discards the result.
template <typename Sign>
void cmp_const_loop(std::size_t n, const std::uint8_t* valid, BinOp op,
                    Sign sign, std::int64_t* di, std::uint8_t* dv) {
  for (std::size_t l = 0; l < n; ++l) {
    const std::uint8_t v = valid[l];
    di[l] = static_cast<std::int64_t>(v != 0) &
            static_cast<std::int64_t>(comparison_keeps(op, sign(l)));
    dv[l] = v;
  }
}

template <typename T>
int three_way(T x, T y) noexcept {
  return static_cast<int>(x > y) - static_cast<int>(x < y);
}

/// kCmpConst: lanes of `a` against one bound constant `c` (the literal,
/// parameter or scalar subquery of a `column op constant` filter), read as a
/// scalar instead of a broadcast register. A NULL constant compares unknown
/// on every lane.
void cmp_const_lanes(const ExprProgram::Scratch::View& a, ValueType at,
                     const Value& c, BinOp op, std::size_t n,
                     std::int64_t* di, std::uint8_t* dv) {
  if (c.is_null()) {
    std::fill_n(di, n, std::int64_t{0});
    std::fill_n(dv, n, std::uint8_t{0});
    return;
  }
  const auto cmp = [&](auto sign) {
    cmp_const_loop(n, a.valid, op, sign, di, dv);
  };
  const std::int64_t* ai = a.i;
  switch (at) {
    case ValueType::kInt:
    case ValueType::kDouble: {
      const bool a_real = at == ValueType::kDouble;
      return cmp([=, ad = a.d, y = c.as_double()](std::size_t l) {
        return three_way(a_real ? ad[l] : static_cast<double>(ai[l]), y);
      });
    }
    case ValueType::kBool:
      return cmp([=, y = c.as_bool()](std::size_t l) {
        return three_way(ai[l] != 0, y);
      });
    case ValueType::kDateTime:
      return cmp([=, y = c.as_datetime()](std::size_t l) {
        return three_way(ai[l], y);
      });
    case ValueType::kString:
      return cmp([as = a.s, y = &c.as_string()](std::size_t l) {
        return three_way(as[l].compare(*y), 0);
      });
    default:
      return cmp([](std::size_t) { return 0; });
  }
}

/// compare_sql of a lane against a bound constant Value (IN-list members);
/// the constant's runtime type equals its recorded (comparable) type.
inline bool lane_equals_const(const ExprProgram::Scratch::View& a, ValueType at,
                              std::size_t l, const Value& v) {
  if (numeric_type(at)) return lane_num(a, at, l) == v.as_double();
  switch (at) {
    case ValueType::kBool:
      return (a.i[l] != 0) == v.as_bool();
    case ValueType::kDateTime:
      return a.i[l] == v.as_datetime();
    case ValueType::kString:
      return a.s[l] == v.as_string();
    default:
      return false;
  }
}

}  // namespace

ExprProgram::Result ExprProgram::run(Scratch& scratch, const Bound& bound,
                                     std::span<const Table::ColumnSlice> columns,
                                     const std::uint8_t* demand,
                                     std::size_t begin, std::size_t end) const {
  const std::size_t n = end - begin;
  if (scratch.views.size() != reg_types_.size()) {
    scratch.views.assign(reg_types_.size(), {});
    scratch.bufs.clear();
    scratch.bufs.resize(reg_types_.size());
    scratch.const_tag = nullptr;
  }
  if (scratch.ones.empty()) scratch.ones.assign(kBatch, 1);
  const bool fill_consts = scratch.const_tag != static_cast<const void*>(&bound);
  scratch.const_tag = &bound;

  const auto own_i = [&](std::uint16_t r) {
    auto& buf = scratch.bufs[r].i;
    if (buf.empty()) buf.resize(kBatch);
    scratch.views[r].i = buf.data();
    return buf.data();
  };
  const auto own_d = [&](std::uint16_t r) {
    auto& buf = scratch.bufs[r].d;
    if (buf.empty()) buf.resize(kBatch);
    scratch.views[r].d = buf.data();
    return buf.data();
  };
  const auto own_s = [&](std::uint16_t r) {
    auto& buf = scratch.bufs[r].s;
    if (buf.empty()) buf.resize(kBatch);
    scratch.views[r].s = buf.data();
    return buf.data();
  };
  const auto own_v = [&](std::uint16_t r) {
    auto& buf = scratch.bufs[r].valid;
    if (buf.empty()) buf.resize(kBatch);
    scratch.views[r].valid = buf.data();
    return buf.data();
  };

  for (const Instr& ins : instrs_) {
    const Scratch::View a =
        ins.a != kNoReg ? scratch.views[ins.a] : Scratch::View{};
    const Scratch::View b =
        ins.b != kNoReg ? scratch.views[ins.b] : Scratch::View{};
    switch (ins.op) {
      case Op::kLoadColumn: {
        const Table::ColumnSlice& cs = columns[ins.payload];
        Scratch::View& v = scratch.views[ins.dest];
        v.i = cs.ints != nullptr ? cs.ints + begin : nullptr;
        v.d = cs.reals != nullptr ? cs.reals + begin : nullptr;
        v.s = cs.strs != nullptr ? cs.strs + begin : nullptr;
        v.valid = cs.valid + begin;
        break;
      }
      case Op::kLoadConst: {
        if (!fill_consts && scratch.views[ins.dest].valid != nullptr) break;
        std::uint8_t* valid = own_v(ins.dest);
        if (ins.payload == kNoPayload) {  // canonical NULL register
          std::int64_t* di = own_i(ins.dest);
          double* dd = own_d(ins.dest);
          std::string* ds = own_s(ins.dest);
          for (std::size_t l = 0; l < kBatch; ++l) {
            valid[l] = 0;
            di[l] = 0;
            dd[l] = 0.0;
            ds[l].clear();
          }
          break;
        }
        const Value& v = bound[ins.payload];
        const ValueType type = consts_[ins.payload].type;
        if (v.is_null()) {
          std::fill_n(valid, kBatch, std::uint8_t{0});
          // Zero whichever lane the type owns so copies through it are
          // deterministic.
          if (type == ValueType::kDouble) {
            std::fill_n(own_d(ins.dest), kBatch, 0.0);
          } else if (type == ValueType::kString) {
            std::string* ds = own_s(ins.dest);
            for (std::size_t l = 0; l < kBatch; ++l) ds[l].clear();
          } else {
            std::fill_n(own_i(ins.dest), kBatch, std::int64_t{0});
          }
          break;
        }
        std::fill_n(valid, kBatch, std::uint8_t{1});
        switch (type) {
          case ValueType::kBool:
            std::fill_n(own_i(ins.dest), kBatch,
                        static_cast<std::int64_t>(v.as_bool() ? 1 : 0));
            break;
          case ValueType::kInt:
            std::fill_n(own_i(ins.dest), kBatch, v.as_int());
            break;
          case ValueType::kDateTime:
            std::fill_n(own_i(ins.dest), kBatch, v.as_datetime());
            break;
          case ValueType::kDouble:
            std::fill_n(own_d(ins.dest), kBatch, v.as_double());
            break;
          case ValueType::kString: {
            std::string* ds = own_s(ins.dest);
            for (std::size_t l = 0; l < kBatch; ++l) ds[l] = v.as_string();
            break;
          }
          default:
            break;
        }
        break;
      }
      case Op::kNegI: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          di[l] = wrap_neg(a.i[l]);
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kNegD: {
        double* dd = own_d(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          dd[l] = -a.d[l];
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kNot: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          di[l] = a.i[l] != 0 ? 0 : 1;
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kAddI:
      case Op::kSubI:
      case Op::kMulI: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const std::int64_t x = a.i[l];
          const std::int64_t y = b.i[l];
          di[l] = ins.op == Op::kAddI   ? wrap_add(x, y)
                  : ins.op == Op::kSubI ? wrap_sub(x, y)
                                        : wrap_mul(x, y);
          dv[l] = a.valid[l] & b.valid[l];
        }
        break;
      }
      case Op::kModI: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        const std::uint8_t* m = scratch.views[ins.m].valid;
        for (std::size_t l = 0; l < n; ++l) {
          const std::uint8_t v = a.valid[l] & b.valid[l];
          const std::int64_t y = b.i[l];
          if (y == 0) {
            if (v != 0 && m[l] != 0) throw EvalError("modulo by zero");
            di[l] = 0;
          } else if (y == -1) {
            di[l] = 0;  // matches x % -1 without the INT64_MIN trap
          } else {
            di[l] = a.i[l] % y;
          }
          dv[l] = v;
        }
        break;
      }
      case Op::kAddD:
      case Op::kSubD:
      case Op::kMulD: {
        double* dd = own_d(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const double x = lane_num(a, ins.at, l);
          const double y = lane_num(b, ins.bt, l);
          dd[l] = ins.op == Op::kAddD   ? x + y
                  : ins.op == Op::kSubD ? x - y
                                        : x * y;
          dv[l] = a.valid[l] & b.valid[l];
        }
        break;
      }
      case Op::kDivD:
      case Op::kModD: {
        double* dd = own_d(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        const std::uint8_t* m = scratch.views[ins.m].valid;
        const bool is_div = ins.op == Op::kDivD;
        for (std::size_t l = 0; l < n; ++l) {
          const std::uint8_t v = a.valid[l] & b.valid[l];
          const double x = lane_num(a, ins.at, l);
          const double y = lane_num(b, ins.bt, l);
          if (y == 0.0) {
            if (v != 0 && m[l] != 0) {
              throw EvalError(is_div ? "division by zero" : "modulo by zero");
            }
            dd[l] = 0.0;
          } else {
            dd[l] = is_div ? x / y : std::fmod(x, y);
          }
          dv[l] = v;
        }
        break;
      }
      case Op::kConcat: {
        std::string* ds = own_s(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const std::uint8_t v = a.valid[l] & b.valid[l];
          if (v != 0) {
            ds[l] = a.s[l];
            ds[l] += b.s[l];
          } else {
            ds[l].clear();
          }
          dv[l] = v;
        }
        break;
      }
      case Op::kCmp: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const std::uint8_t v = a.valid[l] & b.valid[l];
          di[l] = v != 0 && comparison_keeps(
                                ins.cmp, lane_cmp(a, ins.at, b, ins.bt, l))
                      ? 1
                      : 0;
          dv[l] = v;
        }
        break;
      }
      case Op::kCmpConst:
        cmp_const_lanes(a, ins.at, bound[ins.payload], ins.cmp, n,
                        own_i(ins.dest), own_v(ins.dest));
        break;
      case Op::kAnd: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const bool a_false = a.valid[l] != 0 && a.i[l] == 0;
          const bool b_false = b.valid[l] != 0 && b.i[l] == 0;
          if (a_false || b_false) {
            di[l] = 0;
            dv[l] = 1;
          } else if (a.valid[l] == 0 || b.valid[l] == 0) {
            di[l] = 0;
            dv[l] = 0;
          } else {
            di[l] = 1;
            dv[l] = 1;
          }
        }
        break;
      }
      case Op::kOr: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const bool a_true = a.valid[l] != 0 && a.i[l] != 0;
          const bool b_true = b.valid[l] != 0 && b.i[l] != 0;
          if (a_true || b_true) {
            di[l] = 1;
            dv[l] = 1;
          } else if (a.valid[l] == 0 || b.valid[l] == 0) {
            di[l] = 0;
            dv[l] = 0;
          } else {
            di[l] = 0;
            dv[l] = 1;
          }
        }
        break;
      }
      case Op::kIsNull: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const bool null = a.valid[l] == 0;
          di[l] = (ins.flag ? !null : null) ? 1 : 0;
          dv[l] = 1;
        }
        break;
      }
      case Op::kLike: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          const std::uint8_t v = a.valid[l] & b.valid[l];
          if (v != 0) {
            const bool match = like_match(a.s[l], b.s[l]);
            di[l] = (ins.flag ? !match : match) ? 1 : 0;
          } else {
            di[l] = 0;
          }
          dv[l] = v;
        }
        break;
      }
      case Op::kInList: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        const auto& slots = slot_lists_[ins.payload];
        for (std::size_t l = 0; l < n; ++l) {
          if (a.valid[l] == 0) {
            di[l] = 0;
            dv[l] = 0;
            continue;
          }
          bool saw_null = false;
          bool matched = false;
          for (const std::uint32_t slot : slots) {
            const Value& v = bound[slot];
            if (v.is_null()) {
              saw_null = true;
              continue;
            }
            if (lane_equals_const(a, ins.at, l, v)) {
              matched = true;
              break;
            }
          }
          if (matched) {
            di[l] = ins.flag ? 0 : 1;
            dv[l] = 1;
          } else if (saw_null) {
            di[l] = 0;
            dv[l] = 0;
          } else {
            di[l] = ins.flag ? 1 : 0;
            dv[l] = 1;
          }
        }
        break;
      }
      case Op::kIif:
      case Op::kMergeValid: {
        const Scratch::View c =
            ins.op == Op::kIif ? scratch.views[ins.c] : Scratch::View{};
        const ValueType type = reg_types_[ins.dest];
        std::uint8_t* dv = own_v(ins.dest);
        std::int64_t* di = nullptr;
        double* dd = nullptr;
        std::string* ds = nullptr;
        if (type == ValueType::kDouble) {
          dd = own_d(ins.dest);
        } else if (type == ValueType::kString) {
          ds = own_s(ins.dest);
        } else {
          di = own_i(ins.dest);
        }
        for (std::size_t l = 0; l < n; ++l) {
          const Scratch::View& src =
              ins.op == Op::kIif
                  ? ((a.valid[l] != 0 && a.i[l] != 0) ? b : c)
                  : (a.valid[l] != 0 ? a : b);
          dv[l] = src.valid[l];
          if (dd != nullptr) {
            dd[l] = src.d != nullptr ? src.d[l] : 0.0;
          } else if (ds != nullptr) {
            ds[l] = src.s != nullptr ? src.s[l] : std::string();
          } else {
            di[l] = src.i != nullptr ? src.i[l] : 0;
          }
        }
        break;
      }
      case Op::kNullIf: {
        const ValueType type = reg_types_[ins.dest];
        std::uint8_t* dv = own_v(ins.dest);
        std::int64_t* di = nullptr;
        double* dd = nullptr;
        std::string* ds = nullptr;
        if (type == ValueType::kDouble) {
          dd = own_d(ins.dest);
        } else if (type == ValueType::kString) {
          ds = own_s(ins.dest);
        } else {
          di = own_i(ins.dest);
        }
        for (std::size_t l = 0; l < n; ++l) {
          std::uint8_t v = a.valid[l];
          if (v != 0 && b.valid[l] != 0 &&
              lane_cmp(a, ins.at, b, ins.bt, l) == 0) {
            v = 0;
          }
          dv[l] = v;
          if (dd != nullptr) {
            dd[l] = a.d != nullptr ? a.d[l] : 0.0;
          } else if (ds != nullptr) {
            ds[l] = a.s != nullptr ? a.s[l] : std::string();
          } else {
            di[l] = a.i != nullptr ? a.i[l] : 0;
          }
        }
        break;
      }
      case Op::kExtremum: {
        const auto& regs = arg_lists_[ins.payload];
        const ValueType type = ins.at;
        std::uint8_t* dv = own_v(ins.dest);
        std::int64_t* di = nullptr;
        double* dd = nullptr;
        std::string* ds = nullptr;
        if (type == ValueType::kDouble) {
          dd = own_d(ins.dest);
        } else if (type == ValueType::kString) {
          ds = own_s(ins.dest);
        } else {
          di = own_i(ins.dest);
        }
        for (std::size_t l = 0; l < n; ++l) {
          const Scratch::View* best = nullptr;
          for (const std::uint16_t r : regs) {
            const Scratch::View& arg = scratch.views[r];
            if (arg.valid[l] == 0) continue;  // NULL-skipping extrema
            if (best == nullptr) {
              best = &arg;
              continue;
            }
            const int cmp = lane_cmp(arg, type, *best, type, l);
            if (ins.flag ? cmp < 0 : cmp > 0) best = &arg;
          }
          if (best == nullptr) {
            dv[l] = 0;
            if (dd != nullptr) {
              dd[l] = 0.0;
            } else if (ds != nullptr) {
              ds[l].clear();
            } else {
              di[l] = 0;
            }
            continue;
          }
          dv[l] = 1;
          if (dd != nullptr) {
            dd[l] = best->d[l];
          } else if (ds != nullptr) {
            ds[l] = best->s[l];
          } else {
            di[l] = best->i[l];
          }
        }
        break;
      }
      case Op::kAbsI: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          di[l] = a.i[l] < 0 ? wrap_neg(a.i[l]) : a.i[l];
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kAbsD: {
        double* dd = own_d(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          dd[l] = std::fabs(a.d[l]);
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kSqrt: {
        double* dd = own_d(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        const std::uint8_t* m = scratch.views[ins.m].valid;
        for (std::size_t l = 0; l < n; ++l) {
          const double x = lane_num(a, ins.at, l);
          if (a.valid[l] != 0 && x < 0) {
            if (m[l] != 0) throw EvalError("SQRT of negative value");
            dd[l] = 0.0;
          } else {
            dd[l] = std::sqrt(x);
          }
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kFloorD:
      case Op::kCeilD: {
        double* dd = own_d(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        const bool is_floor = ins.op == Op::kFloorD;
        for (std::size_t l = 0; l < n; ++l) {
          const double x = lane_num(a, ins.at, l);
          dd[l] = is_floor ? std::floor(x) : std::ceil(x);
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kRound: {
        double* dd = own_d(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        const double digits =
            ins.payload != kNoPayload ? bound[ins.payload].as_double() : 0.0;
        const double scale = std::pow(10.0, digits);
        for (std::size_t l = 0; l < n; ++l) {
          dd[l] = std::round(lane_num(a, ins.at, l) * scale) / scale;
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kLength: {
        std::int64_t* di = own_i(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          di[l] = static_cast<std::int64_t>(a.s[l].size());
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kUpper:
      case Op::kLower: {
        std::string* ds = own_s(ins.dest);
        std::uint8_t* dv = own_v(ins.dest);
        const bool upper = ins.op == Op::kUpper;
        for (std::size_t l = 0; l < n; ++l) {
          if (a.valid[l] != 0) {
            ds[l] = upper ? support::to_upper(a.s[l]) : support::to_lower(a.s[l]);
          } else {
            ds[l].clear();
          }
          dv[l] = a.valid[l];
        }
        break;
      }
      case Op::kMaskSeed: {
        scratch.views[ins.dest].valid =
            demand != nullptr ? demand + begin : scratch.ones.data();
        break;
      }
      case Op::kMaskAndTrue:
      case Op::kMaskAndNotTrue:
      case Op::kMaskAndNotFalse: {
        std::uint8_t* dv = own_v(ins.dest);
        const bool want_true = ins.op != Op::kMaskAndNotFalse;
        const bool keep_on = ins.op == Op::kMaskAndTrue;
        for (std::size_t l = 0; l < n; ++l) {
          const bool hit =
              b.valid[l] != 0 && (want_true ? b.i[l] != 0 : b.i[l] == 0);
          dv[l] = (a.valid[l] != 0 && (keep_on ? hit : !hit)) ? 1 : 0;
        }
        break;
      }
      case Op::kMaskAndInvalid: {
        std::uint8_t* dv = own_v(ins.dest);
        for (std::size_t l = 0; l < n; ++l) {
          dv[l] = (a.valid[l] != 0 && b.valid[l] == 0) ? 1 : 0;
        }
        break;
      }
    }
  }

  Result out;
  out.type = root_type_;
  const Scratch::View& root = scratch.views[root_reg_];
  out.ints = root.i;
  out.reals = root.d;
  out.strs = root.s;
  out.valid = root.valid;
  return out;
}

}  // namespace kojak::db::sql
