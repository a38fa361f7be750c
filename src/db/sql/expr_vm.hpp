#ifndef KOJAK_DB_SQL_EXPR_VM_HPP
#define KOJAK_DB_SQL_EXPR_VM_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "db/sql/ast.hpp"
#include "db/table.hpp"
#include "db/value.hpp"

namespace kojak::db::sql {

/// SQL LIKE with '%' (any run) and '_' (single char). Shared by the row-path
/// interpreter and the batch VM so both agree on every pattern.
[[nodiscard]] bool like_match(std::string_view text, std::string_view pattern);

/// A scalar expression compiled to a register-based batch program over one
/// columnar base table.
///
/// Execution model: registers are 1024-lane typed vectors (int64 / double /
/// string lanes mirroring `Table::ColumnSlice`) plus a validity bitmap —
/// SQL three-valued NULL semantics are carried per lane. Every instruction
/// writes all lanes of its batch eagerly; laziness in the source semantics
/// (AND/OR short-circuit, IIF arms, COALESCE chains) only matters for
/// side-effects, and the only side-effects are the errors raised by `/`,
/// `%` and SQRT — those instructions carry a *demand mask* refined at each
/// control point so an error is raised exactly when the row-path interpreter
/// would have raised one. (When several lanes would error, which error text
/// surfaces first may differ: the VM is instruction-major where the row path
/// is row-major. Both paths still throw.)
///
/// Static typing: compilation infers one `ValueType` per register by
/// replicating the interpreter's dynamic typing rules. Shapes whose result
/// type is not statically fixed (mixed int/double IIF arms, NOT over a
/// non-bool, incomparable comparison operands, ...) are *declined* —
/// `compile` returns nullptr and the statement stays on the row path, which
/// raises its usual per-row diagnostics. A NULL-typed operand folds at
/// compile time wherever the interpreter would propagate NULL.
///
/// Parameters and scalar subqueries become runtime-constant slots: the
/// program records the `ValueType` each slot had at compile time and
/// `bind_constants` re-evaluates them per execution — a non-NULL runtime
/// value of a different type declines that execution (row path fallback),
/// NULL is always acceptable (an all-NULL lane).
class ExprProgram {
 public:
  static constexpr std::size_t kBatch = 1024;
  static constexpr std::uint32_t kNoPayload = 0xffffffffu;

  enum class Op : std::uint8_t {
    kLoadColumn,       // dest <- view over columns[payload] at batch offset
    kLoadConst,        // dest <- broadcast constants[payload]
    kNegI,             // dest = -a            (int lanes)
    kNegD,             // dest = -num(a)       (double lanes)
    kNot,              // dest = !a            (bool lanes)
    kAddI, kSubI, kMulI, kModI,          // both-int arithmetic; kModI throws
    kAddD, kSubD, kMulD, kDivD, kModD,   // double arithmetic; kDivD/kModD throw
    kConcat,           // dest = a + b         (string lanes)
    kCmp,              // dest = compare_sql(a, b) under `cmp` (bool lanes)
    kCmpConst,         // dest = compare_sql(a, constants[payload]) under `cmp`
    kAnd, kOr,         // three-valued logic over bool lanes
    kIsNull,           // dest = a IS [NOT] NULL        (flag = negated)
    kLike,             // dest = a LIKE b               (flag = negated)
    kInList,           // dest = a IN (constant slots)  (flag = negated)
    kIif,              // dest = (a valid && true) ? b : c
    kMergeValid,       // dest = a valid ? a : b        (COALESCE step)
    kNullIf,           // dest = a, NULL where compare_sql(a, b) == 0
    kExtremum,         // dest = LEAST/GREATEST(arg regs)  (flag = want_min)
    kAbsI, kAbsD,      // int / double ABS
    kSqrt,             // throws on negative input
    kFloorD, kCeilD,   // numeric -> double
    kRound,            // payload = const slot of digits (kNoPayload = 0)
    kLength, kUpper, kLower,
    kMaskSeed,         // dest mask <- demand bitmap (all-ones when absent)
    kMaskAndTrue,      // dest = a & (b valid && true)
    kMaskAndNotTrue,   // dest = a & !(b valid && true)
    kMaskAndNotFalse,  // dest = a & !(b valid && false)
    kMaskAndInvalid,   // dest = a & !b.valid
  };

  struct Instr {
    Op op;
    std::uint16_t dest = 0;
    std::uint16_t a = 0xffff, b = 0xffff, c = 0xffff;
    std::uint16_t m = 0xffff;      // demand mask register for throwing ops
    ValueType at = ValueType::kNull;  // operand lane types where dispatch
    ValueType bt = ValueType::kNull;  // depends on them (kCmp, kNullIf, ...)
    BinOp cmp = BinOp::kEq;
    std::uint32_t payload = kNoPayload;  // column / const slot / arg list
    bool flag = false;
  };

  /// A runtime-constant slot: a literal (expr == nullptr for the canonical
  /// NULL register, value baked in) or a param / scalar-subquery expression
  /// re-evaluated per execution. `type` is the lane type recorded at
  /// compile time.
  struct ConstSlot {
    const Expr* expr = nullptr;
    ValueType type = ValueType::kNull;
    Value literal;       // valid when literal_baked
    bool literal_baked = false;
  };

  /// Per-execution constant bindings (`bind_constants` result).
  using Bound = std::vector<Value>;

  /// Reusable per-thread batch workspace. Owned register storage is
  /// allocated lazily on first use and reused across batches; constant
  /// registers are re-broadcast only when the bound constants change.
  struct Scratch {
    struct RegBuf {
      std::vector<std::int64_t> i;
      std::vector<double> d;
      std::vector<std::string> s;
      std::vector<std::uint8_t> valid;
    };
    std::vector<RegBuf> bufs;
    struct View {
      const std::int64_t* i = nullptr;
      const double* d = nullptr;
      const std::string* s = nullptr;
      const std::uint8_t* valid = nullptr;
    };
    std::vector<View> views;
    std::vector<std::uint8_t> ones;     // all-demanded mask seed
    const void* const_tag = nullptr;    // Bound the const regs are filled for
  };

  /// Root-register view for the lanes of the batch just executed.
  struct Result {
    ValueType type = ValueType::kNull;
    const std::int64_t* ints = nullptr;
    const double* reals = nullptr;
    const std::string* strs = nullptr;
    const std::uint8_t* valid = nullptr;

    /// Wraps the result as a ColumnSlice (batch-relative lanes) so the
    /// existing aggregate / group-key kernels consume it unchanged.
    [[nodiscard]] Table::ColumnSlice as_slice(std::size_t lanes) const {
      Table::ColumnSlice s;
      s.ints = ints;
      s.reals = reals;
      s.strs = strs;
      s.valid = valid;
      s.size = lanes;
      return s;
    }
  };

  /// Resolves compile-time values for params and scalar subqueries; nullopt
  /// records the slot as NULL-typed (used by explain, where no values
  /// exist — real executions then decline at bind time if the runtime
  /// value is non-NULL of another type).
  using ConstantValueFn = std::function<std::optional<Value>(const Expr&)>;

  /// Compiles `root` against a base table whose binder slots start at
  /// `base_slot` and whose schema is `column_types`. Returns nullptr when
  /// any sub-shape falls outside the VM (the caller keeps the row path).
  [[nodiscard]] static std::shared_ptr<const ExprProgram> compile(
      const Expr& root, std::size_t base_slot,
      std::span<const ValueType> column_types,
      const ConstantValueFn& constant_value);

  [[nodiscard]] ValueType result_type() const noexcept { return root_type_; }

  /// Columns the program loads (base-relative, sorted, unique).
  [[nodiscard]] const std::vector<std::size_t>& used_columns() const noexcept {
    return used_columns_;
  }

  /// Evaluates every runtime-constant slot with `eval` and validates the
  /// result types against compile-time expectations. nullopt = declined
  /// (this execution falls back to the row path).
  [[nodiscard]] std::optional<Bound> bind_constants(
      const std::function<Value(const Expr&)>& eval) const;

  /// Executes the program over lanes [begin, end) of one partition.
  /// `columns` is indexed by base-relative column index (only
  /// `used_columns()` entries are read). `demand` is the partition-wide
  /// bitmap of lanes the row-path interpreter would have evaluated (live
  /// bits for WHERE / join keys, the selection bitmap for aggregate
  /// arguments); errors are raised only on demanded lanes. nullptr = all
  /// demanded. Result lanes are batch-relative (lane 0 == `begin`); lanes
  /// outside the demand set hold unspecified values.
  Result run(Scratch& scratch, const Bound& bound,
             std::span<const Table::ColumnSlice> columns,
             const std::uint8_t* demand, std::size_t begin,
             std::size_t end) const;

 private:
  friend class ProgramBuilder;

  std::vector<Instr> instrs_;
  std::vector<ConstSlot> consts_;
  std::vector<std::vector<std::uint16_t>> arg_lists_;  // kExtremum reg ids
  std::vector<std::vector<std::uint32_t>> slot_lists_; // kInList const slots
  std::vector<ValueType> reg_types_;
  std::vector<std::size_t> used_columns_;
  std::uint16_t root_reg_ = 0;
  ValueType root_type_ = ValueType::kNull;
};

}  // namespace kojak::db::sql

#endif  // KOJAK_DB_SQL_EXPR_VM_HPP
