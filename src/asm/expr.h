// Expression evaluation for assembler operands and directives.
//
// Two value categories exist, mirroring classic assembler semantics:
//
//  * absolute   — a plain 64-bit constant (.EQU values, field positions,
//                 immediate operands built from defines);
//  * relocatable — `label + constant`, whose final value is only known at
//                 link time. These may appear wherever a 32-bit immediate is
//                 encoded (LOAD address operands, JMP/CALL targets, .DD data)
//                 and become relocation records.
//
// Arithmetic follows the usual rules: reloc ± abs stays relocatable,
// abs-only operators (*, /, shifts, bitwise, comparisons) require absolute
// operands, reloc − reloc is not supported (cross-section distances are not
// meaningful before linking in this toolchain).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "asm/token.h"
#include "support/diagnostics.h"

namespace advm::assembler {

/// Result of evaluating an expression.
struct ExprValue {
  std::int64_t constant = 0;
  std::string symbol;  ///< empty → absolute; otherwise relocatable base

  [[nodiscard]] bool is_absolute() const { return symbol.empty(); }

  static ExprValue absolute(std::int64_t v) { return {v, {}}; }
  static ExprValue relocatable(std::string sym, std::int64_t addend = 0) {
    return {addend, std::move(sym)};
  }

  friend bool operator==(const ExprValue&, const ExprValue&) = default;
};

/// How the evaluator resolves identifiers.
///
/// Returning nullopt means "unknown here" — the evaluator then either
/// (a) treats the identifier as a relocatable label reference, if the caller
/// allowed forward references, or (b) reports an error.
using SymbolLookup =
    std::function<std::optional<ExprValue>(std::string_view name)>;

struct EvalOptions {
  /// Permit unknown identifiers as forward label references (instruction
  /// immediates, .DD). Off for .EQU/.IF, which need values *now*.
  bool allow_forward_refs = false;
};

/// Evaluates the token range [begin, end-of-tokens or first unconsumable
/// token] of a line of `file` (which names the line in diagnostics). On
/// success returns the value and sets `consumed` to the number of tokens
/// used. On failure reports a diagnostic and returns nullopt.
[[nodiscard]] std::optional<ExprValue> evaluate_expr(
    std::span<const Token> tokens, const std::string& file,
    std::size_t& consumed, const SymbolLookup& lookup,
    const EvalOptions& options, support::DiagnosticEngine& diags);

/// Convenience: evaluates and requires that the whole span (up to EOL) is an
/// absolute value.
[[nodiscard]] std::optional<std::int64_t> evaluate_absolute(
    std::span<const Token> tokens, const std::string& file,
    std::size_t& consumed, const SymbolLookup& lookup,
    support::DiagnosticEngine& diags);

}  // namespace advm::assembler
