#include "asm/expr.h"

#include "support/text.h"

namespace advm::assembler {

namespace {

/// Recursive-descent evaluator with precedence climbing.
class Evaluator {
 public:
  Evaluator(std::span<const Token> tokens, const std::string& file,
            const SymbolLookup& lookup, const EvalOptions& options,
            support::DiagnosticEngine& diags)
      : tokens_(tokens),
        file_(file),
        lookup_(lookup),
        options_(options),
        diags_(diags) {}

  std::optional<ExprValue> run(std::size_t& consumed) {
    auto v = parse_or();
    consumed = pos_;
    return v;
  }

 private:
  const Token& peek() const {
    static const Token eol{TokenKind::EndOfLine, "", 0, 0, 0};
    return pos_ < tokens_.size() ? tokens_[pos_] : eol;
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }
  bool match(std::string_view punct) {
    if (peek().is_punct(punct)) {
      ++pos_;
      return true;
    }
    return false;
  }

  void error(std::string message) {
    if (!errored_) {
      diags_.error("asm.bad-expression", std::move(message),
                   peek().loc_in(file_));
      errored_ = true;
    }
  }

  /// Requires both operands absolute; reports otherwise.
  bool require_absolute(const ExprValue& a, const ExprValue& b,
                        std::string_view op) {
    if (a.is_absolute() && b.is_absolute()) return true;
    error("operator '" + std::string(op) +
          "' requires absolute operands (relocatable label involved)");
    return false;
  }

  std::optional<ExprValue> parse_or() {
    auto lhs = parse_and();
    if (!lhs) return std::nullopt;
    while (peek().is_punct("||")) {
      advance();
      auto rhs = parse_and();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, "||")) return std::nullopt;
      lhs = ExprValue::absolute((lhs->constant != 0 || rhs->constant != 0));
    }
    return lhs;
  }

  std::optional<ExprValue> parse_and() {
    auto lhs = parse_cmp();
    if (!lhs) return std::nullopt;
    while (peek().is_punct("&&")) {
      advance();
      auto rhs = parse_cmp();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, "&&")) return std::nullopt;
      lhs = ExprValue::absolute((lhs->constant != 0 && rhs->constant != 0));
    }
    return lhs;
  }

  std::optional<ExprValue> parse_cmp() {
    auto lhs = parse_bitor();
    if (!lhs) return std::nullopt;
    for (;;) {
      std::string_view op;
      for (std::string_view candidate :
           {"==", "!=", "<=", ">=", "<", ">"}) {
        if (peek().is_punct(candidate)) {
          op = candidate;
          break;
        }
      }
      if (op.empty()) return lhs;
      advance();
      auto rhs = parse_bitor();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, op)) return std::nullopt;
      const std::int64_t a = lhs->constant;
      const std::int64_t b = rhs->constant;
      std::int64_t r = 0;
      if (op == "==") r = a == b;
      else if (op == "!=") r = a != b;
      else if (op == "<=") r = a <= b;
      else if (op == ">=") r = a >= b;
      else if (op == "<") r = a < b;
      else r = a > b;
      lhs = ExprValue::absolute(r);
    }
  }

  std::optional<ExprValue> parse_bitor() {
    auto lhs = parse_bitxor();
    if (!lhs) return std::nullopt;
    while (peek().is_punct("|")) {
      advance();
      auto rhs = parse_bitxor();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, "|")) return std::nullopt;
      lhs = ExprValue::absolute(lhs->constant | rhs->constant);
    }
    return lhs;
  }

  std::optional<ExprValue> parse_bitxor() {
    auto lhs = parse_bitand();
    if (!lhs) return std::nullopt;
    while (peek().is_punct("^")) {
      advance();
      auto rhs = parse_bitand();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, "^")) return std::nullopt;
      lhs = ExprValue::absolute(lhs->constant ^ rhs->constant);
    }
    return lhs;
  }

  std::optional<ExprValue> parse_bitand() {
    auto lhs = parse_shift();
    if (!lhs) return std::nullopt;
    while (peek().is_punct("&")) {
      advance();
      auto rhs = parse_shift();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, "&")) return std::nullopt;
      lhs = ExprValue::absolute(lhs->constant & rhs->constant);
    }
    return lhs;
  }

  std::optional<ExprValue> parse_shift() {
    auto lhs = parse_additive();
    if (!lhs) return std::nullopt;
    for (;;) {
      bool left = peek().is_punct("<<");
      bool right = peek().is_punct(">>");
      if (!left && !right) return lhs;
      advance();
      auto rhs = parse_additive();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, left ? "<<" : ">>"))
        return std::nullopt;
      if (rhs->constant < 0 || rhs->constant > 63) {
        error("shift amount out of range");
        return std::nullopt;
      }
      const auto sh = static_cast<unsigned>(rhs->constant);
      const auto lu = static_cast<std::uint64_t>(lhs->constant);
      lhs = ExprValue::absolute(
          static_cast<std::int64_t>(left ? (lu << sh) : (lu >> sh)));
    }
  }

  std::optional<ExprValue> parse_additive() {
    auto lhs = parse_multiplicative();
    if (!lhs) return std::nullopt;
    for (;;) {
      bool add = peek().is_punct("+");
      bool sub = peek().is_punct("-");
      if (!add && !sub) return lhs;
      advance();
      auto rhs = parse_multiplicative();
      if (!rhs) return std::nullopt;
      if (add) {
        if (!lhs->is_absolute() && !rhs->is_absolute()) {
          error("cannot add two relocatable values");
          return std::nullopt;
        }
        std::string sym = lhs->is_absolute() ? rhs->symbol : lhs->symbol;
        lhs = ExprValue{lhs->constant + rhs->constant, std::move(sym)};
      } else {
        if (!rhs->is_absolute()) {
          error("cannot subtract a relocatable value");
          return std::nullopt;
        }
        lhs = ExprValue{lhs->constant - rhs->constant, lhs->symbol};
      }
    }
  }

  std::optional<ExprValue> parse_multiplicative() {
    auto lhs = parse_unary();
    if (!lhs) return std::nullopt;
    for (;;) {
      std::string_view op;
      for (std::string_view candidate : {"*", "/", "%"}) {
        if (peek().is_punct(candidate)) {
          op = candidate;
          break;
        }
      }
      if (op.empty()) return lhs;
      advance();
      auto rhs = parse_unary();
      if (!rhs) return std::nullopt;
      if (!require_absolute(*lhs, *rhs, op)) return std::nullopt;
      if ((op == "/" || op == "%") && rhs->constant == 0) {
        error("division by zero in constant expression");
        return std::nullopt;
      }
      std::int64_t r = 0;
      if (op == "*") r = lhs->constant * rhs->constant;
      else if (op == "/") r = lhs->constant / rhs->constant;
      else r = lhs->constant % rhs->constant;
      lhs = ExprValue::absolute(r);
    }
  }

  std::optional<ExprValue> parse_unary() {
    if (match("-")) {
      auto v = parse_unary();
      if (!v) return std::nullopt;
      if (!v->is_absolute()) {
        error("cannot negate a relocatable value");
        return std::nullopt;
      }
      return ExprValue::absolute(-v->constant);
    }
    if (match("+")) return parse_unary();
    if (match("~")) {
      auto v = parse_unary();
      if (!v) return std::nullopt;
      if (!v->is_absolute()) {
        error("cannot complement a relocatable value");
        return std::nullopt;
      }
      return ExprValue::absolute(~v->constant);
    }
    if (match("!")) {
      auto v = parse_unary();
      if (!v) return std::nullopt;
      if (!v->is_absolute()) {
        error("cannot logically negate a relocatable value");
        return std::nullopt;
      }
      return ExprValue::absolute(v->constant == 0);
    }
    return parse_primary();
  }

  std::optional<ExprValue> parse_primary() {
    const Token& t = peek();
    if (t.kind == TokenKind::Number) {
      advance();
      return ExprValue::absolute(t.value);
    }
    if (t.is_punct("(")) {
      advance();
      auto v = parse_or();
      if (!v) return std::nullopt;
      if (!match(")")) {
        error("expected ')'");
        return std::nullopt;
      }
      return v;
    }
    if (t.is_ident()) {
      // DEFINED(sym) — conditional-assembly helper.
      if (support::equals_nocase(t.text, "DEFINED") && pos_ + 1 < tokens_.size() &&
          tokens_[pos_ + 1].is_punct("(")) {
        advance();  // DEFINED
        advance();  // (
        if (!peek().is_ident()) {
          error("DEFINED() requires a symbol name");
          return std::nullopt;
        }
        std::string name = advance().text;
        if (!match(")")) {
          error("expected ')' after DEFINED(symbol");
          return std::nullopt;
        }
        return ExprValue::absolute(lookup_(name).has_value() ? 1 : 0);
      }
      advance();
      if (auto v = lookup_(t.text)) return *v;
      if (options_.allow_forward_refs) {
        return ExprValue::relocatable(t.text);
      }
      diags_.error("asm.undefined-symbol",
                   "undefined symbol '" + t.text +
                       "' (forward references are not allowed here)",
                   t.loc_in(file_));
      errored_ = true;
      return std::nullopt;
    }
    error("expected expression");
    return std::nullopt;
  }

  std::span<const Token> tokens_;
  const std::string& file_;
  const SymbolLookup& lookup_;
  const EvalOptions& options_;
  support::DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  bool errored_ = false;
};

}  // namespace

std::optional<ExprValue> evaluate_expr(std::span<const Token> tokens,
                                       const std::string& file,
                                       std::size_t& consumed,
                                       const SymbolLookup& lookup,
                                       const EvalOptions& options,
                                       support::DiagnosticEngine& diags) {
  Evaluator ev(tokens, file, lookup, options, diags);
  return ev.run(consumed);
}

std::optional<std::int64_t> evaluate_absolute(
    std::span<const Token> tokens, const std::string& file,
    std::size_t& consumed, const SymbolLookup& lookup,
    support::DiagnosticEngine& diags) {
  EvalOptions options;  // no forward refs
  auto v = evaluate_expr(tokens, file, consumed, lookup, options, diags);
  if (!v) return std::nullopt;
  if (!v->is_absolute()) {
    diags.error("asm.not-absolute",
                "expression must be absolute but references label '" +
                    v->symbol + "'",
                tokens.empty() ? support::SourceLoc{}
                               : tokens.front().loc_in(file));
    return std::nullopt;
  }
  return v->constant;
}

}  // namespace advm::assembler
