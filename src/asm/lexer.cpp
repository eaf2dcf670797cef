#include "asm/lexer.h"

#include <cctype>
#include <cstdint>

#include "support/text.h"

namespace advm::assembler {

namespace {

/// Multi-character punctuators, longest first so maximal munch works.
constexpr std::string_view kPuncts2[] = {"<<", ">>", "==", "!=",
                                         "<=", ">=", "&&", "||"};

bool lex_number(std::string_view text, std::size_t& i, Token& tok) {
  std::size_t start = i;
  // Consume [0-9a-zA-Z_x]: the charset of decimal/hex/binary literals.
  while (i < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[i])) ||
          text[i] == '_')) {
    ++i;
  }
  auto parsed = support::parse_integer(text.substr(start, i - start));
  if (!parsed) return false;
  tok.kind = TokenKind::Number;
  tok.text = std::string(text.substr(start, i - start));
  tok.value = *parsed;
  return true;
}

}  // namespace

std::vector<Token> lex_line(std::string_view text, const std::string& file,
                            std::uint32_t line,
                            support::DiagnosticEngine& diags) {
  std::vector<Token> out;
  std::size_t i = 0;

  auto column_at = [](std::size_t col) {
    return static_cast<std::uint32_t>(col + 1);
  };

  while (i < text.size()) {
    char c = text[i];

    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == ';') break;  // comment to end of line
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') break;

    Token tok;
    tok.line = line;
    tok.column = column_at(i);

    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!lex_number(text, i, tok)) {
        diags.error("asm.bad-number", "malformed numeric literal",
                    tok.loc_in(file));
        // Skip the bad blob and continue lexing the line.
        while (i < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[i])) ||
                text[i] == '_')) {
          ++i;
        }
        continue;
      }
      out.push_back(std::move(tok));
      continue;
    }

    if (c == '\'') {  // character literal
      if (i + 2 < text.size() && text[i + 2] == '\'') {
        tok.kind = TokenKind::Number;
        tok.value = static_cast<unsigned char>(text[i + 1]);
        tok.text = std::string(text.substr(i, 3));
        i += 3;
        out.push_back(std::move(tok));
        continue;
      }
      diags.error("asm.bad-char-literal", "malformed character literal",
                  tok.loc_in(file));
      ++i;
      continue;
    }

    if (support::is_symbol_start(c)) {
      std::size_t start = i;
      ++i;
      while (i < text.size() && support::is_symbol_char(text[i])) ++i;
      tok.kind = TokenKind::Identifier;
      tok.text = std::string(text.substr(start, i - start));
      out.push_back(std::move(tok));
      continue;
    }

    if (c == '"') {
      std::size_t start = ++i;
      while (i < text.size() && text[i] != '"') ++i;
      if (i >= text.size()) {
        diags.error("asm.unterminated-string", "unterminated string literal",
                    tok.loc_in(file));
        break;
      }
      tok.kind = TokenKind::String;
      tok.text = std::string(text.substr(start, i - start));
      ++i;  // closing quote
      out.push_back(std::move(tok));
      continue;
    }

    if (c == '#') {
      // Z80-style hex literal (#FF, #C000). Only a run that is entirely hex
      // digits lexes as a number; anything else leaves '#' as a punctuator.
      std::size_t j = i + 1;
      bool all_hex = true;
      while (j < text.size() && support::is_symbol_char(text[j])) {
        all_hex = all_hex && std::isxdigit(static_cast<unsigned char>(text[j]));
        ++j;
      }
      if (all_hex && j > i + 1) {
        auto parsed = support::parse_integer(
            "0x" + std::string(text.substr(i + 1, j - i - 1)));
        if (!parsed) {  // wider than 64 bits
          diags.error("asm.bad-number", "hex literal wider than 64 bits",
                      tok.loc_in(file));
          i = j;
          continue;
        }
        tok.kind = TokenKind::Number;
        tok.text = std::string(text.substr(i, j - i));
        tok.value = *parsed;
        i = j;
        out.push_back(std::move(tok));
        continue;
      }
    }

    if (c == '%') {
      // '%' is binary literal (%1010) in operand position, modulo after a
      // value. "After a value" = the previous token is a number, symbol, or
      // a closing bracket — the classic two-role disambiguation.
      const bool after_value =
          !out.empty() && (out.back().kind == TokenKind::Number ||
                           out.back().kind == TokenKind::Identifier ||
                           out.back().is_punct(")") || out.back().is_punct("]"));
      std::size_t j = i + 1;
      bool all_binary = true;
      while (j < text.size() && support::is_symbol_char(text[j])) {
        all_binary = all_binary && (text[j] == '0' || text[j] == '1');
        ++j;
      }
      if (!after_value && all_binary && j > i + 1) {
        if (j - i - 1 > 64) {
          diags.error("asm.bad-number", "binary literal wider than 64 bits",
                      tok.loc_in(file));
          i = j;
          continue;
        }
        std::uint64_t value = 0;  // unsigned: bit 63 set must not overflow
        for (std::size_t k = i + 1; k < j; ++k) {
          value = (value << 1) | static_cast<std::uint64_t>(text[k] - '0');
        }
        tok.kind = TokenKind::Number;
        tok.text = std::string(text.substr(i, j - i));
        tok.value = static_cast<std::int64_t>(value);
        i = j;
        out.push_back(std::move(tok));
        continue;
      }
    }

    // Two-character punctuators first (maximal munch).
    bool matched = false;
    if (i + 1 < text.size()) {
      std::string_view two = text.substr(i, 2);
      for (std::string_view p : kPuncts2) {
        if (two == p) {
          tok.kind = TokenKind::Punct;
          tok.text = std::string(p);
          i += 2;
          out.push_back(std::move(tok));
          matched = true;
          break;
        }
      }
    }
    if (matched) continue;

    constexpr std::string_view kSingles = ",:[]()+-*/%&|^~!<>=@#\\";
    if (kSingles.find(c) != std::string_view::npos) {
      tok.kind = TokenKind::Punct;
      tok.text = std::string(1, c);
      ++i;
      out.push_back(std::move(tok));
      continue;
    }

    diags.error("asm.stray-character",
                std::string("stray character '") + c + "' in source",
                tok.loc_in(file));
    ++i;
  }

  Token eol;
  eol.kind = TokenKind::EndOfLine;
  eol.line = line;
  eol.column = column_at(text.size());
  out.push_back(std::move(eol));
  return out;
}

}  // namespace advm::assembler
