// Token model for the SC88 assembler front end.
//
// A token records where it starts on its line but not which file the line
// came from: every token of a processed line shares one file, so whoever
// processes the line (lexer, expression evaluator, assembler, violation
// scanner) supplies it when a diagnostic needs a full SourceLoc.
#pragma once

#include <cstdint>
#include <string>

#include "support/source_loc.h"

namespace advm::assembler {

enum class TokenKind : std::uint8_t {
  Identifier,  ///< symbols, mnemonics, directives (directives start with '.')
  Number,      ///< integer literal (value already parsed)
  String,      ///< "..." (value is the unquoted text)
  Punct,       ///< operator / separator; `text` holds the exact spelling
  EndOfLine,
};

struct Token {
  TokenKind kind = TokenKind::EndOfLine;
  std::string text;          ///< spelling (identifier / punct / string body)
  std::int64_t value = 0;    ///< numeric value for Number tokens
  std::uint32_t line = 0;    ///< 1-based; 0 for synthetic tokens
  std::uint32_t column = 0;  ///< 1-based

  /// The token's position in `file`, the file of the line it belongs to.
  /// A synthetic (line 0) token has no position: the empty SourceLoc.
  [[nodiscard]] support::SourceLoc loc_in(const std::string& file) const {
    if (line == 0) return {};
    return {file, line, column};
  }

  [[nodiscard]] bool is_punct(std::string_view p) const {
    return kind == TokenKind::Punct && text == p;
  }
  [[nodiscard]] bool is_ident() const { return kind == TokenKind::Identifier; }
  [[nodiscard]] bool is_eol() const { return kind == TokenKind::EndOfLine; }
};

}  // namespace advm::assembler
