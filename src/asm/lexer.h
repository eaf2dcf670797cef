// Line-oriented lexer for SC88 assembler source.
//
// Assembler input is fundamentally line structured (one statement per line,
// ';' comments to end of line), so the lexer tokenises one line at a time.
// The paper's sources use ';;' comments, `.INCLUDE` directives, `NAME .EQU
// expr` equates and `label:` definitions — all representable with this token
// set.
#pragma once

#include <string_view>
#include <vector>

#include "asm/token.h"
#include "support/diagnostics.h"

namespace advm::assembler {

/// Tokenises a single logical line. Tokens carry `line` and their column;
/// `file` only names the line in the lexer's own diagnostics.
/// Malformed input (bad numbers, unterminated strings, stray characters)
/// produces diagnostics and is skipped, so callers always receive a
/// well-formed (possibly empty) token vector terminated by EndOfLine.
[[nodiscard]] std::vector<Token> lex_line(std::string_view text,
                                          const std::string& file,
                                          std::uint32_t line,
                                          support::DiagnosticEngine& diags);

}  // namespace advm::assembler
