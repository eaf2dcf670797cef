// Source locations for assembler diagnostics.
//
// Every diagnostic, symbol, relocation and include edge in the ADVM
// toolchain carries a SourceLoc so that errors in generated test
// environments can be traced back to the exact file and line of the
// offending assembler source — essential when the abstraction layer expands
// includes and macros (paper §4). Tokens carry only line and column; the
// code processing a line supplies its file (asm/token.h).
#pragma once

#include <cstdint>
#include <string>

namespace advm::support {

/// A position inside a named source buffer (1-based line/column).
/// `file` is a copy of the buffer's name (a VFS path, or the name given to
/// Assembler::assemble_source). Line 0 means no position: such a location
/// renders as "<unknown>" and diagnostics print no prefix.
struct SourceLoc {
  std::string file;
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  [[nodiscard]] bool valid() const { return line != 0; }

  /// "file:line:col" — the conventional compiler-style rendering.
  [[nodiscard]] std::string to_string() const {
    if (!valid()) return "<unknown>";
    return file + ":" + std::to_string(line) + ":" + std::to_string(column);
  }

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

}  // namespace advm::support
