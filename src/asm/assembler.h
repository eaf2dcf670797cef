// The SC88 macro assembler.
//
// A single-pass assembler in the classic style the ADVM paper's sources
// assume:
//
//  * `.INCLUDE file`            — textual include, resolved against the
//                                 including file's directory then the
//                                 configured include paths (this is how the
//                                 abstraction layer's Globals.inc reaches
//                                 every test, paper Fig 6);
//  * `NAME .EQU expr`           — evaluated constant; must be resolvable at
//                                 the point of definition;
//  * `.DEFINE NAME tokens...`   — token-level alias (paper Fig 7:
//                                 `.DEFINE CallAddr A12`);
//  * `.MACRO name [p1, p2] ... .ENDM` — token-substituting macros, `@` in
//                                 identifiers becomes a unique suffix;
//  * `.IF expr / .ELSE / .ENDIF`, `.IFDEF/.IFNDEF NAME` — conditional
//                                 assembly (how one abstraction layer serves
//                                 many derivatives and platforms);
//  * `.ORG/.SECTION/.ALIGN/.SPACE/.DB/.DW/.DD/.ASCII/.ASCIIZ`;
//  * `.ERROR/.WARNING "msg"`    — environment guard rails.
//
// Label references always become relocations (resolved by the linker), so
// forward references to labels need no second pass. Labels whose name starts
// with '.' are object-local: they are name-mangled per object and never
// collide across test cells.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asm/object.h"
#include "asm/token.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace advm::assembler {

struct AssemblerOptions {
  /// Search path for .INCLUDE (after the including file's own directory).
  std::vector<std::string> include_dirs;
  /// Pre-defined equates, the CLI `-D NAME=value` equivalent. This is the
  /// hook the ADVM uses to select derivative/platform without editing code.
  std::map<std::string, std::int64_t> predefines;
  bool emit_listing = false;
  std::size_t max_include_depth = 32;
  std::size_t max_macro_depth = 64;
};

/// One `.INCLUDE` occurrence — the include graph feeds the ADVM
/// abstraction-violation checker (tests must not include global-layer files
/// directly).
struct IncludeEdge {
  std::string from_file;  ///< normalised path of the including file
  std::string to_file;    ///< normalised path of the included file
  support::SourceLoc loc;
};

class IncludeMemo;

struct AssembleResult {
  ObjectFile object;
  std::vector<IncludeEdge> includes;
  /// Include paths probed and found missing before each include resolved
  /// (in probe order: sibling directory first, then the search path). If
  /// one of these files is created later it shadows the recorded
  /// resolution — the object cache revalidates entries against this set.
  std::vector<std::string> probed_misses;
  std::string listing;  ///< populated when options.emit_listing
};

/// Assembles one translation unit (a top-level file plus everything it
/// includes) into an object file.
class Assembler {
 public:
  /// A non-null `memo` serves prelude includes from (and records them
  /// into) that memo (see asm/include_memo.h); the result is identical
  /// either way. The memo must outlive the assembler.
  Assembler(const support::VirtualFileSystem& vfs,
            support::DiagnosticEngine& diags, AssemblerOptions options,
            IncludeMemo* memo = nullptr);
  ~Assembler();

  Assembler(const Assembler&) = delete;
  Assembler& operator=(const Assembler&) = delete;

  /// Assembles the file at `path` in the VFS. Returns nullopt if any error
  /// diagnostic was produced.
  [[nodiscard]] std::optional<AssembleResult> assemble_file(
      std::string_view path);

  /// Assembles an in-memory buffer under a synthetic name. Includes are
  /// resolved against options.include_dirs only.
  [[nodiscard]] std::optional<AssembleResult> assemble_source(
      std::string_view name, std::string_view source);

  /// Include edges gathered by the most recent *failed* assemble_* call
  /// (on success they move into the AssembleResult and this is empty).
  /// Lets callers name the include that introduced a build failure.
  [[nodiscard]] const std::vector<IncludeEdge>& last_includes() const;

  /// Probed-but-missing include paths of the most recent *failed*
  /// assemble_* call (successful calls move them into the AssembleResult).
  [[nodiscard]] const std::vector<std::string>& last_probed_misses() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace advm::assembler
