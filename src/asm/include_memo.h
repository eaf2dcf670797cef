// Include-prelude memo: assemble each environment's Globals.inc once, not
// once per test.
//
// Every ADVM test opens with `.INCLUDE Globals.inc` (paper Fig 6), and the
// abstraction layer plus the register_defs.inc it pulls in is several
// times longer than the test's own text. Such a *prelude* include only
// defines names: it emits no bytes, labels or relocations, so the state it
// leaves behind in a freshly reset assembler — equates, defines, macros,
// the macro-instance counter — depends on nothing but the included files
// and the assembler options. The memo records that state once per
// (resolved path, options fingerprint) and later assemblies copy it in
// instead of re-lexing the files.
//
// A record is served only if it still matches the VFS, by the same rule
// the object cache applies to whole translation units: the included
// file's digest, the digest over every nested include, and every nested
// include path that was probed and missing must all be unchanged.
//
// The memo is an invisible cache: a memoized assembly produces exactly
// the AssembleResult (object, include edges, probed misses, diagnostics)
// of an unmemoized one. The Assembler decides when it applies (see
// Assembler::Impl::handle_include); this file only stores and revalidates.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "asm/assembler.h"
#include "asm/token.h"
#include "support/vfs.h"

namespace advm::assembler {

/// FNV-1a fingerprint of everything in AssemblerOptions that can change an
/// assembly's output (include path order, predefines, limits).
[[nodiscard]] std::uint64_t options_fingerprint(const AssemblerOptions& options);

/// Digest over (path, content digest) of every include an assembly
/// resolved, read from the VFS's per-file digests so no content is hashed
/// again. A regenerated Globals.inc (porting, `advm random`) changes this,
/// and so does a vanished include.
[[nodiscard]] std::uint64_t deps_digest_of(
    const support::VirtualFileSystem& vfs,
    const std::vector<IncludeEdge>* includes);

/// True while every include path that was probed-and-missing at build time
/// is still missing. A hit on such a path means a newly created file now
/// shadows the recorded resolution.
[[nodiscard]] bool probed_misses_still_missing(
    const support::VirtualFileSystem& vfs,
    const std::vector<std::string>* probed);

/// One line of a `.MACRO` body, kept as text and re-lexed per expansion.
struct MacroLine {
  std::string text;
  std::string file;
  std::uint32_t line = 0;
};

struct MacroDef {
  std::vector<std::string> params;
  std::vector<MacroLine> lines;
};

using EquateMap = std::map<std::string, std::int64_t, std::less<>>;
using DefineMap = std::map<std::string, std::vector<Token>, std::less<>>;
using MacroMap = std::map<std::string, MacroDef, std::less<>>;

/// What a prelude include left behind in a reset assembler, plus what is
/// needed to tell whether it still holds.
struct IncludePrelude {
  EquateMap equates;  ///< predefines included
  DefineMap defines;
  MacroMap macros;
  std::size_t macro_instance = 0;
  /// Include edges and probed misses of the nested includes, in the order
  /// the unmemoized assembly appends them.
  std::vector<IncludeEdge> includes;
  std::vector<std::string> probed_misses;
  std::uint64_t file_digest = 0;  ///< VFS digest of the included file
  std::uint64_t deps_digest = 0;  ///< deps_digest_of(`includes`)
};

struct IncludeMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t records = 0;
};

/// Thread-safe store of prelude records. Assemblers on different worker
/// threads share one memo; a record is immutable once published, so a
/// reader copies state out of it without holding the memo's lock.
class IncludeMemo {
 public:
  /// The record for `path` under `options_digest`, or null when there is
  /// none or it no longer matches the VFS.
  [[nodiscard]] std::shared_ptr<const IncludePrelude> lookup(
      const support::VirtualFileSystem& vfs, const std::string& path,
      std::uint64_t options_digest);

  /// Publishes (or replaces) the record for `path` under `options_digest`.
  void record(const std::string& path, std::uint64_t options_digest,
              std::shared_ptr<const IncludePrelude> prelude);

  [[nodiscard]] IncludeMemoStats stats() const;

 private:
  mutable std::mutex mutex_;  ///< guards `entries_`
  std::map<std::pair<std::string, std::uint64_t>,
           std::shared_ptr<const IncludePrelude>>
      entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> records_{0};
};

}  // namespace advm::assembler
