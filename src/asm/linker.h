// Linker: combines object files into a loadable memory image.
//
// Placement model: absolute sections (.ORG) land exactly where they ask;
// relocatable sections are concatenated region by region — "code" sections
// from `code_base` upward, every other section name from `data_base` upward
// (12-byte aligned so instruction words never straddle a section seam).
//
// Besides the image, the linker produces a full symbol cross-reference
// (which object defined each symbol, which objects referenced it). The ADVM
// violation checker (experiment E1) uses that cross-reference to detect
// test-layer code calling global-layer functions directly — the "abuse"
// of the paper's Fig 2.
//
// The regression matrix links once per (derivative × platform × test)
// cell, so the symbol table is flat and allocation-light: one name-sorted
// array of fixed-size entries, every symbol and object name packed into a
// single buffer the image owns, and the cross-reference one sorted array of
// (symbol, object) index pairs. Entries hold offsets and indices, never
// pointers or views, so an Image copies and moves as a plain value and
// never refers back to the ObjectFiles it was linked from.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asm/object.h"
#include "support/diagnostics.h"

namespace advm::assembler {

struct LinkOptions {
  std::uint32_t code_base = 0x0000'1000;
  std::uint32_t data_base = 0x0010'0000;
  std::string entry_symbol = "_main";
};

/// A placed, fully patched run of bytes. Carries its provenance (section
/// name and originating object) so image-level consumers — the static
/// analyzer in src/advm/lint/ foremost — can tell code from data and
/// attribute findings to the source file that emitted the bytes.
struct Segment {
  std::uint32_t base = 0;
  std::vector<std::uint8_t> bytes;
  std::string section;       ///< section name ("code", "data", ...)
  std::uint32_t object = 0;  ///< emitting object, see Image::object_name

  [[nodiscard]] std::uint32_t end() const {
    return base + static_cast<std::uint32_t>(bytes.size());
  }
};

/// Symbol after placement. Its name lives in the owning Image's buffer
/// (read it with Image::name); `defined_in` indexes the image's objects.
struct LinkedSymbol {
  std::uint32_t address = 0;
  std::uint32_t defined_in = 0;   ///< defining object, see Image::object_name
  std::uint32_t name_offset = 0;  ///< into the image's name buffer
  std::uint32_t name_size = 0;
};

/// One cross-reference: object `object` carries at least one relocation
/// against symbol `symbol` (an index into Image::symbols()).
struct SymbolRef {
  std::uint32_t symbol = 0;
  std::uint32_t object = 0;

  friend auto operator<=>(const SymbolRef&, const SymbolRef&) = default;
};

/// Linked program image.
class Image {
 public:
  std::vector<Segment> segments;
  std::uint32_t entry = 0;

  /// Every symbol, sorted by name.
  [[nodiscard]] std::span<const LinkedSymbol> symbols() const {
    return symbols_;
  }
  /// Binary search by name; nullptr if the image defines no such symbol.
  [[nodiscard]] const LinkedSymbol* find_symbol(std::string_view name) const;
  /// Name of `symbol`, an entry of this image.
  [[nodiscard]] std::string_view name(const LinkedSymbol& symbol) const {
    return {names_.data() + symbol.name_offset, symbol.name_size};
  }
  /// Name (source path) of the object at `index` in the linked span.
  [[nodiscard]] std::string_view object_name(std::uint32_t index) const;
  /// The objects that reference `symbol`, which must be an entry of this
  /// image: one entry each, by ascending object index (link order).
  [[nodiscard]] std::span<const SymbolRef> referrers(
      const LinkedSymbol& symbol) const;

  [[nodiscard]] std::size_t total_bytes() const;

 private:
  friend std::optional<Image> link(std::span<const ObjectFile* const>,
                                   const LinkOptions&,
                                   support::DiagnosticEngine&);

  struct NameSpan {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };

  std::string names_;              ///< every symbol and object name
  std::vector<NameSpan> objects_;  ///< per linked object, into names_
  std::vector<LinkedSymbol> symbols_;
  std::vector<SymbolRef> refs_;    ///< sorted, unique
};

/// Links the given objects. Returns nullopt and reports diagnostics on
/// duplicate symbols, unresolved references, overlapping placements or a
/// missing entry symbol.
///
/// The pointer form is the primary one: callers that link the same shared
/// objects into many images (the regression matrix links every cached test
/// object against the same base-function/trap/ES objects) pass pointers and
/// never copy an ObjectFile. Pointers must stay valid for the call only:
/// the image keeps its own copy of every name it reports.
[[nodiscard]] std::optional<Image> link(
    std::span<const ObjectFile* const> objects, const LinkOptions& options,
    support::DiagnosticEngine& diags);

/// Convenience overload for callers that hold objects by value.
[[nodiscard]] std::optional<Image> link(std::span<const ObjectFile> objects,
                                        const LinkOptions& options,
                                        support::DiagnosticEngine& diags);

}  // namespace advm::assembler
