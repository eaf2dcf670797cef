#include "asm/linker.h"

#include <algorithm>

namespace advm::assembler {

namespace {

struct PlacedSection {
  std::uint32_t object = 0;  ///< index into the linked span
  const ObjSection* section = nullptr;
  std::uint32_t base = 0;
};

/// The first eight bytes of a name, big-endian and zero-padded. Where two
/// prefixes differ they order the names exactly as a full comparison
/// would, so most comparisons during the link are one integer compare.
std::uint64_t name_prefix(std::string_view name) {
  std::uint64_t prefix = 0;
  const std::size_t n = std::min<std::size_t>(name.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    prefix |= std::uint64_t{static_cast<unsigned char>(name[i])}
              << (56 - 8 * i);
  }
  return prefix;
}

/// A symbol definition met while walking the objects; `seq` is its
/// position in (object, symbol) order, which is also diagnostic order.
struct Definition {
  std::string_view name;
  std::uint64_t prefix = 0;  ///< name_prefix(name)
  const ObjSymbol* symbol = nullptr;
  std::uint32_t object = 0;
  std::uint32_t address = 0;
  std::uint32_t seq = 0;

  /// Name order: negative, zero or positive as strcmp.
  [[nodiscard]] int compare(std::uint64_t other_prefix,
                            std::string_view other_name) const {
    if (prefix != other_prefix) return prefix < other_prefix ? -1 : 1;
    return name.compare(other_name);
  }
};

/// Index of the first section named `name` in one object's run
/// [first, last) of `placed`, or `last`.
std::size_t find_placed(const std::vector<PlacedSection>& placed,
                        std::size_t first, std::size_t last,
                        std::string_view name) {
  for (std::size_t i = first; i < last; ++i) {
    if (placed[i].section->name == name) return i;
  }
  return last;
}

}  // namespace

const LinkedSymbol* Image::find_symbol(std::string_view name) const {
  auto it = std::lower_bound(
      symbols_.begin(), symbols_.end(), name,
      [this](const LinkedSymbol& s, std::string_view n) {
        return this->name(s) < n;
      });
  return it != symbols_.end() && this->name(*it) == name ? &*it : nullptr;
}

std::string_view Image::object_name(std::uint32_t index) const {
  const NameSpan& span = objects_.at(index);
  return std::string_view(names_).substr(span.offset, span.size);
}

std::span<const SymbolRef> Image::referrers(const LinkedSymbol& symbol) const {
  const auto index = static_cast<std::uint32_t>(&symbol - symbols_.data());
  auto [first, last] = std::equal_range(
      refs_.begin(), refs_.end(), SymbolRef{index, 0},
      [](const SymbolRef& a, const SymbolRef& b) {
        return a.symbol < b.symbol;
      });
  return {first, last};
}

std::size_t Image::total_bytes() const {
  std::size_t n = 0;
  for (const auto& seg : segments) n += seg.bytes.size();
  return n;
}

std::optional<Image> link(std::span<const ObjectFile* const> objects,
                          const LinkOptions& options,
                          support::DiagnosticEngine& diags) {
  // --- Phase 1: place sections. -------------------------------------------
  // Each object's sections form one run of `placed`, starting at
  // first_placed[object].
  std::size_t section_count = 0;
  std::size_t symbol_count = 0;
  std::size_t relocation_count = 0;
  for (const ObjectFile* obj : objects) {
    section_count += obj->sections.size();
    symbol_count += obj->symbols.size();
    relocation_count += obj->relocations.size();
  }
  std::vector<PlacedSection> placed;
  placed.reserve(section_count);
  std::vector<std::size_t> first_placed(objects.size() + 1, 0);
  std::uint32_t code_cursor = options.code_base;
  std::uint32_t data_cursor = options.data_base;

  for (std::uint32_t k = 0; k < objects.size(); ++k) {
    first_placed[k] = placed.size();
    for (const ObjSection& sec : objects[k]->sections) {
      if (sec.bytes.empty() && !sec.is_absolute()) continue;
      PlacedSection p;
      p.object = k;
      p.section = &sec;
      if (sec.is_absolute()) {
        p.base = *sec.org;
      } else if (sec.name == "code") {
        p.base = code_cursor;
        code_cursor += static_cast<std::uint32_t>(sec.bytes.size());
      } else {
        p.base = data_cursor;
        data_cursor += static_cast<std::uint32_t>(sec.bytes.size());
      }
      placed.push_back(p);
    }
  }
  first_placed[objects.size()] = placed.size();

  // Overlap check (absolute sections can collide with anything).
  std::vector<PlacedSection> sorted = placed;
  std::sort(sorted.begin(), sorted.end(),
            [](const PlacedSection& a, const PlacedSection& b) {
              return a.base < b.base;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const auto& prev = sorted[i - 1];
    const auto& cur = sorted[i];
    std::uint32_t prev_end =
        prev.base + static_cast<std::uint32_t>(prev.section->bytes.size());
    if (cur.base < prev_end) {
      diags.error("link.overlap",
                  "section '" + cur.section->name + "' of '" +
                      objects[cur.object]->name + "' overlaps section '" +
                      prev.section->name + "' of '" +
                      objects[prev.object]->name + "'");
      return std::nullopt;
    }
  }

  // --- Phase 2: resolve symbols. ------------------------------------------
  std::vector<Definition> defs;
  defs.reserve(symbol_count);
  std::size_t name_bytes = 0;
  for (std::uint32_t k = 0; k < objects.size(); ++k) {
    const ObjectFile* obj = objects[k];
    name_bytes += obj->name.size();
    for (const ObjSymbol& sym : obj->symbols) {
      const std::size_t at = find_placed(placed, first_placed[k],
                                         first_placed[k + 1], sym.section);
      // A symbol in an empty relocatable section sits at that region's
      // start. Happens for pure-EQU files that still define a label.
      const std::uint32_t base =
          at != first_placed[k + 1] ? placed[at].base
          : sym.section == "code"   ? options.code_base
                                    : options.data_base;
      defs.push_back({sym.name, name_prefix(sym.name), &sym, k,
                      base + sym.offset,
                      static_cast<std::uint32_t>(defs.size())});
      name_bytes += sym.name.size();
    }
  }
  std::sort(defs.begin(), defs.end(),
            [](const Definition& a, const Definition& b) {
              const int order = a.compare(b.prefix, b.name);
              return order != 0 ? order < 0 : a.seq < b.seq;
            });

  // Every definition after the first of its name is a duplicate, reported
  // in the order the objects defined them.
  std::vector<std::pair<const Definition*, const Definition*>> duplicates;
  for (std::size_t i = 1, first = 0; i < defs.size(); ++i) {
    if (defs[i].name != defs[first].name) {
      first = i;
    } else {
      duplicates.emplace_back(&defs[first], &defs[i]);
    }
  }
  if (!duplicates.empty()) {
    std::sort(duplicates.begin(), duplicates.end(),
              [](const auto& a, const auto& b) {
                return a.second->seq < b.second->seq;
              });
    for (const auto& [first, dup] : duplicates) {
      diags.error("link.duplicate-symbol",
                  "symbol '" + dup->symbol->name + "' defined in both '" +
                      objects[first->object]->name + "' and '" +
                      objects[dup->object]->name + "'",
                  dup->symbol->loc);
    }
    return std::nullopt;
  }

  Image image;
  image.names_.reserve(name_bytes);
  image.objects_.reserve(objects.size());
  for (const ObjectFile* obj : objects) {
    image.objects_.push_back(
        {static_cast<std::uint32_t>(image.names_.size()),
         static_cast<std::uint32_t>(obj->name.size())});
    image.names_ += obj->name;
  }
  image.symbols_.reserve(defs.size());
  for (const Definition& def : defs) {
    image.symbols_.push_back(
        {def.address, def.object,
         static_cast<std::uint32_t>(image.names_.size()),
         static_cast<std::uint32_t>(def.name.size())});
    image.names_ += def.name;
  }

  // --- Phase 3: copy bytes and apply relocations. --------------------------
  image.segments.reserve(placed.size());
  for (const auto& p : placed) {
    image.segments.push_back(
        {p.base, p.section->bytes, p.section->name, p.object});
  }

  bool ok = true;
  image.refs_.reserve(relocation_count);
  for (std::uint32_t k = 0; k < objects.size(); ++k) {
    const ObjectFile* obj = objects[k];
    for (const Relocation& rel : obj->relocations) {
      // `defs` is in table order, so its index is the symbol's.
      const std::uint64_t prefix = name_prefix(rel.symbol);
      const auto def = std::lower_bound(
          defs.begin(), defs.end(), rel.symbol,
          [prefix](const Definition& d, const std::string& name) {
            return d.compare(prefix, name) < 0;
          });
      if (def == defs.end() || def->name != rel.symbol) {
        diags.error("link.undefined-symbol",
                    "undefined symbol '" + rel.symbol + "' referenced from '" +
                        obj->name + "'",
                    rel.loc);
        ok = false;
        continue;
      }
      const auto index = static_cast<std::uint32_t>(def - defs.begin());
      const SymbolRef ref{index, k};
      if (image.refs_.empty() || image.refs_.back() != ref) {
        image.refs_.push_back(ref);
      }

      const std::size_t at = find_placed(placed, first_placed[k],
                                         first_placed[k + 1], rel.section);
      if (at == first_placed[k + 1] ||
          rel.offset + rel.size > image.segments[at].bytes.size()) {
        diags.error("link.bad-relocation",
                    "relocation outside section bounds in '" + obj->name + "'",
                    rel.loc);
        ok = false;
        continue;
      }
      std::vector<std::uint8_t>& bytes = image.segments[at].bytes;
      const std::uint64_t value =
          static_cast<std::uint64_t>(def->address) +
          static_cast<std::uint64_t>(rel.addend);
      for (std::uint8_t i = 0; i < rel.size; ++i) {
        bytes[rel.offset + i] =
            static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF);
      }
    }
  }
  if (!ok) return std::nullopt;

  // One entry per (symbol, object), however often a test references it.
  std::sort(image.refs_.begin(), image.refs_.end());
  image.refs_.erase(std::unique(image.refs_.begin(), image.refs_.end()),
                    image.refs_.end());

  // --- Phase 4: entry point. ----------------------------------------------
  const LinkedSymbol* entry = image.find_symbol(options.entry_symbol);
  if (entry == nullptr) {
    diags.error("link.no-entry",
                "entry symbol '" + options.entry_symbol + "' not defined");
    return std::nullopt;
  }
  image.entry = entry->address;

  std::sort(image.segments.begin(), image.segments.end(),
            [](const Segment& a, const Segment& b) { return a.base < b.base; });

  return image;
}

std::optional<Image> link(std::span<const ObjectFile> objects,
                          const LinkOptions& options,
                          support::DiagnosticEngine& diags) {
  std::vector<const ObjectFile*> pointers;
  pointers.reserve(objects.size());
  for (const ObjectFile& obj : objects) pointers.push_back(&obj);
  return link(pointers, options, diags);
}

}  // namespace advm::assembler
