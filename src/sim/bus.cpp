#include "sim/bus.h"

#include <algorithm>
#include <bit>

namespace advm::sim {

// -------------------------------------------------------------- BusDevice --

bool BusDevice::read32(std::uint32_t offset, std::uint32_t& value) {
  value = 0;
  for (int i = 0; i < 4; ++i) {
    std::uint8_t b = 0;
    if (!read8(offset + static_cast<std::uint32_t>(i), b)) return false;
    value |= static_cast<std::uint32_t>(b) << (8 * i);
  }
  return true;
}

bool BusDevice::write32(std::uint32_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    if (!write8(offset + static_cast<std::uint32_t>(i),
                static_cast<std::uint8_t>(value >> (8 * i)))) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------ MmioDevice --

bool MmioDevice::read8(std::uint32_t offset, std::uint8_t& value) {
  std::uint32_t word = 0;
  if (!read_reg(offset & ~3u, word)) return false;
  value = static_cast<std::uint8_t>(word >> (8 * (offset & 3u)));
  return true;
}

bool MmioDevice::write8(std::uint32_t offset, std::uint8_t value) {
  std::uint32_t word = 0;
  if (!read_reg(offset & ~3u, word)) return false;
  const std::uint32_t shift = 8 * (offset & 3u);
  word = (word & ~(0xFFu << shift)) |
         (static_cast<std::uint32_t>(value) << shift);
  return write_reg(offset & ~3u, word);
}

bool MmioDevice::read32(std::uint32_t offset, std::uint32_t& value) {
  if ((offset & 3u) != 0) return false;
  return read_reg(offset, value);
}

bool MmioDevice::write32(std::uint32_t offset, std::uint32_t value) {
  if ((offset & 3u) != 0) return false;
  return write_reg(offset, value);
}

// -------------------------------------------------------------------- Bus --

bool Bus::map(std::uint32_t base, std::unique_ptr<BusDevice> device) {
  const std::uint32_t size = device->size();
  if (size == 0) return false;
  const std::uint64_t end = static_cast<std::uint64_t>(base) + size;
  if (end > 0x1'0000'0000ULL) return false;
  for (const auto& m : mappings_) {
    const std::uint64_t m_end = static_cast<std::uint64_t>(m.base) + m.size;
    if (base < m_end && m.base < end) return false;  // overlap
  }
  Mapping mapping;
  mapping.base = base;
  mapping.size = size;
  mapping.device = std::move(device);
  if (mapping.device->wants_tick()) ticking_.push_back(mapping.device.get());
  auto it = std::upper_bound(
      mappings_.begin(), mappings_.end(), base,
      [](std::uint32_t b, const Mapping& m) { return b < m.base; });
  mappings_.insert(it, std::move(mapping));
  return true;
}

const Bus::Mapping* Bus::find(std::uint32_t addr) const {
  // Binary search over the sorted windows.
  auto it = std::upper_bound(
      mappings_.begin(), mappings_.end(), addr,
      [](std::uint32_t a, const Mapping& m) { return a < m.base; });
  if (it == mappings_.begin()) return nullptr;
  --it;
  if (addr - it->base < it->size) return &*it;
  return nullptr;
}

bool Bus::read8(std::uint32_t addr, std::uint8_t& value) const {
  const Mapping* m = find(addr);
  if (!m) return false;
  return m->device->read8(addr - m->base, value);
}

bool Bus::write8(std::uint32_t addr, std::uint8_t value) {
  const Mapping* m = find(addr);
  if (!m) return false;
  return m->device->write8(addr - m->base, value);
}

bool Bus::read32(std::uint32_t addr, std::uint32_t& value) const {
  const Mapping* m = find(addr);
  if (m && addr - m->base + 4 <= m->size) {
    return m->device->read32(addr - m->base, value);
  }
  // Transaction spans windows (or is unmapped at the start): byte route.
  // Assemble into a local so a fault on a middle byte never leaves the
  // out-param partially written.
  std::uint32_t assembled = 0;
  for (int i = 0; i < 4; ++i) {
    std::uint8_t b = 0;
    if (!read8(addr + static_cast<std::uint32_t>(i), b)) {
      value = 0;
      return false;
    }
    assembled |= static_cast<std::uint32_t>(b) << (8 * i);
  }
  value = assembled;
  return true;
}

bool Bus::write32(std::uint32_t addr, std::uint32_t value) {
  const Mapping* m = find(addr);
  if (m && addr - m->base + 4 <= m->size) {
    return m->device->write32(addr - m->base, value);
  }
  for (int i = 0; i < 4; ++i) {
    if (!write8(addr + static_cast<std::uint32_t>(i),
                static_cast<std::uint8_t>(value >> (8 * i)))) {
      return false;
    }
  }
  return true;
}

bool Bus::fetch(std::uint32_t addr, isa::EncodedInstr& word) const {
  for (std::size_t i = 0; i < isa::kInstrBytes; ++i) {
    if (!read8(addr + static_cast<std::uint32_t>(i), word[i])) return false;
  }
  return true;
}

bool Bus::load_bytes(std::uint32_t addr,
                     std::span<const std::uint8_t> bytes) {
  // ROM windows reject bus writes, so image loading uses the program()
  // backdoor when the target is a Rom.
  std::uint32_t cursor = addr;
  std::size_t index = 0;
  while (index < bytes.size()) {
    const Mapping* m = find(cursor);
    if (!m) return false;
    const std::uint32_t offset = cursor - m->base;
    const std::size_t chunk =
        std::min<std::size_t>(bytes.size() - index, m->size - offset);
    if (auto* rom = dynamic_cast<Rom*>(m->device.get())) {
      rom->program(offset, bytes.subspan(index, chunk));
    } else {
      for (std::size_t i = 0; i < chunk; ++i) {
        if (!m->device->write8(offset + static_cast<std::uint32_t>(i),
                               bytes[index + i])) {
          return false;
        }
      }
    }
    cursor += static_cast<std::uint32_t>(chunk);
    index += chunk;
  }
  return true;
}

void Bus::tick_all(std::uint64_t cycles) {
  for (auto* device : ticking_) device->tick(cycles);
}

std::uint64_t Bus::next_event_horizon() const {
  std::uint64_t horizon = kNoEventHorizon;
  for (const auto* device : ticking_) {
    horizon = std::min(horizon, device->next_event_horizon());
  }
  return horizon;
}

bool Bus::resolve_window(std::uint32_t addr, BusWindow& window) const {
  const Mapping* m = find(addr);
  if (!m) return false;
  window.base = m->base;
  window.size = m->size;
  window.device = m->device.get();
  window.bytes = m->device->direct_bytes();
  return true;
}

void Bus::reset_devices() {
  for (auto& m : mappings_) m.device->reset();
}

BusDevice* Bus::device_at(std::uint32_t addr) {
  const Mapping* m = find(addr);
  return m ? m->device.get() : nullptr;
}

// -------------------------------------------------------------------- Ram --

Ram::Ram(std::string name, std::uint32_t size, bool track_init)
    : name_(std::move(name)),
      bytes_(size, 0),
      initialized_(track_init ? size : 0, false),
      track_init_(track_init),
      dirty_pages_((static_cast<std::size_t>(size) + (64u << kPageShift) - 1) /
                       (64u << kPageShift),
                   0) {}

bool Ram::read8(std::uint32_t offset, std::uint8_t& value) {
  if (offset >= bytes_.size()) return false;
  if (track_init_ && !initialized_[offset]) ++uninitialized_reads_;
  value = bytes_[offset];
  return true;
}

bool Ram::write8(std::uint32_t offset, std::uint8_t value) {
  if (offset >= bytes_.size()) return false;
  bytes_[offset] = value;
  if (track_init_) initialized_[offset] = true;
  const std::uint32_t page = offset >> kPageShift;
  dirty_pages_[page >> 6] |= 1ULL << (page & 63u);
  bump_generation();
  return true;
}

bool Ram::read32(std::uint32_t offset, std::uint32_t& value) {
  if (offset + 4 > bytes_.size() || offset + 4 < offset) return false;
  if (track_init_) {
    // One count per never-written byte, matching the byte-composed route.
    for (std::uint32_t i = 0; i < 4; ++i) {
      if (!initialized_[offset + i]) ++uninitialized_reads_;
    }
  }
  const std::uint8_t* p = bytes_.data() + offset;
  // Little-endian compose from the byte image; compilers fold this into a
  // single load on LE targets.
  value = static_cast<std::uint32_t>(p[0]) |
          (static_cast<std::uint32_t>(p[1]) << 8) |
          (static_cast<std::uint32_t>(p[2]) << 16) |
          (static_cast<std::uint32_t>(p[3]) << 24);
  return true;
}

bool Ram::write32(std::uint32_t offset, std::uint32_t value) {
  if (offset + 4 > bytes_.size() || offset + 4 < offset) return false;
  std::uint8_t* p = bytes_.data() + offset;
  p[0] = static_cast<std::uint8_t>(value);
  p[1] = static_cast<std::uint8_t>(value >> 8);
  p[2] = static_cast<std::uint8_t>(value >> 16);
  p[3] = static_cast<std::uint8_t>(value >> 24);
  if (track_init_) {
    for (std::uint32_t i = 0; i < 4; ++i) initialized_[offset + i] = true;
  }
  // A word can straddle two 4KB pages; mark both ends dirty.
  const std::uint32_t first_page = offset >> kPageShift;
  const std::uint32_t last_page = (offset + 3) >> kPageShift;
  dirty_pages_[first_page >> 6] |= 1ULL << (first_page & 63u);
  dirty_pages_[last_page >> 6] |= 1ULL << (last_page & 63u);
  bump_generation();
  return true;
}

void Ram::reset() {
  for (std::size_t word = 0; word < dirty_pages_.size(); ++word) {
    std::uint64_t bits = dirty_pages_[word];
    while (bits != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t page_start = ((word << 6) + bit) << kPageShift;
      const std::size_t page_end =
          std::min<std::size_t>(page_start + (1u << kPageShift),
                                bytes_.size());
      std::fill(bytes_.begin() + static_cast<std::ptrdiff_t>(page_start),
                bytes_.begin() + static_cast<std::ptrdiff_t>(page_end),
                std::uint8_t{0});
      if (track_init_) {
        std::fill(
            initialized_.begin() + static_cast<std::ptrdiff_t>(page_start),
            initialized_.begin() + static_cast<std::ptrdiff_t>(page_end),
            false);
      }
    }
    dirty_pages_[word] = 0;
  }
  uninitialized_reads_ = 0;
  bump_generation();
}

// -------------------------------------------------------------------- Rom --

Rom::Rom(std::string name, std::uint32_t size)
    : name_(std::move(name)), bytes_(size, 0) {}

bool Rom::read8(std::uint32_t offset, std::uint8_t& value) {
  if (offset >= bytes_.size()) return false;
  value = bytes_[offset];
  return true;
}

bool Rom::write8(std::uint32_t offset, std::uint8_t value) {
  (void)offset;
  (void)value;
  return false;  // mask ROM: bus writes fault
}

bool Rom::read32(std::uint32_t offset, std::uint32_t& value) {
  if (offset + 4 > bytes_.size() || offset + 4 < offset) return false;
  const std::uint8_t* p = bytes_.data() + offset;
  value = static_cast<std::uint32_t>(p[0]) |
          (static_cast<std::uint32_t>(p[1]) << 8) |
          (static_cast<std::uint32_t>(p[2]) << 16) |
          (static_cast<std::uint32_t>(p[3]) << 24);
  return true;
}

void Rom::reset() {
  std::fill(bytes_.begin() + dirty_lo_, bytes_.begin() + dirty_hi_,
            std::uint8_t{0});
  dirty_lo_ = dirty_hi_ = 0;
  bump_generation();
}

void Rom::program(std::uint32_t offset, std::span<const std::uint8_t> bytes) {
  const std::uint32_t end = static_cast<std::uint32_t>(
      std::min<std::size_t>(offset + bytes.size(), bytes_.size()));
  if (offset < end) {
    if (dirty_lo_ == dirty_hi_) {
      dirty_lo_ = offset;
      dirty_hi_ = end;
    } else {
      dirty_lo_ = std::min(dirty_lo_, offset);
      dirty_hi_ = std::max(dirty_hi_, end);
    }
    // Bytes past the end of the ROM are dropped.
    std::copy_n(bytes.begin(), end - offset,
                bytes_.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  bump_generation();
}

}  // namespace advm::sim
