#include "asm/include_memo.h"

#include "support/hash.h"

namespace advm::assembler {

std::uint64_t options_fingerprint(const AssemblerOptions& options) {
  support::Fnv1a h;
  h.update(std::uint64_t{options.include_dirs.size()});
  for (const std::string& dir : options.include_dirs) h.update(dir);
  h.update(std::uint64_t{options.predefines.size()});
  for (const auto& [name, value] : options.predefines) {
    h.update(name);
    h.update(static_cast<std::uint64_t>(value));
  }
  h.update(std::uint64_t{options.emit_listing ? 1u : 0u});
  h.update(std::uint64_t{options.max_include_depth});
  h.update(std::uint64_t{options.max_macro_depth});
  return h.digest();
}

std::uint64_t deps_digest_of(const support::VirtualFileSystem& vfs,
                             const std::vector<IncludeEdge>* includes) {
  support::Fnv1a h;
  if (includes == nullptr) return h.digest();
  for (const IncludeEdge& edge : *includes) {
    h.update(edge.to_file);
    if (const auto digest = vfs.digest(edge.to_file)) {
      h.update(*digest);
    } else {
      h.update(std::uint64_t{0xdeadULL});  // absent ≠ empty
    }
  }
  return h.digest();
}

bool probed_misses_still_missing(const support::VirtualFileSystem& vfs,
                                 const std::vector<std::string>* probed) {
  if (probed == nullptr) return true;
  for (const std::string& path : *probed) {
    if (vfs.exists(path)) return false;
  }
  return true;
}

std::shared_ptr<const IncludePrelude> IncludeMemo::lookup(
    const support::VirtualFileSystem& vfs, const std::string& path,
    std::uint64_t options_digest) {
  std::shared_ptr<const IncludePrelude> prelude;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find({path, options_digest});
    if (it == entries_.end()) return nullptr;
    prelude = it->second;
  }
  if (vfs.digest(path) != prelude->file_digest ||
      deps_digest_of(vfs, &prelude->includes) != prelude->deps_digest ||
      !probed_misses_still_missing(vfs, &prelude->probed_misses)) {
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return prelude;
}

void IncludeMemo::record(const std::string& path, std::uint64_t options_digest,
                         std::shared_ptr<const IncludePrelude> prelude) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[{path, options_digest}] = std::move(prelude);
  records_.fetch_add(1, std::memory_order_relaxed);
}

IncludeMemoStats IncludeMemo::stats() const {
  IncludeMemoStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.records = records_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace advm::assembler
