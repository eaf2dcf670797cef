#include "advm/objcache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/diagnostics.h"
#include "support/hash.h"

namespace advm::core {

using assembler::Assembler;
using assembler::AssemblerOptions;
using assembler::deps_digest_of;
using assembler::IncludeEdge;
using assembler::ObjectFile;
using assembler::options_fingerprint;
using assembler::probed_misses_still_missing;

CachedObject ObjectCache::assemble(const support::VirtualFileSystem& vfs,
                                   std::string_view path,
                                   const AssemblerOptions& options) {
  const std::string norm = support::normalize_path(path);
  CachedObject out;

  const std::optional<std::uint64_t> source_digest = vfs.digest(norm);
  if (!source_digest) {
    // Uncacheable (there is no content to key on); reproduce the
    // assembler's missing-file diagnostic verbatim.
    misses_.fetch_add(1, std::memory_order_relaxed);
    support::DiagnosticEngine diags;
    Assembler assembler(vfs, diags, options);
    (void)assembler.assemble_file(norm);
    out.error = diags.to_string();
    out.includes = std::make_shared<const std::vector<IncludeEdge>>();
    return out;
  }

  const std::uint64_t options_digest = options_fingerprint(options);
  support::Fnv1a key;
  key.update(norm);
  key.update(*source_digest);
  key.update(options_digest);

  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = entries_[key.digest()];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }

  bool added_bytes = false;
  bool persist = false;
  {
    // Entry-level lock: one thread builds, concurrent same-key requests
    // wait and then hit — the counters come out the same for any pool size.
    const std::lock_guard<std::mutex> lock(entry->mutex);
    entry->last_used = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool same_inputs = entry->valid && entry->path == norm &&
                             entry->source_digest == *source_digest &&
                             entry->options_digest == options_digest;
    if (same_inputs &&
        deps_digest_of(vfs, entry->includes.get()) == entry->deps_digest &&
        probed_misses_still_missing(vfs, entry->probed_misses.get())) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      out.object = entry->object;
      out.error = entry->error;
      out.includes = entry->includes;
      out.hit = true;
      return out;
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    if (entry->valid) {  // stale: an include changed underneath the entry
      bytes_.fetch_sub(entry->object_bytes, std::memory_order_relaxed);
      entry->valid = false;
    }

    // Persistent tier: a disk entry under the same key is adopted iff it
    // passes exactly the revalidation an in-memory hit would (same inputs,
    // same include contents, probed misses still missing). One probe per
    // build attempt, under the entry lock — same-key racers then hit.
    if (store_ != nullptr) {
      if (auto stored = store_->load(key.digest());
          stored && stored->path == norm &&
          stored->source_digest == *source_digest &&
          stored->options_digest == options_digest) {
        auto includes = std::make_shared<const std::vector<IncludeEdge>>(
            std::move(stored->includes));
        if (deps_digest_of(vfs, includes.get()) == stored->deps_digest &&
            probed_misses_still_missing(vfs, &stored->probed_misses)) {
          persistent_hits_.fetch_add(1, std::memory_order_relaxed);
          entry->object =
              std::make_shared<const ObjectFile>(std::move(stored->object));
          entry->error.clear();
          entry->includes = std::move(includes);
          entry->probed_misses =
              std::make_shared<const std::vector<std::string>>(
                  std::move(stored->probed_misses));
          entry->object_bytes = entry->object->total_bytes();
          entry->path = norm;
          entry->source_digest = *source_digest;
          entry->options_digest = options_digest;
          entry->deps_digest = stored->deps_digest;
          entry->valid = true;
          bytes_.fetch_add(entry->object_bytes, std::memory_order_relaxed);
          added_bytes = entry->object_bytes != 0;
        }
      }
    }

    if (!entry->valid) {
      support::DiagnosticEngine diags;
      Assembler assembler(vfs, diags, options, &memo_);
      auto result = assembler.assemble_file(norm);
      if (result) {
        entry->object =
            std::make_shared<const ObjectFile>(std::move(result->object));
        entry->error.clear();
        entry->includes = std::make_shared<const std::vector<IncludeEdge>>(
            std::move(result->includes));
        entry->probed_misses =
            std::make_shared<const std::vector<std::string>>(
                std::move(result->probed_misses));
        entry->object_bytes = entry->object->total_bytes();
        persist = store_ != nullptr;
      } else {
        entry->object = nullptr;
        entry->error = diags.to_string();
        entry->includes = std::make_shared<const std::vector<IncludeEdge>>(
            assembler.last_includes());
        entry->probed_misses =
            std::make_shared<const std::vector<std::string>>(
                assembler.last_probed_misses());
        entry->object_bytes = 0;
      }
      entry->path = norm;
      entry->source_digest = *source_digest;
      entry->options_digest = options_digest;
      entry->deps_digest = deps_digest_of(vfs, entry->includes.get());
      entry->valid = true;
      bytes_.fetch_add(entry->object_bytes, std::memory_order_relaxed);
      added_bytes = entry->object_bytes != 0;
    }

    out.object = entry->object;
    out.error = entry->error;
    out.includes = entry->includes;

    // Publish successful builds (not failures: a failure is cheap to
    // reproduce and its diagnostics may embed absolute search paths).
    // Still under the entry lock, so the written payload is stable.
    if (persist && entry->object != nullptr) {
      StoredObject stored;
      stored.path = entry->path;
      stored.source_digest = entry->source_digest;
      stored.options_digest = entry->options_digest;
      stored.deps_digest = entry->deps_digest;
      stored.includes = *entry->includes;
      stored.probed_misses = *entry->probed_misses;
      stored.object = *entry->object;
      if (store_->store(key.digest(), stored)) {
        persistent_stores_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  if (added_bytes && max_bytes_ != 0) {
    if (bytes_.load(std::memory_order_relaxed) > max_bytes_) {
      evict_over_budget();
    }
    // The budget spans both tiers: whatever memory still holds, the disk
    // tier may only keep the remainder.
    if (store_ != nullptr) {
      const std::uint64_t memory = bytes_.load(std::memory_order_relaxed);
      const std::uint64_t disk_budget =
          max_bytes_ > memory ? max_bytes_ - memory : 0;
      if (store_->disk_bytes() > disk_budget) {
        persistent_evictions_.fetch_add(store_->trim_to(disk_budget),
                                        std::memory_order_relaxed);
      }
    }
  }
  return out;
}

void ObjectCache::evict_over_budget() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (bytes_.load(std::memory_order_relaxed) <= max_bytes_) return;

  // One scan per burst: collect every evictable entry, oldest-first, then
  // drop in LRU order until the footprint fits. Evictable = nobody else
  // references it: every accessor copies the shared_ptr under mutex_
  // before touching an entry, so use_count()==1 while we hold mutex_
  // proves the entry is idle — its byte accounting cannot race with an
  // in-flight build, and no new borrow can appear until we release.
  struct Candidate {
    std::uint64_t last_used;
    std::uint64_t key;
  };
  std::vector<Candidate> candidates;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    Entry& e = *it->second;
    if (it->second.use_count() != 1) continue;  // borrowed: not evictable
    // use_count()==1 under mutex_ means the lock is free; taking it
    // (never blocking) publishes the last builder's writes to us.
    if (!e.mutex.try_lock()) continue;
    const std::lock_guard<std::mutex> entry_lock(e.mutex, std::adopt_lock);
    if (!e.valid || e.object_bytes == 0) continue;
    candidates.push_back({e.last_used, it->first});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.last_used < b.last_used;
            });
  for (const Candidate& victim : candidates) {
    if (bytes_.load(std::memory_order_relaxed) <= max_bytes_) break;
    auto it = entries_.find(victim.key);
    bytes_.fetch_sub(it->second->object_bytes, std::memory_order_relaxed);
    entries_.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ObjectCacheStats ObjectCache::stats() const {
  ObjectCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.persistent_hits = persistent_hits_.load(std::memory_order_relaxed);
  s.persistent_stores = persistent_stores_.load(std::memory_order_relaxed);
  s.persistent_evictions =
      persistent_evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace advm::core
