// Content-addressed object cache — the assemble-once half of the matrix
// pipeline.
//
// The ADVM premise (paper Fig 2, §2) is that test-layer sources are
// target-neutral: the same test.asm assembles to the same object no matter
// which derivative or platform the link targets. The regression runner
// therefore needs each translation unit assembled exactly once per process,
// not once per matrix cell. This cache keys an assembled ObjectFile by an
// FNV-1a digest over (source path, source digest, AssemblerOptions) and
// revalidates entries against the digest of every include the assembly
// resolved, so `advm random` / porting-style regeneration of Globals.inc is
// picked up while untouched sources are served without re-lexing. Every
// digest is the VFS's per-file one (VirtualFileSystem::digest), computed
// once per written version of a file, so neither a miss nor a hit re-hashes
// the source or the preludes it includes.
//
// The path participates in the key because ObjectFile::name (the layer
// identity the violation checker relies on) is the source path: two files
// with identical text must still yield objects carrying their own names.
//
// Concurrency: requests for different keys assemble in parallel; concurrent
// requests for the same key serialise on the entry, so exactly one of them
// builds and the rest observe a hit. That once-per-key discipline is what
// keeps the hit/miss counters deterministic for any worker-pool size — a
// property the regression report format tests rely on.
//
// Shadowing: revalidation re-checks the includes recorded at build time AND
// re-probes every include path that was *probed and missing* during the
// build (the sibling directory and search-path candidates ahead of the one
// that resolved). Creating a new file that shadows an include earlier in
// the search path therefore invalidates the entry — the hole ccache's
// direct mode leaves open is closed here.
//
// Budget: an optional byte budget (`max_bytes`, 0 = unbounded) caps the
// emitted-byte footprint. When a build pushes the cache over budget the
// least-recently-used entries are evicted until it fits; eviction counts
// are surfaced in ObjectCacheStats. Entries currently being built or read
// are never evicted.
//
// Persistence: an optional on-disk tier (`disk_dir`, see
// src/advm/objstore.h) makes entries outlive the process. A request that
// misses in memory probes the disk entry under the same key and adopts it
// when every revalidation rule passes (source/options digests, include
// digests, probed-miss shadowing) — counted as a `persistent_hit` on top
// of the in-memory miss, so the hit/miss counters keep their historical
// meaning. Successful builds are published to disk with atomic renames, so
// concurrent shard workers can share one cache directory. The byte budget
// spans both tiers: memory evicts LRU first, then the disk tier trims its
// oldest entries until memory + disk fits.
//
// Include preludes: every miss assembles through the cache's include memo
// (src/asm/include_memo.h), so the Globals.inc every test of an
// environment opens with is lexed once per cache lifetime, not once per
// test. The memo sits below the hit/miss accounting and never changes an
// assembly's result.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "advm/objstore.h"
#include "asm/assembler.h"
#include "asm/include_memo.h"
#include "support/vfs.h"

namespace advm::core {

/// Counters exposed on RegressionReport and printed by format_report.
/// `hits`/`misses` count cache requests; `bytes` is the emitted-byte
/// footprint of every object currently held.
struct ObjectCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes = 0;
  std::uint64_t evictions = 0;  ///< entries dropped by the byte budget
  /// Persistent-tier counters (all zero without a cache dir): in-memory
  /// misses served from disk, entries published to disk, entries trimmed
  /// off disk by the byte budget.
  std::uint64_t persistent_hits = 0;
  std::uint64_t persistent_stores = 0;
  std::uint64_t persistent_evictions = 0;
};

/// Outcome of a cached assembly: a shared immutable object on success, the
/// diagnostic text of the failed build otherwise. `includes` lists every
/// resolved include either way (shared with the cache entry, never copied
/// per hit) — build-failure records use it to name the offending file.
struct CachedObject {
  std::shared_ptr<const assembler::ObjectFile> object;  ///< null on failure
  std::string error;
  std::shared_ptr<const std::vector<assembler::IncludeEdge>> includes;
  bool hit = false;

  [[nodiscard]] bool ok() const { return object != nullptr; }
};

class ObjectCache {
 public:
  /// `max_bytes` caps the emitted-byte footprint across both tiers (LRU
  /// eviction); 0 keeps the cache unbounded, the historical behaviour. A
  /// non-empty `disk_dir` enables the persistent tier in that directory.
  explicit ObjectCache(std::uint64_t max_bytes = 0, std::string disk_dir = {})
      : max_bytes_(max_bytes) {
    if (!disk_dir.empty()) {
      store_ = std::make_unique<PersistentObjectStore>(std::move(disk_dir));
    }
  }
  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  [[nodiscard]] std::uint64_t max_bytes() const { return max_bytes_; }

  /// The persistent tier, or nullptr when the cache is memory-only.
  [[nodiscard]] const PersistentObjectStore* disk_store() const {
    return store_.get();
  }

  /// Returns the object for (path, current source digest, options), assembling
  /// it at most once until an input changes. Failed assemblies are cached
  /// too (their diagnostic text is as deterministic as the object would be).
  [[nodiscard]] CachedObject assemble(const support::VirtualFileSystem& vfs,
                                      std::string_view path,
                                      const assembler::AssemblerOptions& options);

  [[nodiscard]] ObjectCacheStats stats() const;

  /// The include-prelude memo every miss assembles through.
  [[nodiscard]] const assembler::IncludeMemo& include_memo() const {
    return memo_;
  }

 private:
  struct Entry {
    std::mutex mutex;
    bool valid = false;
    // Key material re-verified on every hit: the map key is a bare 64-bit
    // FNV digest of these three, and a verification tool must not serve the
    // wrong object when two different inputs collide on it.
    std::string path;
    std::uint64_t source_digest = 0;
    std::uint64_t options_digest = 0;
    std::shared_ptr<const assembler::ObjectFile> object;
    std::string error;
    std::shared_ptr<const std::vector<assembler::IncludeEdge>> includes;
    /// Include candidates probed and missing at build time; the entry is
    /// stale the moment any of them exists (search-path shadowing).
    std::shared_ptr<const std::vector<std::string>> probed_misses;
    std::uint64_t deps_digest = 0;
    std::uint64_t object_bytes = 0;
    std::uint64_t last_used = 0;  ///< LRU tick (monotonic request counter)
  };

  /// Evicts least-recently-used entries until the footprint fits
  /// `max_bytes_`. Called with no locks held; entries whose lock cannot be
  /// taken without blocking (in-flight builds/reads) are skipped.
  void evict_over_budget();

  mutable std::mutex mutex_;  ///< guards `entries_` (not entry payloads)
  std::map<std::uint64_t, std::shared_ptr<Entry>> entries_;
  std::uint64_t max_bytes_ = 0;
  std::unique_ptr<PersistentObjectStore> store_;
  assembler::IncludeMemo memo_;
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> persistent_hits_{0};
  std::atomic<std::uint64_t> persistent_stores_{0};
  std::atomic<std::uint64_t> persistent_evictions_{0};
};

}  // namespace advm::core
