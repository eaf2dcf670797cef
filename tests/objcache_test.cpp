// Unit tests for the content-addressed object cache: the assemble-once
// guarantee (hit on identical source/options), the invalidation rules
// (changed source, changed include, changed predefine → miss), failure
// caching, and counter determinism under concurrent same-key requests —
// plus the include-prelude memo beneath it, checked against the
// unmemoized assembler as the reference.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advm/environment.h"
#include "advm/objcache.h"
#include "advm/objstore.h"
#include "advm/porting.h"
#include "advm/regression.h"
#include "asm/include_memo.h"
#include "soc/derivative.h"
#include "support/diagnostics.h"
#include "support/text.h"
#include "support/vfs.h"

namespace {

using namespace advm;
using namespace advm::core;
using assembler::AssemblerOptions;

constexpr const char* kMain = "/src/main.asm";
constexpr const char* kInc = "/src/defs.inc";

support::VirtualFileSystem tiny_program() {
  support::VirtualFileSystem vfs;
  vfs.write(kInc, "MAGIC .EQU 42\n");
  vfs.write(kMain,
            " .INCLUDE defs.inc\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  return vfs;
}

TEST(ObjectCache, SecondIdenticalRequestHitsAndSharesTheObject) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, kMain, options);
  auto second = cache.assemble(vfs, kMain, options);

  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.object.get(), second.object.get());  // shared, not copied

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes, first.object->total_bytes());
}

TEST(ObjectCache, SourceEditMisses) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, kMain, options);
  vfs.write(kMain, std::string(*vfs.read(kMain)) + " NOP\n");
  auto second = cache.assemble(vfs, kMain, options);

  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.hit);
  EXPECT_NE(first.object->total_bytes(), second.object->total_bytes());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ObjectCache, IncludedFileEditMisses) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  (void)cache.assemble(vfs, kMain, options);
  vfs.write(kInc, "MAGIC .EQU 43\n");  // same main source, new include text
  auto rebuilt = cache.assemble(vfs, kMain, options);

  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt.hit);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  // The stale entry was replaced, not leaked: footprint is one object.
  EXPECT_EQ(stats.bytes, rebuilt.object->total_bytes());
}

TEST(ObjectCache, PredefineChangeMisses) {
  auto vfs = tiny_program();
  ObjectCache cache;

  AssemblerOptions a;
  a.predefines["PLATFORM"] = 1;
  AssemblerOptions b;
  b.predefines["PLATFORM"] = 2;

  (void)cache.assemble(vfs, kMain, a);
  auto other = cache.assemble(vfs, kMain, b);

  EXPECT_FALSE(other.hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  // And the original option set still hits its own entry.
  EXPECT_TRUE(cache.assemble(vfs, kMain, a).hit);
}

TEST(ObjectCache, FailedAssemblyIsCachedWithItsDiagnostics) {
  auto vfs = tiny_program();
  vfs.write(kInc, " .ERROR \"broken include\"\n");
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, kMain, options);
  auto second = cache.assemble(vfs, kMain, options);

  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.error, second.error);
  EXPECT_NE(first.error.find("broken include"), std::string::npos);
  // The resolved include list survives failure — callers use it to name
  // the offending file in BUILD-FAIL records.
  ASSERT_TRUE(first.includes != nullptr);
  ASSERT_FALSE(first.includes->empty());
  EXPECT_EQ(first.includes->front().to_file, kInc);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ObjectCache, MissingFileIsReportedButNeverCached) {
  support::VirtualFileSystem vfs;
  ObjectCache cache;
  AssemblerOptions options;

  auto result = cache.assemble(vfs, "/nope.asm", options);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ObjectCache, NewFileShadowingAnIncludeEarlierInTheSearchPathMisses) {
  // The ccache direct-mode hole, closed: the include resolved from the
  // second search directory at build time; creating the same name in the
  // *first* directory afterwards must invalidate the entry, because a
  // fresh assembly would now resolve the earlier path.
  support::VirtualFileSystem vfs;
  vfs.write("/lib2/defs.inc", "MAGIC .EQU 42\n");
  vfs.write("/cells/T1/test.asm",
            " .INCLUDE defs.inc\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  AssemblerOptions options;
  options.include_dirs = {"/lib1", "/lib2"};

  ObjectCache cache;
  auto first = cache.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(cache.assemble(vfs, "/cells/T1/test.asm", options).hit);

  // Shadow from the earlier search directory: different MAGIC, different
  // object bytes — serving the cached object would be a wrong answer.
  vfs.write("/lib1/defs.inc", "MAGIC .EQU 999999\n");
  auto shadowed = cache.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(shadowed.ok());
  EXPECT_FALSE(shadowed.hit);
  ASSERT_FALSE(shadowed.includes->empty());
  EXPECT_EQ(shadowed.includes->front().to_file, "/lib1/defs.inc");

  // A sibling of the including file shadows everything.
  vfs.write("/cells/T1/defs.inc", "MAGIC .EQU 7\n");
  auto sibling = cache.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(sibling.ok());
  EXPECT_FALSE(sibling.hit);
  EXPECT_EQ(sibling.includes->front().to_file, "/cells/T1/defs.inc");

  // Steady state: with no new shadow appearing, hits resume.
  EXPECT_TRUE(cache.assemble(vfs, "/cells/T1/test.asm", options).hit);
}

TEST(ObjectCache, CachedIncludeNotFoundFailureInvalidatesWhenFileAppears) {
  // The failure arm of shadow detection: an include missing everywhere is
  // a cached BUILD-FAIL; creating the file at any probed candidate —
  // including the absolute path itself — must invalidate the entry, or a
  // regenerate-in-place workflow keeps reporting the stale failure.
  support::VirtualFileSystem vfs;
  vfs.write("/cells/T1/test.asm",
            " .INCLUDE \"/lib/abs_defs.inc\"\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, "/cells/T1/test.asm", options);
  EXPECT_FALSE(first.ok());
  EXPECT_NE(first.error.find("cannot find include"), std::string::npos);
  EXPECT_TRUE(cache.assemble(vfs, "/cells/T1/test.asm", options).hit);

  vfs.write("/lib/abs_defs.inc", "MAGIC .EQU 42\n");
  auto repaired = cache.assemble(vfs, "/cells/T1/test.asm", options);
  EXPECT_FALSE(repaired.hit);
  EXPECT_TRUE(repaired.ok()) << repaired.error;
}

TEST(ObjectCache, ByteBudgetEvictsLeastRecentlyUsedEntries) {
  support::VirtualFileSystem vfs;
  const char* files[] = {"/src/a.asm", "/src/b.asm", "/src/c.asm"};
  for (const char* path : files) {
    vfs.write(path, std::string("_main:\n MOV d0, 1\n HALT\n"));
  }
  AssemblerOptions options;

  // Budget fits roughly one object: every new build evicts the oldest.
  ObjectCache unbounded;
  auto probe = unbounded.assemble(vfs, files[0], options);
  ASSERT_TRUE(probe.ok());
  const std::uint64_t one = probe.object->total_bytes();
  ASSERT_GT(one, 0u);

  ObjectCache cache(one + one / 2);
  EXPECT_EQ(cache.max_bytes(), one + one / 2);
  ASSERT_TRUE(cache.assemble(vfs, files[0], options).ok());  // a
  ASSERT_TRUE(cache.assemble(vfs, files[1], options).ok());  // b evicts a
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, cache.max_bytes());

  // b (still cached) hits; a (evicted) rebuilds.
  EXPECT_TRUE(cache.assemble(vfs, files[1], options).hit);
  EXPECT_FALSE(cache.assemble(vfs, files[0], options).hit);

  // LRU order: b was touched after a's rebuild started… rebuild of a
  // evicted b (the least recently used at that moment).
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_LE(stats.bytes, cache.max_bytes());
}

TEST(ObjectCache, UnboundedCacheNeverEvicts) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.assemble(vfs, kMain, options).ok());
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ObjectCache, ConcurrentSameKeyRequestsBuildOnce) {
  // Whatever the pool size, exactly one request per key may miss — the
  // determinism of the regression report's counters depends on it.
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  std::atomic<int> failures{0};
  parallel_for(32, 8, [&](std::size_t) {
    auto result = cache.assemble(vfs, kMain, options);
    if (!result.ok()) failures.fetch_add(1);
  });

  EXPECT_EQ(failures.load(), 0);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 31u);
}

// ----------------------------------------------------- persistent tier ----

/// Fresh scratch directory on the host filesystem, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("advm_objcache_") + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

TEST(PersistentObjectCache, WarmStartAcrossTwoCacheLifetimes) {
  ScratchDir scratch("warm");
  auto vfs = tiny_program();
  AssemblerOptions options;

  std::uint64_t cold_bytes = 0;
  {
    ObjectCache first(0, scratch.path());
    auto built = first.assemble(vfs, kMain, options);
    ASSERT_TRUE(built.ok());
    cold_bytes = built.object->total_bytes();
    auto stats = first.stats();
    EXPECT_EQ(stats.persistent_hits, 0u);
    EXPECT_EQ(stats.persistent_stores, 1u);
  }

  // Second lifetime, same directory: the in-memory miss is served from
  // disk — same object bytes, no rebuild.
  ObjectCache second(0, scratch.path());
  auto warmed = second.assemble(vfs, kMain, options);
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(warmed.object->total_bytes(), cold_bytes);
  auto stats = second.stats();
  EXPECT_EQ(stats.misses, 1u);  // still an in-memory miss...
  EXPECT_EQ(stats.persistent_hits, 1u);  // ...but satisfied from disk
  EXPECT_EQ(stats.persistent_stores, 0u);  // nothing re-published

  // And the adopted entry serves in-memory hits from then on.
  EXPECT_TRUE(second.assemble(vfs, kMain, options).hit);
}

TEST(PersistentObjectCache, ChangedIncludeInvalidatesDiskEntry) {
  ScratchDir scratch("deps");
  auto vfs = tiny_program();
  AssemblerOptions options;
  {
    ObjectCache first(0, scratch.path());
    ASSERT_TRUE(first.assemble(vfs, kMain, options).ok());
  }

  // Same source text, different include content: the disk entry's deps
  // digest no longer matches — rebuild, then re-publish.
  vfs.write(kInc, "MAGIC .EQU 43\n");
  ObjectCache second(0, scratch.path());
  ASSERT_TRUE(second.assemble(vfs, kMain, options).ok());
  auto stats = second.stats();
  EXPECT_EQ(stats.persistent_hits, 0u);
  EXPECT_EQ(stats.persistent_stores, 1u);
}

TEST(PersistentObjectCache, NewShadowingFileInvalidatesDiskEntry) {
  // The probed-miss record must survive the disk round trip: a file
  // created at a search-path candidate probed (and missing) at build time
  // makes the persisted entry stale exactly like an in-memory one.
  ScratchDir scratch("shadow");
  support::VirtualFileSystem vfs;
  vfs.write("/lib2/defs.inc", "MAGIC .EQU 42\n");
  vfs.write("/cells/T1/test.asm",
            " .INCLUDE defs.inc\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  AssemblerOptions options;
  options.include_dirs = {"/lib1", "/lib2"};
  {
    ObjectCache first(0, scratch.path());
    ASSERT_TRUE(first.assemble(vfs, "/cells/T1/test.asm", options).ok());
  }

  vfs.write("/lib1/defs.inc", "MAGIC .EQU 999999\n");
  ObjectCache second(0, scratch.path());
  auto rebuilt = second.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(second.stats().persistent_hits, 0u);
  ASSERT_FALSE(rebuilt.includes->empty());
  EXPECT_EQ(rebuilt.includes->front().to_file, "/lib1/defs.inc");
}

TEST(PersistentObjectCache, CorruptedOrTruncatedEntryFallsBackToMiss) {
  ScratchDir scratch("corrupt");
  auto vfs = tiny_program();
  AssemblerOptions options;
  {
    ObjectCache first(0, scratch.path());
    ASSERT_TRUE(first.assemble(vfs, kMain, options).ok());
  }

  // Damage every stored entry three ways across iterations: truncated,
  // bit-flipped payload, and garbage header. Each must degrade to a
  // rebuild — never a crash, never a wrong object.
  std::vector<std::filesystem::path> entries;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    entries.push_back(entry.path());
  }
  ASSERT_FALSE(entries.empty());
  const auto original =
      [&](const std::filesystem::path& path) -> std::string {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }(entries.front());

  const auto write_bytes = [&](const std::string& bytes) {
    std::ofstream out(entries.front(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  for (const std::string& damaged :
       {original.substr(0, original.size() / 2),
        [&] {
          std::string flipped = original;
          flipped[flipped.size() - 3] ^= static_cast<char>(0xFF);
          return flipped;
        }(),
        std::string("not an advm object"), std::string()}) {
    write_bytes(damaged);
    ObjectCache cache(0, scratch.path());
    auto rebuilt = cache.assemble(vfs, kMain, options);
    ASSERT_TRUE(rebuilt.ok());
    auto stats = cache.stats();
    EXPECT_EQ(stats.persistent_hits, 0u);
    EXPECT_EQ(stats.persistent_stores, 1u);  // repaired on disk
  }

  // The final repair left a valid entry behind.
  ObjectCache cache(0, scratch.path());
  ASSERT_TRUE(cache.assemble(vfs, kMain, options).ok());
  EXPECT_EQ(cache.stats().persistent_hits, 1u);
}

TEST(PersistentObjectCache, StoredObjectRoundTripsExactly) {
  auto vfs = tiny_program();
  AssemblerOptions options;
  ScratchDir scratch("roundtrip");
  ObjectCache cache(0, scratch.path());
  auto built = cache.assemble(vfs, kMain, options);
  ASSERT_TRUE(built.ok());

  StoredObject entry;
  entry.path = kMain;
  entry.source_digest = 1;
  entry.options_digest = 2;
  entry.deps_digest = 3;
  entry.includes = *built.includes;
  entry.probed_misses = {"/a/defs.inc"};
  entry.object = *built.object;

  const std::string bytes = encode_stored_object(entry);
  const auto decoded = decode_stored_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->path, entry.path);
  EXPECT_EQ(decoded->deps_digest, entry.deps_digest);
  EXPECT_EQ(decoded->probed_misses, entry.probed_misses);
  ASSERT_EQ(decoded->includes.size(), entry.includes.size());
  EXPECT_EQ(decoded->object.name, entry.object.name);
  ASSERT_EQ(decoded->object.sections.size(), entry.object.sections.size());
  for (std::size_t i = 0; i < entry.object.sections.size(); ++i) {
    EXPECT_EQ(decoded->object.sections[i].bytes,
              entry.object.sections[i].bytes);
    EXPECT_EQ(decoded->object.sections[i].org, entry.object.sections[i].org);
  }
  EXPECT_EQ(decoded->object.symbols.size(), entry.object.symbols.size());
  EXPECT_EQ(decoded->object.relocations.size(),
            entry.object.relocations.size());

  // Truncation at every prefix length parses to nullopt, never UB.
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    EXPECT_FALSE(decode_stored_object(bytes.substr(0, n)).has_value());
  }
}

TEST(PersistentObjectCache, ConcurrentWritersPublishWholeEntries) {
  // Shard workers share one cache directory with no coordination beyond
  // atomic renames: racing same-key writers must leave a complete entry
  // (any of theirs) and no torn files behind.
  ScratchDir scratch("race");
  auto vfs = tiny_program();
  AssemblerOptions options;

  constexpr int kWriters = 8;
  std::vector<std::unique_ptr<ObjectCache>> caches;
  for (int i = 0; i < kWriters; ++i) {
    caches.push_back(std::make_unique<ObjectCache>(0, scratch.path()));
  }
  std::atomic<int> failures{0};
  parallel_for(kWriters, kWriters, [&](std::size_t i) {
    if (!caches[i]->assemble(vfs, kMain, options).ok()) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);

  // No temp droppings; exactly one entry file; it decodes.
  std::size_t entry_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    EXPECT_EQ(entry.path().extension(), ".advmobj")
        << "leftover temp file " << entry.path();
    ++entry_files;
  }
  EXPECT_EQ(entry_files, 1u);
  ObjectCache reader(0, scratch.path());
  ASSERT_TRUE(reader.assemble(vfs, kMain, options).ok());
  EXPECT_EQ(reader.stats().persistent_hits, 1u);
}

TEST(PersistentObjectCache, ByteBudgetSpansBothTiers) {
  ScratchDir scratch("budget");
  support::VirtualFileSystem vfs;
  for (const char* path : {"/src/a.asm", "/src/b.asm", "/src/c.asm"}) {
    vfs.write(path, std::string("_main:\n MOV d0, 1\n HALT\n"));
  }
  AssemblerOptions options;

  std::uint64_t one_object = 0;
  {
    ObjectCache probe;
    one_object = probe.assemble(vfs, "/src/a.asm", options)
                     .object->total_bytes();
  }

  // Budget for two objects across memory + disk: after the third build
  // something must have given — and the combined footprint must fit.
  ObjectCache cache(2 * one_object, scratch.path());
  for (const char* path : {"/src/a.asm", "/src/b.asm", "/src/c.asm"}) {
    ASSERT_TRUE(cache.assemble(vfs, path, options).ok());
  }
  auto stats = cache.stats();
  EXPECT_LE(stats.bytes + cache.disk_store()->disk_bytes(),
            2 * one_object);
  EXPECT_GT(stats.evictions + stats.persistent_evictions, 0u);
}

TEST(PersistentObjectCache, EntryWithTheVersionOneMagicIsRebuilt) {
  // Version 1 keyed entries on the source text and hashed include contents
  // into the deps digest; such an entry must never be adopted. Rewrite
  // the stored entry with the old magic (payload and checksum intact) and
  // expect a rebuild that re-stores it in the current format.
  ScratchDir scratch("magic");
  auto vfs = tiny_program();
  AssemblerOptions options;
  {
    ObjectCache first(0, scratch.path());
    ASSERT_TRUE(first.assemble(vfs, kMain, options).ok());
  }
  std::vector<std::filesystem::path> entries;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    entries.push_back(entry.path());
  }
  ASSERT_EQ(entries.size(), 1u);
  const auto read_bytes = [&] {
    std::ifstream in(entries.front(), std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  std::string bytes = read_bytes();
  ASSERT_EQ(bytes.substr(0, 8), "ADVMOBJ2");
  bytes[7] = '1';
  {
    std::ofstream out(entries.front(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(decode_stored_object(bytes).has_value());

  {
    ObjectCache cache(0, scratch.path());
    ASSERT_TRUE(cache.assemble(vfs, kMain, options).ok());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.persistent_hits, 0u);
    EXPECT_EQ(stats.persistent_stores, 1u);
  }
  EXPECT_EQ(read_bytes().substr(0, 8), "ADVMOBJ2");
  ObjectCache warm(0, scratch.path());
  ASSERT_TRUE(warm.assemble(vfs, kMain, options).ok());
  EXPECT_EQ(warm.stats().persistent_hits, 1u);
}

// ---------------------------------------------------------- include memo --

/// Everything one assembly returns, as bytes: success, the rendered
/// diagnostics, and the object, include edges and probed misses in the
/// persistent store's encoding. A null `memo` is the reference assembler.
std::string assembly_bytes(const support::VirtualFileSystem& vfs,
                           const std::string& path,
                           const AssemblerOptions& options,
                           assembler::IncludeMemo* memo) {
  support::DiagnosticEngine diags;
  assembler::Assembler asm_driver(vfs, diags, options, memo);
  auto result = asm_driver.assemble_file(path);
  StoredObject out;
  if (result) {
    out.object = std::move(result->object);
    out.includes = std::move(result->includes);
    out.probed_misses = std::move(result->probed_misses);
  } else {
    out.includes = asm_driver.last_includes();
    out.probed_misses = asm_driver.last_probed_misses();
  }
  return (result ? "ok\n" : "failed\n") + diags.to_string() +
         encode_stored_object(out);
}

/// Assembles each unit through `memo` and expects the reference bytes.
void expect_transparent(const support::VirtualFileSystem& vfs,
                        const std::vector<std::string>& units,
                        const AssemblerOptions& options,
                        assembler::IncludeMemo& memo) {
  for (const std::string& unit : units) {
    EXPECT_EQ(assembly_bytes(vfs, unit, options, &memo),
              assembly_bytes(vfs, unit, options, nullptr))
        << unit;
  }
}

TEST(IncludeMemo, MemoizedAssemblyMatchesTheReferenceOnEveryCorpusUnit) {
  // One memo across every tree: fresh inits on SC88-A..D, then one
  // SC88-A tree ported through every derivative in place (each port
  // rewrites Globals.inc under the recorded paths).
  SystemConfig config;
  config.environments = canonical_environments(3);
  config.environments.push_back({"DIRECT_MODULE", ModuleKind::Uart, 3, false});
  assembler::IncludeMemo memo;
  auto check_tree = [&](const support::VirtualFileSystem& vfs,
                        const SystemLayout& layout) {
    for (const EnvironmentLayout& env : layout.environments) {
      const CellRecipe recipe = cell_recipe(vfs, env.dir, layout.global_dir);
      std::vector<std::string> units = recipe.shared_sources;
      for (const TestSpec& test : env.tests) {
        units.push_back(env.dir + "/" + test.id + "/" + kTestSourceFile);
      }
      expect_transparent(vfs, units, recipe.options, memo);
    }
  };
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    support::VirtualFileSystem vfs;
    check_tree(vfs, build_system(vfs, config, *spec));
  }
  support::VirtualFileSystem vfs;
  const SystemLayout layout = build_system(vfs, config, soc::derivative_a());
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    (void)PortingEngine(vfs).port(layout, *spec, config.globals,
                                  config.base_functions);
    check_tree(vfs, layout);
  }
  // The memo did serve: most prelude includes were copied in.
  EXPECT_GT(memo.stats().hits, memo.stats().records);
}

constexpr const char* kPreludeDir = "/env/Abstraction_Layer";
constexpr const char* kGlobalsInc = "/env/Abstraction_Layer/Globals.inc";
constexpr const char* kRegDefs = "/glob/register_defs.inc";
const std::vector<std::string> kPreludeUnits = {"/env/T1/test.asm",
                                                "/env/T2/test.asm"};

/// A miniature environment: two tests open with `.INCLUDE Globals.inc`,
/// which pulls register_defs.inc from the global directory and defines an
/// equate, a .DEFINE and a macro. `globals_extra` is appended to
/// Globals.inc, `test_head` goes before each test's include and
/// `test_tail` after its body.
support::VirtualFileSystem prelude_tree(std::string_view globals_extra = "",
                                        std::string_view test_head = "",
                                        std::string_view test_tail = "") {
  support::VirtualFileSystem vfs;
  vfs.write(kRegDefs, "REG_BASE .EQU 0x1000\n");
  vfs.write(kGlobalsInc, ";; abstraction layer\n"
                         ".INCLUDE register_defs.inc\n"
                         "LED_REG .EQU REG_BASE + 4\n"
                         ".DEFINE ArgReg0 d4\n"
                         ".MACRO LOADK reg, value\n"
                         " MOV reg, value\n"
                         ".ENDM\n" +
                             std::string(globals_extra));
  for (std::size_t i = 0; i < kPreludeUnits.size(); ++i) {
    vfs.write(kPreludeUnits[i],
              ";; test " + std::to_string(i) + "\n" + std::string(test_head) +
                  ".INCLUDE Globals.inc\n"
                  "_main:\n"
                  " LOADK ArgReg0, LED_REG + " +
                  std::to_string(i) + "\n HALT\n" + std::string(test_tail));
  }
  return vfs;
}

AssemblerOptions prelude_options() {
  AssemblerOptions options;
  options.include_dirs = {kPreludeDir, "/glob"};
  return options;
}

TEST(IncludeMemo, PreludeIsRecordedOnceAndServedToLaterUnits) {
  const auto vfs = prelude_tree();
  assembler::IncludeMemo memo;
  expect_transparent(vfs, kPreludeUnits, prelude_options(), memo);
  EXPECT_EQ(memo.stats().records, 1u);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST(IncludeMemo, EditingANestedIncludeInvalidates) {
  auto vfs = prelude_tree();
  assembler::IncludeMemo memo;
  const std::string before =
      assembly_bytes(vfs, kPreludeUnits[1], prelude_options(), nullptr);
  expect_transparent(vfs, {kPreludeUnits[0]}, prelude_options(), memo);
  vfs.write(kRegDefs, "REG_BASE .EQU 0x2000\n");
  expect_transparent(vfs, {kPreludeUnits[1]}, prelude_options(), memo);
  EXPECT_NE(assembly_bytes(vfs, kPreludeUnits[1], prelude_options(), &memo),
            before);
  EXPECT_EQ(memo.stats().records, 2u);
  EXPECT_EQ(memo.stats().hits, 1u);  // the EXPECT_NE call, on the new record
}

TEST(IncludeMemo, FileAtANestedProbedMissPathInvalidates) {
  // register_defs.inc resolved from /glob after missing beside
  // Globals.inc; a file created at that missed path now shadows it.
  auto vfs = prelude_tree();
  assembler::IncludeMemo memo;
  expect_transparent(vfs, {kPreludeUnits[0]}, prelude_options(), memo);
  vfs.write(std::string(kPreludeDir) + "/register_defs.inc",
            "REG_BASE .EQU 0x3000\n");
  expect_transparent(vfs, {kPreludeUnits[1]}, prelude_options(), memo);
  EXPECT_EQ(memo.stats().hits, 0u);
  EXPECT_EQ(memo.stats().records, 2u);
}

TEST(IncludeMemo, DifferentPredefinesMiss) {
  const auto vfs = prelude_tree(".IF PLATFORM == 2\nEXTRA .EQU 1\n.ENDIF\n");
  AssemblerOptions one = prelude_options();
  one.predefines["PLATFORM"] = 1;
  AssemblerOptions two = prelude_options();
  two.predefines["PLATFORM"] = 2;
  assembler::IncludeMemo memo;
  expect_transparent(vfs, {kPreludeUnits[0]}, one, memo);
  expect_transparent(vfs, {kPreludeUnits[0]}, two, memo);
  EXPECT_EQ(memo.stats().hits, 0u);
  EXPECT_EQ(memo.stats().records, 2u);
  expect_transparent(vfs, {kPreludeUnits[1]}, one, memo);
  expect_transparent(vfs, {kPreludeUnits[1]}, two, memo);
  EXPECT_EQ(memo.stats().hits, 2u);
}

TEST(IncludeMemo, IncludeWithAWarningIsNeverMemoized) {
  const auto vfs = prelude_tree(".WARNING \"prelude is deprecated\"\n");
  assembler::IncludeMemo memo;
  expect_transparent(vfs, kPreludeUnits, prelude_options(), memo);
  EXPECT_EQ(memo.stats().records, 0u);
  for (const std::string& unit : kPreludeUnits) {
    EXPECT_NE(assembly_bytes(vfs, unit, prelude_options(), &memo)
                  .find("prelude is deprecated"),
              std::string::npos)
        << unit;
  }
}

TEST(IncludeMemo, IncludeThatEmitsOrLeavesScopesOpenIsNotMemoized) {
  struct Variant {
    const char* globals_extra;
    const char* test_tail;
  };
  for (const Variant& v : {Variant{"helper:\n", ""},
                           Variant{" .DB 1, 2\n", ""},
                           Variant{" .DD LED_REG_PTR\n", ""},
                           Variant{" .ORG 0x100\n", ""},
                           Variant{" .SECTION data\n", ""},
                           Variant{".IF 1\n", ".ENDIF\n"},
                           Variant{".MACRO OPEN\n", ".ENDM\n"}}) {
    const auto vfs = prelude_tree(v.globals_extra, "", v.test_tail);
    assembler::IncludeMemo memo;
    expect_transparent(vfs, kPreludeUnits, prelude_options(), memo);
    EXPECT_EQ(memo.stats().records, 0u) << v.globals_extra;
  }
}

TEST(IncludeMemo, IncludeAfterTheFirstStatementTakesTheNormalPath) {
  for (const char* head : {"EARLY .EQU 1\n", "start:\n", " NOP\n",
                           ".DEFINE EARLY d1\n", ".IF 1\n"}) {
    const std::string tail = head == std::string(".IF 1\n") ? ".ENDIF\n" : "";
    const auto vfs = prelude_tree("", head, tail);
    assembler::IncludeMemo memo;
    expect_transparent(vfs, kPreludeUnits, prelude_options(), memo);
    EXPECT_EQ(memo.stats().records, 0u) << head;
    EXPECT_EQ(memo.stats().hits, 0u) << head;
  }
}

TEST(IncludeMemo, WritingANestedIncludeInvalidatesRecordAndCacheEntry) {
  // Both layers revalidate on the VFS's per-file digests; a write through
  // VirtualFileSystem::write to either prelude file must make both the
  // memo record and the cached test objects stale.
  struct Edit {
    const char* path;
    const char* from;
    const char* to;
  };
  for (const Edit& edit : {Edit{kRegDefs, "0x1000", "0x2000"},
                           Edit{kGlobalsInc, "REG_BASE + 4", "REG_BASE + 8"}}) {
    auto vfs = prelude_tree();
    ObjectCache cache;
    for (const std::string& unit : kPreludeUnits) {
      ASSERT_TRUE(cache.assemble(vfs, unit, prelude_options()).ok());
    }
    ASSERT_EQ(cache.include_memo().stats().records, 1u);

    vfs.write(edit.path,
              support::replace_all(*vfs.find(edit.path), edit.from, edit.to));
    for (const std::string& unit : kPreludeUnits) {
      auto rebuilt = cache.assemble(vfs, unit, prelude_options());
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.error;
      EXPECT_FALSE(rebuilt.hit) << edit.path << " " << unit;
      support::DiagnosticEngine diags;
      assembler::Assembler reference(vfs, diags, prelude_options());
      auto expected = reference.assemble_file(unit);
      ASSERT_TRUE(expected.has_value());
      EXPECT_EQ(rebuilt.object->sections.front().bytes,
                expected->object.sections.front().bytes)
          << edit.path << " " << unit;
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u) << edit.path;
    EXPECT_EQ(stats.misses, 4u) << edit.path;
    // The stale record was replaced once and served to the second unit.
    EXPECT_EQ(cache.include_memo().stats().records, 2u) << edit.path;
    EXPECT_EQ(cache.include_memo().stats().hits, 2u) << edit.path;
  }
}

TEST(IncludeMemo, ObjectCacheMissesAssembleThroughTheMemo) {
  const auto vfs = prelude_tree();
  ObjectCache cache;
  for (const std::string& unit : kPreludeUnits) {
    EXPECT_TRUE(cache.assemble(vfs, unit, prelude_options()).ok());
  }
  EXPECT_EQ(cache.include_memo().stats().records, 1u);
  EXPECT_EQ(cache.include_memo().stats().hits, 1u);
}

}  // namespace
