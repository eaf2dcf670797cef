// Unit tests for the support layer: text utilities, VFS, hashing, RNG,
// diagnostics.
#include <gtest/gtest.h>

#include <set>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "support/diagnostics.h"
#include "support/disk.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/text.h"
#include "support/vfs.h"

namespace {

using namespace advm::support;

// ---------------------------------------------------------------- text ----

TEST(Text, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Text, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Text, SplitLinesHandlesCrLfAndFinalLine) {
  auto lines = split_lines("one\r\ntwo\nthree");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(lines[2], "three");
}

TEST(Text, SplitLinesEmptyInput) {
  EXPECT_TRUE(split_lines("").empty());
}

TEST(Text, CaseHelpers) {
  EXPECT_EQ(to_upper("MixedCase123"), "MIXEDCASE123");
  EXPECT_EQ(to_lower("MixedCase123"), "mixedcase123");
  EXPECT_TRUE(equals_nocase(".INCLUDE", ".include"));
  EXPECT_FALSE(equals_nocase("abc", "abcd"));
  EXPECT_TRUE(starts_with_nocase(".ENDM  ; comment", ".endm"));
  EXPECT_FALSE(starts_with_nocase("x", "xyz"));
}

TEST(Text, ParseIntegerDecimalHexBinary) {
  EXPECT_EQ(parse_integer("42"), 42);
  EXPECT_EQ(parse_integer("0x2A"), 42);
  EXPECT_EQ(parse_integer("0b101010"), 42);
  EXPECT_EQ(parse_integer("-7"), -7);
  EXPECT_EQ(parse_integer("1_000"), 1000);
  EXPECT_EQ(parse_integer("'A'"), 65);
}

TEST(Text, ParseIntegerRejectsMalformed) {
  EXPECT_FALSE(parse_integer("").has_value());
  EXPECT_FALSE(parse_integer("0x").has_value());
  EXPECT_FALSE(parse_integer("12ab").has_value());
  EXPECT_FALSE(parse_integer("0b102").has_value());
  EXPECT_FALSE(parse_integer("--3").has_value());
}

TEST(Text, ParseIntegerSixtyFourBitBoundary) {
  // Exactly 64 bits is the widest representable literal (all-ones reads as
  // -1, the classic assembler idiom); wider is malformed, not UB.
  EXPECT_EQ(parse_integer("0xFFFFFFFFFFFFFFFF"), -1);
  EXPECT_EQ(parse_integer("0FFFFFFFFFFFFFFFFh"), -1);
  EXPECT_EQ(parse_integer("18446744073709551615"), -1);  // 2^64 - 1
  EXPECT_EQ(parse_integer("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(parse_integer("0x10000000000000000").has_value());
  EXPECT_FALSE(parse_integer("11112222333344445h").has_value());
  EXPECT_FALSE(parse_integer("18446744073709551616").has_value());  // 2^64
}

TEST(Text, ReplaceAll) {
  EXPECT_EQ(replace_all("a@b@c", "@", "__1"), "a__1b__1c");
  EXPECT_EQ(replace_all("none", "@", "x"), "none");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Text, CountLines) {
  EXPECT_EQ(count_lines(""), 0u);
  EXPECT_EQ(count_lines("one"), 1u);
  EXPECT_EQ(count_lines("one\n"), 1u);
  EXPECT_EQ(count_lines("one\ntwo"), 2u);
}

TEST(Text, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// ----------------------------------------------------------------- vfs ----

TEST(Vfs, NormalizePath) {
  EXPECT_EQ(normalize_path("a/b/c"), "/a/b/c");
  EXPECT_EQ(normalize_path("/a//b/"), "/a/b");
  EXPECT_EQ(normalize_path("/a/./b"), "/a/b");
  EXPECT_EQ(normalize_path("/a/x/../b"), "/a/b");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path("../.."), "/");
}

TEST(Vfs, PathHelpers) {
  EXPECT_EQ(parent_path("/a/b/c"), "/a/b");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(base_name("/a/b/c.inc"), "c.inc");
  EXPECT_EQ(join_path("/a/b", "c.asm"), "/a/b/c.asm");
  EXPECT_EQ(join_path("/a/b/", "/c"), "/a/b/c");
}

TEST(Vfs, WriteReadRoundTrip) {
  VirtualFileSystem vfs;
  vfs.write("/env/Globals.inc", "PAGE .EQU 8\n");
  EXPECT_TRUE(vfs.exists("/env/Globals.inc"));
  EXPECT_EQ(vfs.read("/env/Globals.inc"), "PAGE .EQU 8\n");
  EXPECT_FALSE(vfs.read("/env/missing").has_value());
  EXPECT_THROW((void)vfs.read_required("/env/missing"), std::out_of_range);
  // find() is the non-copying read: the stored string itself, by any
  // spelling of the path.
  const std::string* stored = vfs.find("//env/./Globals.inc");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, "PAGE .EQU 8\n");
  EXPECT_EQ(stored, &vfs.read_required("/env/Globals.inc"));
  EXPECT_EQ(vfs.find("/env/missing"), nullptr);
}

TEST(Vfs, ListTreeIsSortedAndScoped) {
  VirtualFileSystem vfs;
  vfs.write("/env/b.asm", "b");
  vfs.write("/env/a.asm", "a");
  vfs.write("/other/c.asm", "c");
  auto tree = vfs.list_tree("/env");
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree[0], "/env/a.asm");
  EXPECT_EQ(tree[1], "/env/b.asm");
}

TEST(Vfs, ListDirShowsImmediateChildren) {
  VirtualFileSystem vfs;
  vfs.write("/env/sub/x.asm", "x");
  vfs.write("/env/sub/y.asm", "y");
  vfs.write("/env/top.asm", "t");
  auto entries = vfs.list_dir("/env");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "sub/");
  EXPECT_EQ(entries[1], "top.asm");
}

TEST(Vfs, RemoveTree) {
  VirtualFileSystem vfs;
  vfs.write("/env/a", "1");
  vfs.write("/env/b/c", "2");
  vfs.write("/keep", "3");
  EXPECT_EQ(vfs.remove_tree("/env"), 2u);
  EXPECT_FALSE(vfs.dir_exists("/env"));
  EXPECT_TRUE(vfs.exists("/keep"));
}

TEST(Vfs, CopyTreePreservesContent) {
  VirtualFileSystem vfs;
  vfs.write("/src/f1", "alpha");
  vfs.write("/src/d/f2", "beta");
  vfs.copy_tree("/src", "/dst");
  EXPECT_EQ(vfs.read("/dst/f1"), "alpha");
  EXPECT_EQ(vfs.read("/dst/d/f2"), "beta");
  EXPECT_EQ(vfs.read("/src/f1"), "alpha");  // source untouched
}

TEST(Vfs, ExportTreeToAnotherVfs) {
  VirtualFileSystem a;
  VirtualFileSystem b;
  a.write("/env/x", "payload");
  a.export_tree("/env", b, "/snapshot");
  EXPECT_EQ(b.read("/snapshot/x"), "payload");
}

TEST(Vfs, NormalizePathTable) {
  // Outputs pinned to the component-by-component normaliser; the
  // already-normal fast path must return exactly the same strings.
  struct Case {
    const char* in;
    const char* out;
  };
  for (const Case& c : {Case{"/env/T1/test.asm", "/env/T1/test.asm"},
                        Case{"/a", "/a"},
                        Case{"/a//b", "/a/b"},
                        Case{"//a", "/a"},
                        Case{"/a/./b", "/a/b"},
                        Case{"/a/.", "/a"},
                        Case{"/./a", "/a"},
                        Case{"/a/b/../c", "/a/c"},
                        Case{"/a/..", "/"},
                        Case{"/..", "/"},
                        Case{"/../a", "/a"},
                        Case{"/a/../../b", "/b"},
                        Case{"/a/b/", "/a/b"},
                        Case{"/a/b//", "/a/b"},
                        Case{"a/b", "/a/b"},
                        Case{"./a", "/a"},
                        Case{"a", "/a"},
                        Case{"/...", "/..."},
                        Case{"/.a/..b", "/.a/..b"},
                        Case{"/", "/"},
                        Case{"//", "/"},
                        Case{"", "/"}}) {
    EXPECT_EQ(normalize_path(c.in), c.out) << '"' << c.in << '"';
  }
}

TEST(Vfs, DigestOfAnAbsentPathIsNullopt) {
  VirtualFileSystem vfs;
  EXPECT_FALSE(vfs.digest("/env/missing").has_value());
  vfs.write("/env/present", "x");
  EXPECT_FALSE(vfs.digest("/env/missing").has_value());
  EXPECT_FALSE(vfs.digest("/env").has_value());  // a directory is no file
}

TEST(Vfs, DigestIsTheHashOfTheContentByAnySpelling) {
  VirtualFileSystem vfs;
  vfs.write("/env/Globals.inc", "PAGE .EQU 8\n");
  vfs.write("/env/empty", "");
  EXPECT_EQ(vfs.digest("/env/Globals.inc"), hash_bytes("PAGE .EQU 8\n"));
  EXPECT_EQ(vfs.digest("//env/./Globals.inc"), hash_bytes("PAGE .EQU 8\n"));
  EXPECT_EQ(vfs.digest("/env/empty"), hash_bytes(""));
  // Asking again serves the kept digest: same value.
  EXPECT_EQ(vfs.digest("/env/Globals.inc"), hash_bytes("PAGE .EQU 8\n"));
}

TEST(Vfs, OverwritingChangesTheDigestOnlyWithOtherBytes) {
  VirtualFileSystem vfs;
  vfs.write("/f", "alpha");
  const auto first = vfs.digest("/f");
  ASSERT_TRUE(first.has_value());
  vfs.write("/f", "beta");
  EXPECT_NE(vfs.digest("/f"), first);
  EXPECT_EQ(vfs.digest("/f"), hash_bytes("beta"));
  vfs.write("/f", "beta");  // same bytes again
  EXPECT_EQ(vfs.digest("/f"), hash_bytes("beta"));
  vfs.write("/f", "alpha");
  EXPECT_EQ(vfs.digest("/f"), first);
}

TEST(Vfs, CopiesCarryTheDigestAndRemoveDropsIt) {
  VirtualFileSystem vfs;
  vfs.write("/src/hashed", "alpha");
  vfs.write("/src/d/unhashed", "beta");
  const auto hashed = vfs.digest("/src/hashed");
  vfs.copy_tree("/src", "/dst");
  EXPECT_EQ(vfs.digest("/dst/hashed"), hashed);
  EXPECT_EQ(vfs.digest("/dst/d/unhashed"), hash_bytes("beta"));

  VirtualFileSystem other;
  other.write("/snapshot/hashed", "stale");
  (void)other.digest("/snapshot/hashed");
  vfs.export_tree("/src", other, "/snapshot");
  EXPECT_EQ(other.digest("/snapshot/hashed"), hashed);
  EXPECT_EQ(other.digest("/snapshot/d/unhashed"), hash_bytes("beta"));

  // A copy is its own file: writing it leaves the original's digest alone.
  vfs.write("/dst/hashed", "gamma");
  EXPECT_EQ(vfs.digest("/dst/hashed"), hash_bytes("gamma"));
  EXPECT_EQ(vfs.digest("/src/hashed"), hashed);

  EXPECT_TRUE(vfs.remove("/src/hashed"));
  EXPECT_FALSE(vfs.digest("/src/hashed").has_value());
  vfs.write("/src/hashed", "delta");
  EXPECT_EQ(vfs.digest("/src/hashed"), hash_bytes("delta"));
  EXPECT_EQ(vfs.remove_tree("/dst"), 2u);
  EXPECT_FALSE(vfs.digest("/dst/d/unhashed").has_value());
}

TEST(Vfs, ConcurrentFirstDigestRequestsAgree) {
  // Digests are computed lazily by whichever reader asks first; pool
  // threads racing on one file's first request must all see the same
  // value (run under TSan in CI).
  VirtualFileSystem vfs;
  const std::string content(64 * 1024, 'x');
  vfs.write("/env/Globals.inc", content);
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[static_cast<std::size_t>(t)] =
          vfs.digest("/env/Globals.inc").value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::uint64_t digest : seen) EXPECT_EQ(digest, hash_bytes(content));
}

// ---------------------------------------------------------------- hash ----

TEST(Hash, TreeHashIsOrderIndependentOfInsertion) {
  VirtualFileSystem a;
  VirtualFileSystem b;
  a.write("/t/1", "one");
  a.write("/t/2", "two");
  b.write("/t/2", "two");
  b.write("/t/1", "one");
  EXPECT_EQ(hash_tree(a, "/t"), hash_tree(b, "/t"));
}

TEST(Hash, TreeHashDetectsContentChange) {
  VirtualFileSystem vfs;
  vfs.write("/t/file", "v1");
  auto before = hash_tree(vfs, "/t");
  vfs.write("/t/file", "v2");
  EXPECT_NE(before, hash_tree(vfs, "/t"));
}

TEST(Hash, TreeHashIsPrefixRelative) {
  VirtualFileSystem vfs;
  vfs.write("/a/x", "same");
  vfs.write("/b/x", "same");
  EXPECT_EQ(hash_tree(vfs, "/a"), hash_tree(vfs, "/b"));
}

TEST(Hash, ToStringIs16HexDigits) {
  EXPECT_EQ(hash_to_string(0), "0000000000000000");
  EXPECT_EQ(hash_to_string(0xdeadbeefULL), "00000000deadbeef");
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeStaysInBounds) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(3, 17);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 17u);
  }
}

TEST(Rng, RangeCoversAllValuesEventually) {
  SplitMix64 rng(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.range(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

// -------------------------------------------------------------- diags -----

TEST(Diagnostics, CountsBySeverity) {
  DiagnosticEngine de;
  de.note("n.code", "a note");
  de.warning("w.code", "a warning");
  de.error("e.code", "an error");
  EXPECT_EQ(de.error_count(), 1u);
  EXPECT_EQ(de.warning_count(), 1u);
  EXPECT_TRUE(de.has_errors());
  EXPECT_TRUE(de.has_code("w.code"));
  EXPECT_EQ(de.count_code("e.code"), 1u);
  EXPECT_FALSE(de.has_code("missing"));
}

TEST(Diagnostics, RenderingIncludesLocationAndCode) {
  DiagnosticEngine de;
  de.error("asm.test", "boom", {"file.asm", 12, 3});
  EXPECT_EQ(de.all()[0].to_string(), "file.asm:12:3: error [asm.test]: boom");
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine de;
  de.error("e", "x");
  de.clear();
  EXPECT_FALSE(de.has_errors());
  EXPECT_TRUE(de.all().empty());
}

// ---------------------------------------------------------------- disk ----

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("advm_disk_test_" + std::to_string(::getpid()));
  }
  ~DiskTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(DiskTest, ExportImportRoundTripPreservesTree) {
  VirtualFileSystem vfs;
  vfs.write("/env/Abstraction_Layer/Globals.inc", "PAGE .EQU 8\n");
  vfs.write("/env/TEST_1/test.asm", "_main: HALT\n");
  vfs.write("/env/TESTPLAN.TXT", "plan");

  EXPECT_EQ(export_to_disk(vfs, "/env", dir_.string()), 3u);

  VirtualFileSystem back;
  EXPECT_EQ(import_from_disk(back, dir_.string(), "/env"), 3u);
  EXPECT_EQ(hash_tree(vfs, "/env"), hash_tree(back, "/env"));
  EXPECT_EQ(back.read("/env/TEST_1/test.asm"), "_main: HALT\n");
}

TEST_F(DiskTest, ImportMissingDirectoryThrows) {
  VirtualFileSystem vfs;
  EXPECT_THROW(
      import_from_disk(vfs, (dir_ / "nonexistent").string(), "/x"),
      std::runtime_error);
}

TEST_F(DiskTest, ExportOverwritesStaleFiles) {
  VirtualFileSystem vfs;
  vfs.write("/env/file.txt", "v1");
  export_to_disk(vfs, "/env", dir_.string());
  vfs.write("/env/file.txt", "v2-longer-content");
  export_to_disk(vfs, "/env", dir_.string());
  VirtualFileSystem back;
  import_from_disk(back, dir_.string(), "/env");
  EXPECT_EQ(back.read("/env/file.txt"), "v2-longer-content");
}

TEST_F(DiskTest, SymlinkImportsAtItsLinkPathInsideTheRoot) {
  // A link out of the tree must land under the import root at the path it
  // was found at, not at its target's canonical location.
  namespace fs = std::filesystem;
  fs::create_directories(dir_ / "SYS" / "ENV");
  fs::create_directories(dir_ / "outside");
  {
    std::ofstream(dir_ / "outside" / "real.inc") << "REAL .EQU 1\n";
  }
  fs::create_symlink("../../outside/real.inc",
                     dir_ / "SYS" / "ENV" / "link.inc");

  VirtualFileSystem vfs;
  EXPECT_EQ(import_from_disk(vfs, (dir_ / "SYS").string(), "/T"), 1u);
  EXPECT_EQ(vfs.read("/T/ENV/link.inc"), "REAL .EQU 1\n");
  EXPECT_FALSE(vfs.exists("/outside/real.inc"));
  EXPECT_EQ(vfs.list_tree("/T"),
            (std::vector<std::string>{"/T/ENV/link.inc"}));
}

TEST_F(DiskTest, GeneratedTreeImportsWithUnchangedContents) {
  // Seeded tree: nested directories, empty files, binary bytes (NUL,
  // 0xFF, CR/LF) and files larger than one stream buffer.
  VirtualFileSystem vfs;
  SplitMix64 rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string path = "/gen";
    const auto depth = rng.range(1, 4);
    for (std::uint64_t d = 0; d < depth; ++d) {
      path += "/d" + std::to_string(rng.range(0, 5));
    }
    path += "/f" + std::to_string(i) + ".bin";
    std::string content(rng.chance(1, 10) ? 0 : rng.range(1, 20'000), '\0');
    for (char& c : content) c = static_cast<char>(rng.range(0, 255));
    vfs.write(path, std::move(content));
  }
  const std::size_t files = vfs.list_tree("/gen").size();
  ASSERT_EQ(export_to_disk(vfs, "/gen", dir_.string()), files);

  VirtualFileSystem back;
  EXPECT_EQ(import_from_disk(back, dir_.string() + "/", "/gen"), files);
  EXPECT_EQ(back.list_tree("/gen"), vfs.list_tree("/gen"));
  EXPECT_EQ(hash_tree(back, "/gen"), hash_tree(vfs, "/gen"));
}

// ---------------------------------------------------------------- json ----

TEST(Json, BmpEscapesDecodeToUtf8) {
  const auto ascii = json::parse(R"("A")");
  ASSERT_TRUE(ascii.has_value());
  EXPECT_EQ(ascii->as_string(), "A");
  const auto two_byte = json::parse(R"("\u00E9")");
  ASSERT_TRUE(two_byte.has_value());
  EXPECT_EQ(two_byte->as_string(), "\xC3\xA9");  // é
  const auto three_byte = json::parse(R"("\u20ac")");
  ASSERT_TRUE(three_byte.has_value());
  EXPECT_EQ(three_byte->as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, SurrogatePairCombinesIntoTheAstralCodePoint) {
  // U+1F600 as its escaped surrogate pair must decode to the 4-byte
  // UTF-8 sequence, not two lone 3-byte halves (invalid UTF-8).
  const auto doc = json::parse(R"("\uD83D\uDE00")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xF0\x9F\x98\x80");
  // Lowercase hex and a pair inside surrounding text both work.
  const auto mixed = json::parse(R"("ok \ud83d\ude00!")");
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->as_string(), "ok \xF0\x9F\x98\x80!");
}

TEST(Json, SurrogatePairRoundTripsWithTheRawUtf8Form) {
  // The writer side never escapes non-ASCII (raw UTF-8 passes through),
  // so the escaped-pair spelling and the raw spelling of the same code
  // point must parse to identical bytes.
  const auto escaped = json::parse(R"("\uD83D\uDE00")");
  const auto raw = json::parse("\"\xF0\x9F\x98\x80\"");
  ASSERT_TRUE(escaped.has_value());
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(escaped->as_string(), raw->as_string());
}

TEST(Json, UnpairedSurrogateHalvesAreATypedParseError) {
  std::string error;
  EXPECT_FALSE(json::parse(R"("\uD83D")", &error).has_value());
  EXPECT_NE(error.find("unpaired high surrogate"), std::string::npos);
  EXPECT_FALSE(json::parse(R"("\uDE00")", &error).has_value());
  EXPECT_NE(error.find("unpaired low surrogate"), std::string::npos);
  // High half followed by a non-escape, a non-\u escape, or another
  // high half: all unpaired.
  EXPECT_FALSE(json::parse(R"("\uD83Dxyz")", &error).has_value());
  EXPECT_FALSE(json::parse(R"("\uD83D\n")", &error).has_value());
  EXPECT_FALSE(json::parse(R"("\uD83D\uD83D")", &error).has_value());
  // Truncated low half.
  EXPECT_FALSE(json::parse(R"("\uD83D\uDE")", &error).has_value());
}

TEST(Json, MillionOpenBracketsIsADepthErrorNotACrash) {
  // Hostile input from a socket frame: unbounded recursion used to
  // overflow the stack. Past the fixed nesting limit the parser returns
  // nullopt with a one-line diagnostic.
  std::string error;
  EXPECT_FALSE(json::parse(std::string(1'000'000, '['), &error).has_value());
  EXPECT_NE(error.find("nesting deeper than 256 levels"), std::string::npos)
      << error;
  EXPECT_EQ(error.find('\n'), std::string::npos);
  std::string objects;
  for (int i = 0; i < 300; ++i) objects += "{\"k\":";
  EXPECT_FALSE(json::parse(objects, &error).has_value());
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;

  // Exactly at the limit still parses, and siblings do not add depth.
  const std::string at_limit =
      std::string(256, '[') + std::string(256, ']');
  EXPECT_TRUE(json::parse(at_limit).has_value());
  EXPECT_FALSE(json::parse("[" + at_limit + "]").has_value());
  EXPECT_TRUE(json::parse("[" + at_limit.substr(1, 510) + "," +
                          at_limit.substr(1, 510) + "]")
                  .has_value());
}

}  // namespace
