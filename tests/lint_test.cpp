// Tests for the `advm lint` static analyzer: CFG reconstruction from
// linked images (src/advm/lint/cfg.h), the six dataflow analyses
// (src/advm/lint/analyses.h) on seeded-defect fixtures, the per-cell
// driver + report plumbing (src/advm/lint/lint.h), the Session verb, the
// stable JSON document — and the zero-false-positive guarantee over a
// freshly generated `advm init` corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "advm/lint/analyses.h"
#include "advm/lint/cfg.h"
#include "advm/environment.h"
#include "advm/lint/lint.h"
#include "advm/regression.h"
#include "advm/report.h"
#include "advm/session.h"
#include "asm/assembler.h"
#include "asm/linker.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace {

using namespace advm;
using namespace advm::core;

constexpr std::uint32_t kCodeBase = 0x1000;
constexpr std::uint32_t kStep = 12;  ///< isa::kInstrBytes

/// Assembles one in-memory source and links it at the test base.
std::optional<assembler::Image> build_image(const std::string& source) {
  support::VirtualFileSystem vfs;
  support::DiagnosticEngine diags;
  assembler::AssemblerOptions options;
  assembler::Assembler asm_(vfs, diags, options);
  auto result = asm_.assemble_source("/test.asm", source);
  if (!result) {
    ADD_FAILURE() << "assembly failed: " << diags.to_string();
    return std::nullopt;
  }
  std::vector<const assembler::ObjectFile*> objects{&result->object};
  assembler::LinkOptions link_options;
  link_options.code_base = kCodeBase;
  link_options.data_base = 0x8000;
  auto image = assembler::link(objects, link_options, diags);
  if (!image) {
    ADD_FAILURE() << "link failed: " << diags.to_string();
    return std::nullopt;
  }
  return image;
}

std::optional<lint::CodeModel> build_model(const std::string& source) {
  auto image = build_image(source);
  if (!image) return std::nullopt;
  return lint::build_code_model(*image);
}

/// Whole-image analysis run (no scope filter, no ROM windows).
std::vector<lint::Finding> analyze(const std::string& source,
                                   lint::AnalysisConfig config = {}) {
  auto model = build_model(source);
  if (!model) return {};
  return lint::run_analyses(*model, config);
}

std::size_t count_code(const std::vector<lint::Finding>& findings,
                       const char* code) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const lint::Finding& f) { return f.code == code; }));
}

// ------------------------------------------------------------------ CFG ----

TEST(LintCfg, DecodesSlotsOnTheGridAndFindsEntry) {
  auto model = build_model(
      "_main:\n"
      " MOV d0, 1\n"
      " HALT\n");
  ASSERT_TRUE(model);
  ASSERT_EQ(model->regions.size(), 1u);
  EXPECT_EQ(model->entry, kCodeBase);
  EXPECT_EQ(model->regions[0].base, kCodeBase);
  ASSERT_EQ(model->regions[0].slots.size(), 2u);
  EXPECT_TRUE(model->regions[0].slots[0].instr.has_value());
  EXPECT_TRUE(model->regions[0].slots[1].instr.has_value());

  // On-grid lookups resolve; off-grid and out-of-image return null.
  EXPECT_NE(model->slot_at(kCodeBase), nullptr);
  EXPECT_NE(model->slot_at(kCodeBase + kStep), nullptr);
  EXPECT_EQ(model->slot_at(kCodeBase + 4), nullptr);
  EXPECT_EQ(model->slot_at(0), nullptr);
  EXPECT_NE(model->region_of(kCodeBase + 4), nullptr);  // inside, off-grid
}

TEST(LintCfg, ReachabilityFollowsBranchesAndStopsAtHalt) {
  auto model = build_model(
      "_main:\n"
      " JMP over\n"
      " MOV d0, 1\n"  // skipped by the unconditional branch
      "over:\n"
      " HALT\n"
      " MOV d1, 2\n");  // after HALT: nothing falls through
  ASSERT_TRUE(model);
  EXPECT_TRUE(model->slot_at(kCodeBase)->reachable);
  EXPECT_FALSE(model->slot_at(kCodeBase + kStep)->reachable);
  EXPECT_TRUE(model->slot_at(kCodeBase + 2 * kStep)->reachable);
  EXPECT_FALSE(model->slot_at(kCodeBase + 3 * kStep)->reachable);
}

TEST(LintCfg, ConditionalBranchFallsThroughAndCallTargetsBecomeRoots) {
  auto model = build_model(
      "_main:\n"
      " CMP d0, 1\n"
      " JEQ done\n"
      " CALL helper\n"
      "done:\n"
      " HALT\n"
      "helper:\n"
      " RETURN\n");
  ASSERT_TRUE(model);
  // Both sides of the conditional are reachable.
  EXPECT_TRUE(model->slot_at(kCodeBase + 2 * kStep)->reachable);  // CALL
  EXPECT_TRUE(model->slot_at(kCodeBase + 3 * kStep)->reachable);  // done
  // helper's body is reachable purely through the CALL root.
  EXPECT_TRUE(model->slot_at(kCodeBase + 4 * kStep)->reachable);
  ASSERT_EQ(model->roots.size(), 2u);
  EXPECT_EQ(model->roots[0], model->entry);
  EXPECT_EQ(model->roots[1], kCodeBase + 4 * kStep);
}

TEST(LintCfg, AddressTakenCodeBecomesARoot) {
  // The indirect-call pattern the generated corpus uses (CallAddr) and
  // the IRQ-handler installation: the handler is only ever reached
  // through its address, never by a direct branch.
  auto model = build_model(
      "_main:\n"
      " LOAD d5, handler\n"
      " HALT\n"
      "handler:\n"
      " RETI\n");
  ASSERT_TRUE(model);
  EXPECT_TRUE(model->slot_at(kCodeBase + 2 * kStep)->reachable);
  EXPECT_EQ(model->roots.size(), 2u);
}

TEST(LintCfg, SymbolAttributionPicksNearestPrecedingSymbol) {
  auto model = build_model(
      "_main:\n"
      " MOV d0, 1\n"
      " HALT\n"
      "after:\n"
      " HALT\n");
  ASSERT_TRUE(model);
  const auto at_main = model->symbol_before(kCodeBase + kStep);
  ASSERT_TRUE(at_main);
  EXPECT_EQ(at_main->to_string(), "_main+0xc");
  const auto at_after = model->symbol_before(kCodeBase + 2 * kStep);
  ASSERT_TRUE(at_after);
  EXPECT_EQ(at_after->to_string(), "after");
  EXPECT_FALSE(model->symbol_before(kCodeBase - kStep).has_value());
}

TEST(LintCfg, FunctionAddressesStayInsideTheFunction) {
  auto model = build_model(
      "_main:\n"
      " CALL helper\n"
      " HALT\n"
      "helper:\n"
      " MOV d0, 1\n"
      " RETURN\n");
  ASSERT_TRUE(model);
  const auto main_fn = lint::function_addresses(*model, model->entry);
  // CALL falls through to HALT; the callee body is not part of _main.
  EXPECT_EQ(main_fn, (std::vector<std::uint32_t>{kCodeBase,
                                                 kCodeBase + kStep}));
  const auto helper_fn =
      lint::function_addresses(*model, kCodeBase + 2 * kStep);
  EXPECT_EQ(helper_fn.size(), 2u);
}

// ------------------------------------------------------------- analyses ----

TEST(LintAnalyses, UndefRegReadBeforeWriteInEntry) {
  const auto findings = analyze(
      "_main:\n"
      " MOV d1, d3\n"
      " HALT\n");
  ASSERT_EQ(count_code(findings, lint::kUndefReg), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const auto& f) {
        return f.code == lint::kUndefReg;
      });
  EXPECT_EQ(it->address, kCodeBase);
  EXPECT_EQ(it->symbol, "_main");
  EXPECT_NE(it->detail.find("d3"), std::string::npos);
}

TEST(LintAnalyses, UndefRegJoinIsMayUndefined) {
  // d2 is defined on one path only: still flagged at the join's read.
  const auto findings = analyze(
      "_main:\n"
      " MOV d0, 1\n"
      " CMP d0, 1\n"
      " JEQ skip\n"
      " MOV d2, 5\n"
      "skip:\n"
      " MOV d3, d2\n"
      " HALT\n");
  EXPECT_EQ(count_code(findings, lint::kUndefReg), 1u);
}

TEST(LintAnalyses, UndefRegSilencedByWriteAndByCall) {
  // Written-then-read is clean; a CALL clobber-defines everything, so
  // post-call reads are never flagged (the callee's effect is unknown).
  const auto findings = analyze(
      "_main:\n"
      " MOV d3, 7\n"
      " MOV d1, d3\n"
      " CALL helper\n"
      " MOV d4, d9\n"
      " HALT\n"
      "helper:\n"
      " RETURN\n");
  EXPECT_EQ(count_code(findings, lint::kUndefReg), 0u);
}

TEST(LintAnalyses, DeadStoreOverwrittenWithoutRead) {
  const auto findings = analyze(
      "_main:\n"
      " MOV d5, 7\n"
      " MOV d5, 8\n"
      " MOV d0, d5\n"
      " HALT\n");
  ASSERT_EQ(count_code(findings, lint::kDeadStore), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const auto& f) {
        return f.code == lint::kDeadStore;
      });
  EXPECT_EQ(it->address, kCodeBase);
  EXPECT_NE(it->detail.find("d5"), std::string::npos);
}

TEST(LintAnalyses, DeadStoreSpardByInterveningReadCallOrExit) {
  // Read between writes, a CALL (may read anything), or function exit
  // (caller may read anything) all keep the first write live.
  const auto findings = analyze(
      "_main:\n"
      " MOV d5, 7\n"
      " MOV d0, d5\n"
      " MOV d5, 8\n"
      " CALL helper\n"
      " MOV d6, 1\n"
      " HALT\n"
      "helper:\n"
      " MOV d7, 3\n"
      " RETURN\n");
  EXPECT_EQ(count_code(findings, lint::kDeadStore), 0u);
}

TEST(LintAnalyses, UnreachableRunReportedOnceWithCount) {
  const auto findings = analyze(
      "_main:\n"
      " JMP over\n"
      " MOV d0, 1\n"
      " MOV d0, 2\n"
      "over:\n"
      " HALT\n");
  ASSERT_EQ(count_code(findings, lint::kUnreachable), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const auto& f) {
        return f.code == lint::kUnreachable;
      });
  EXPECT_EQ(it->address, kCodeBase + kStep);
  EXPECT_NE(it->detail.find("2 instruction slot(s)"), std::string::npos);
}

TEST(LintAnalyses, UnreachableZeroPaddingIsNotFlagged) {
  // .SPACE / alignment zeros after the code's end are padding, not dead
  // code — trimmed off unreachable runs (and all-zero runs vanish).
  const auto findings = analyze(
      "_main:\n"
      " HALT\n"
      " .SPACE 24\n");
  EXPECT_EQ(count_code(findings, lint::kUnreachable), 0u);
}

TEST(LintAnalyses, IllReachableNonDecodingSlot) {
  const auto findings = analyze(
      "_main:\n"
      " MOV d0, 1\n"
      " .DB 0xEE, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n"
      "next:\n"
      " HALT\n");
  ASSERT_EQ(count_code(findings, lint::kIllReachable), 1u);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const auto& f) {
        return f.code == lint::kIllReachable;
      });
  EXPECT_EQ(it->address, kCodeBase + kStep);
  EXPECT_NE(it->detail.find("0xee"), std::string::npos);
}

TEST(LintAnalyses, IllReachableMisalignedBranchTarget) {
  const auto findings = analyze(
      "_main:\n"
      " JMP 0x1004\n"
      " HALT\n");
  ASSERT_EQ(count_code(findings, lint::kIllReachable), 1u);
  EXPECT_NE(findings[0].detail.find("0x00001004"), std::string::npos);
}

TEST(LintAnalyses, StoreToCodeIsSmcStoreToRomWindowIsRomWrite) {
  lint::AnalysisConfig config;
  config.rom_base = kCodeBase;
  config.rom_size = 0x2000;  // window [0x1000, 0x3000)
  const auto findings = analyze(
      "_main:\n"
      " MOV d0, 1\n"
      " STORE [0x1000], d0\n"    // inside the code image → SMC
      " STORE [0x2800], d0\n"    // ROM window, not code → rom-write
      " STORE [0x8000], d0\n"    // plain data address → clean
      " HALT\n",
      config);
  EXPECT_EQ(count_code(findings, lint::kSmc), 1u);
  EXPECT_EQ(count_code(findings, lint::kRomWrite), 1u);
}

TEST(LintAnalyses, StackImbalancePushWithoutPopAtReturn) {
  const auto findings = analyze(
      "_main:\n"
      " CALL helper\n"
      " HALT\n"
      "helper:\n"
      " PUSH d0\n"
      " RETURN\n");
  ASSERT_EQ(count_code(findings, lint::kStackImbalance), 1u);
  EXPECT_NE(findings[0].detail.find("RETURN"), std::string::npos);
}

TEST(LintAnalyses, StackImbalancePopBelowEntryDepth) {
  const auto findings = analyze(
      "_main:\n"
      " CALL helper\n"
      " HALT\n"
      "helper:\n"
      " POP d0\n"
      " RETURN\n");
  // The POP below entry depth is one finding; the clamped depth keeps
  // the RETURN itself clean (no cascade).
  ASSERT_EQ(count_code(findings, lint::kStackImbalance), 1u);
  EXPECT_NE(findings[0].detail.find("POP"), std::string::npos);
}

TEST(LintAnalyses, StackImbalanceBalancedPairAndSpManagerAreClean) {
  // A balanced PUSH/POP pair is clean; a function that writes the stack
  // pointer directly manages its own frame and is skipped entirely.
  const auto findings = analyze(
      "_main:\n"
      " CALL balanced\n"
      " CALL manager\n"
      " HALT\n"
      "balanced:\n"
      " PUSH d0\n"
      " POP d1\n"
      " RETURN\n"
      "manager:\n"
      " MOV a10, 0x9000\n"
      " PUSH d0\n"
      " RETURN\n");
  EXPECT_EQ(count_code(findings, lint::kStackImbalance), 0u);
}

TEST(LintAnalyses, FindingsAreSortedAndDeduplicated) {
  const auto findings = analyze(
      "_main:\n"
      " MOV d1, d3\n"
      " MOV d5, 7\n"
      " MOV d5, 8\n"
      " MOV d0, d5\n"
      " HALT\n");
  ASSERT_GE(findings.size(), 2u);
  for (std::size_t i = 1; i < findings.size(); ++i) {
    EXPECT_LE(findings[i - 1].address, findings[i].address);
    EXPECT_FALSE(findings[i - 1].address == findings[i].address &&
                 findings[i - 1].code == findings[i].code &&
                 findings[i - 1].detail == findings[i].detail)
        << "duplicate finding " << findings[i].code;
  }
}

TEST(LintAnalyses, ScopeFilterDropsFindingsOutsideTheScopedObject) {
  auto model = build_model(
      "_main:\n"
      " MOV d1, d3\n"
      " HALT\n");
  ASSERT_TRUE(model);
  lint::AnalysisConfig config;
  config.scope_source = "/some/other/object.asm";
  EXPECT_TRUE(lint::run_analyses(*model, config).empty());
  config.scope_source = "/test.asm";
  EXPECT_EQ(lint::run_analyses(*model, config).size(), 1u);
}

// ------------------------------------------------- driver + session verb ----

/// A Session with the canonical generated tree at /SYS.
void build_canonical_tree(Session& session, std::size_t tests = 2) {
  BuildRequest build;
  build.tests_per_module = tests;
  const BuildResult built = session.run(build);
  ASSERT_TRUE(built.status.ok()) << built.status.message;
}

TEST(LintVerb, GeneratedCorpusHasZeroFindings) {
  // The zero-false-positive guarantee: every analysis must stay silent
  // on the entire shipped `advm init` corpus (all five modules).
  Session session;
  build_canonical_tree(session, 3);
  LintRequest request;
  const LintResult result = session.run(request);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_EQ(result.report.cells, 15u);
  EXPECT_TRUE(result.report.clean()) << format_lint_report(result.report);
}

TEST(LintVerb, SeededDefectIsAttributedToItsCell) {
  Session session;
  build_canonical_tree(session);
  session.vfs().write("/SYS/PAGE_MODULE/TEST_REGISTER_000/test.asm",
                      ".INCLUDE Globals.inc\n"
                      "_main:\n"
                      " MOV d1, d3\n"
                      " CALL Base_Report_Pass\n");
  const LintResult result = session.run(LintRequest{});
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.report.findings.size(), 1u);
  const LintFinding& f = result.report.findings[0];
  EXPECT_EQ(f.code, lint::kUndefReg);
  EXPECT_EQ(f.environment, "PAGE_MODULE");
  EXPECT_EQ(f.test_id, "TEST_REGISTER_000");
  EXPECT_EQ(f.file, "PAGE_MODULE/TEST_REGISTER_000/test.asm");
  EXPECT_EQ(f.symbol, "_main");
  EXPECT_EQ(result.report.count(lint::kUndefReg), 1u);
  EXPECT_EQ(result.report.by_code().at(lint::kUndefReg), 1u);
}

TEST(LintVerb, LibraryFindingsAreScopedOutOfEveryCell) {
  // A defect seeded into a *shared* library must not be attributed to
  // the test cells that link it (it would repeat once per cell).
  Session session;
  build_canonical_tree(session);
  const std::string path =
      "/SYS/PAGE_MODULE/Abstraction_Layer/base_functions.asm";
  const auto source = session.vfs().read(path);
  ASSERT_TRUE(source);
  session.vfs().write(path, *source +
                                "\nLint_Dead_Code:\n MOV d1, d3\n RETURN\n");
  const LintResult result = session.run(LintRequest{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.report.clean()) << format_lint_report(result.report);
}

TEST(LintVerb, UnbuildableCellIsItsOwnFinding) {
  Session session;
  build_canonical_tree(session);
  session.vfs().write("/SYS/PAGE_MODULE/TEST_REGISTER_000/test.asm",
                      "_main:\n MOV d1,\n");
  const LintResult result = session.run(LintRequest{});
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.report.findings.size(), 1u);
  EXPECT_EQ(result.report.findings[0].code, kLintUnbuildable);
  EXPECT_EQ(result.report.findings[0].address, 0u);
}

TEST(LintVerb, ParallelLintIsIdenticalToSerial) {
  SessionConfig parallel_config;
  parallel_config.jobs = 8;
  Session serial;
  Session parallel(parallel_config);
  build_canonical_tree(serial);
  build_canonical_tree(parallel);
  const std::string defect =
      ".INCLUDE Globals.inc\n_main:\n MOV d1, d3\n MOV d5, 7\n MOV d5, 8\n"
      " MOV d0, d5\n CALL Base_Report_Pass\n";
  serial.vfs().write("/SYS/MEM_MODULE/TEST_MEMORY_000/test.asm", defect);
  parallel.vfs().write("/SYS/MEM_MODULE/TEST_MEMORY_000/test.asm", defect);
  const LintResult a = serial.run(LintRequest{});
  const LintResult b = parallel.run(LintRequest{});
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(format_lint_report(a.report), format_lint_report(b.report));
}

TEST(LintVerb, ValidationFailuresComeBackTyped) {
  Session session;
  LintRequest unknown;
  unknown.derivative = "NO-SUCH";
  EXPECT_EQ(session.run(unknown).status.code, "advm.unknown-derivative");
  LintRequest missing;
  missing.root = "/nowhere";
  EXPECT_EQ(session.run(missing).status.code, "advm.bad-root");
}

// ------------------------------------------------- scoped passes ----------

/// One line per finding: every field the report renders.
std::vector<std::string> render(const std::vector<lint::Finding>& findings) {
  std::vector<std::string> out;
  for (const lint::Finding& f : findings) {
    out.push_back(f.code + "@" + std::to_string(f.address) + " " + f.symbol +
                  " " + f.detail);
  }
  return out;
}

/// The differential the scoped passes must satisfy: analysing only what
/// the scope reaches equals analysing the whole image and then keeping
/// the findings anchored in `scope`'s own code. Returns how many
/// whole-image findings the filter dropped.
std::size_t expect_scoped_equals_filtered(const lint::CodeModel& model,
                                          lint::AnalysisConfig config,
                                          const std::string& scope) {
  config.scope_source.clear();
  std::vector<lint::Finding> filtered = lint::run_analyses(model, config);
  const std::size_t whole = filtered.size();
  std::erase_if(filtered, [&](const lint::Finding& f) {
    const lint::CodeRegion* region = model.region_of(f.address);
    return region == nullptr || region->source != scope;
  });
  config.scope_source = scope;
  EXPECT_EQ(render(lint::run_analyses(model, config)), render(filtered))
      << "scope " << scope;
  return whole - filtered.size();
}

/// Assembles (path, source) objects and links them at the test base, in
/// order — the multi-object twin of build_image.
std::optional<lint::CodeModel> build_linked_model(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  support::VirtualFileSystem vfs;
  support::DiagnosticEngine diags;
  std::vector<assembler::ObjectFile> objects;
  for (const auto& [path, source] : sources) {
    assembler::Assembler asm_(vfs, diags, assembler::AssemblerOptions{});
    auto result = asm_.assemble_source(path, source);
    if (!result) {
      ADD_FAILURE() << "assembly failed: " << diags.to_string();
      return std::nullopt;
    }
    objects.push_back(std::move(result->object));
  }
  std::vector<const assembler::ObjectFile*> pointers;
  for (const auto& object : objects) pointers.push_back(&object);
  assembler::LinkOptions link_options;
  link_options.code_base = kCodeBase;
  link_options.data_base = 0x8000;
  auto image = assembler::link(pointers, link_options, diags);
  if (!image) {
    ADD_FAILURE() << "link failed: " << diags.to_string();
    return std::nullopt;
  }
  return lint::build_code_model(*image);
}

TEST(LintScopedPasses, SeededTestAndLibraryDefectsMatchTheFilteredWholeImage) {
  // Defects of every pass on both sides of the scope line, plus a library
  // function that branches into a test label: the test's RETURN is only
  // analysed through the library root, so that root must not be skipped.
  auto model = build_linked_model(
      {{"/test.asm",
        "_main:\n"
        " MOV d1, d3\n"          // undef-reg (test)
        " MOV d5, 7\n"           // dead-store (test)
        " MOV d5, 8\n"
        " MOV d0, d5\n"
        " CALL lib_jumper\n"
        " CALL lib_bad\n"
        " STORE [0x2800], d0\n"  // rom-write (test)
        " HALT\n"
        " MOV d2, 1\n"           // unreachable (test)
        "test_tail:\n"
        " PUSH d0\n"             // stack-imbalance, via the library jump
        " RETURN\n"},
       {"/lib.asm",
        "lib_jumper:\n"
        " MOV d6, 1\n"           // dead-store (library)
        " MOV d6, 2\n"
        " MOV d0, d6\n"
        " JMP test_tail\n"       // library → test label
        "lib_bad:\n"
        " STORE [0x1000], d0\n"  // smc (library)
        " POP d0\n"              // stack-imbalance (library)
        " .DB 0xEE, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n"  // ill-reachable
        "lib_dead:\n"
        " MOV d1, 1\n"           // unreachable (library)
        " RETURN\n"}});
  ASSERT_TRUE(model);
  lint::AnalysisConfig config;
  config.rom_base = 0x2000;
  config.rom_size = 0x1000;
  EXPECT_GT(expect_scoped_equals_filtered(*model, config, "/test.asm"), 0u);
  EXPECT_GT(expect_scoped_equals_filtered(*model, config, "/lib.asm"), 0u);
  expect_scoped_equals_filtered(*model, config, "/no/such/object.asm");

  config.scope_source = "/test.asm";
  const auto scoped = lint::run_analyses(*model, config);
  for (const char* code : {lint::kUndefReg, lint::kDeadStore,
                           lint::kUnreachable, lint::kRomWrite,
                           lint::kStackImbalance}) {
    EXPECT_EQ(count_code(scoped, code), 1u) << code;
  }
  config.scope_source = "/lib.asm";
  const auto library = lint::run_analyses(*model, config);
  for (const char* code : {lint::kDeadStore, lint::kSmc,
                           lint::kStackImbalance, lint::kIllReachable,
                           lint::kUnreachable}) {
    EXPECT_GE(count_code(library, code), 1u) << code;
  }
}

/// Runs the differential over every cell of the tree at /SYS, linked for
/// `spec`; returns the whole-image findings the scope filter dropped.
std::size_t differential_over_tree(Session& session,
                                   const soc::DerivativeSpec& spec) {
  std::size_t dropped = 0;
  std::size_t cells = 0;
  const std::string global_dir = "/SYS/" + std::string(kGlobalLibrariesDir);
  for (const std::string& env_dir :
       discover_environments(session.vfs(), "/SYS")) {
    const PreparedEnvironment env = prepare_environment(
        session.vfs(), session.cache(), env_dir, global_dir);
    for (const std::string& test : discover_tests(session.vfs(), env_dir)) {
      const std::string test_path =
          env_dir + "/" + test + "/" + kTestSourceFile;
      const LinkedCell cell =
          link_cell(session.vfs(), session.cache(), env, test_path, spec);
      if (!cell.image) {
        ADD_FAILURE() << test_path << ": " << cell.detail;
        continue;
      }
      lint::AnalysisConfig config;
      config.rom_base = spec.rom_base;
      config.rom_size = spec.rom_size;
      config.es_rom_base = spec.es_rom_base;
      config.es_rom_size = spec.es_rom_size;
      dropped += expect_scoped_equals_filtered(
          lint::build_code_model(*cell.image), config, test_path);
      ++cells;
    }
  }
  EXPECT_EQ(cells, 10u);
  return dropped;
}

TEST(LintScopedPasses, GeneratedTreesMatchTheFilteredWholeImage) {
  // Every cell of fresh SC88-A..D trees, then an SC88-A tree ported
  // through B, C and D in place. The whole-image runs report the library
  // code each test leaves unreached, so the filter is never vacuous.
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    Session session;
    BuildRequest build;
    build.derivative = spec->name;
    build.tests_per_module = 2;
    ASSERT_TRUE(session.run(build).status.ok()) << spec->name;
    EXPECT_GT(differential_over_tree(session, *spec), 0u) << spec->name;
  }
  Session ported;
  build_canonical_tree(ported);
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    if (spec->name == "SC88-A") continue;
    PortRequest port;
    port.to = spec->name;
    ASSERT_TRUE(ported.run(port).status.ok()) << spec->name;
    EXPECT_GT(differential_over_tree(ported, *spec), 0u) << spec->name;
  }
}

TEST(LintScopedPasses, LintFetchesEachSharedLibraryOncePerEnvironment) {
  // N test objects plus each environment's shared sources once — not once
  // per cell — for any pool size, cold or warm.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}}) {
    SessionConfig config;
    config.jobs = jobs;
    Session session(config);
    build_canonical_tree(session);
    const std::string global_dir =
        "/SYS/" + std::string(kGlobalLibrariesDir);
    std::uint64_t expected = 0;
    for (const std::string& env_dir :
         discover_environments(session.vfs(), "/SYS")) {
      expected += discover_tests(session.vfs(), env_dir).size() +
                  cell_recipe(session.vfs(), env_dir, global_dir)
                      .shared_sources.size();
    }
    for (int lap = 0; lap < 2; ++lap) {
      const ObjectCacheStats before = session.cache().stats();
      const LintResult result = session.run(LintRequest{});
      ASSERT_TRUE(result.status.ok());
      const ObjectCacheStats after = session.cache().stats();
      EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
                expected)
          << "jobs " << jobs << " lap " << lap;
    }
  }
}

// -------------------------------------------------------- JSON contract ----

TEST(LintReportJson, DocumentShapeIsStable) {
  Session session;
  build_canonical_tree(session);
  session.vfs().write("/SYS/PAGE_MODULE/TEST_REGISTER_000/test.asm",
                      ".INCLUDE Globals.inc\n"
                      "_main:\n"
                      " MOV d1, d3\n"
                      " CALL Base_Report_Pass\n");
  const LintResult result = session.run(LintRequest{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(
      to_json(result),
      "{\"ok\":true,\"verb\":\"lint\",\"clean\":false,\"count\":1,"
      "\"cells\":10,\"findings\":[{\"code\":\"advm.lint-undef-reg\","
      "\"environment\":\"PAGE_MODULE\",\"test\":\"TEST_REGISTER_000\","
      "\"file\":\"PAGE_MODULE/TEST_REGISTER_000/test.asm\","
      "\"address\":4096,\"symbol\":\"_main\",\"detail\":\"register d3 may"
      " be read before it is written\"}],"
      "\"by_code\":{\"advm.lint-undef-reg\":1}}");
}

TEST(LintReportJson, ErrorDocumentSharesTheVerbContract) {
  Session session;
  LintRequest missing;
  missing.root = "/nowhere";
  const LintResult result = session.run(missing);
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"verb\":\"lint\""), std::string::npos);
  EXPECT_NE(json.find("advm.bad-root"), std::string::npos);
}

}  // namespace
