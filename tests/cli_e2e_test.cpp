// End-to-end test of the `advm` CLI binary: drives the full
// init → run → check → port → run workflow through the disk/VFS boundary in
// a temp directory and diffs each command's stdout against checked-in
// goldens (tests/golden/). This is the workflow a verification team would
// run from a shell, exercised exactly as they would run it.
//
// ADVM_CLI_PATH and ADVM_GOLDEN_DIR are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "support/text.h"

namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CliE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = fs::temp_directory_path() /
               ("advm_e2e_" + std::to_string(::getpid()));
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    env_dir_ = (scratch_ / "system_env").string();
  }

  void TearDown() override { fs::remove_all(scratch_); }

  /// Runs `advm <args>`, capturing exit code, stdout and stderr.
  CommandResult run_cli(const std::string& args) {
    const fs::path out = scratch_ / "stdout.txt";
    const fs::path err = scratch_ / "stderr.txt";
    const std::string command = std::string("\"") + ADVM_CLI_PATH + "\" " +
                                args + " > \"" + out.string() + "\" 2> \"" +
                                err.string() + "\"";
    const int status = std::system(command.c_str());
    CommandResult result;
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.out = slurp(out);
    result.err = slurp(err);
    return result;
  }

  /// Command stdout with the scratch path scrubbed, so goldens are
  /// machine-independent.
  std::string normalized(const CommandResult& result) const {
    return advm::support::replace_all(result.out, env_dir_, "<ENV>");
  }

  std::string golden(const std::string& name) const {
    const fs::path path = fs::path(ADVM_GOLDEN_DIR) / name;
    EXPECT_TRUE(fs::exists(path)) << "missing golden " << path;
    return slurp(path);
  }

  fs::path scratch_;
  std::string env_dir_;
};

TEST_F(CliE2E, FullWorkflowMatchesGoldens) {
  // init: create a fresh system environment on disk for SC88-A.
  auto init = run_cli("init \"" + env_dir_ + "\" --derivative SC88-A"
                      " --tests 3");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  EXPECT_EQ(normalized(init), golden("init_sc88a.txt"));
  EXPECT_TRUE(fs::exists(fs::path(env_dir_) / "PAGE_MODULE" /
                         "Abstraction_Layer" / "Globals.inc"));

  // run: full regression on the derivative the env was built for.
  auto run = run_cli("run \"" + env_dir_ + "\" --derivative SC88-A");
  ASSERT_EQ(run.exit_code, 0) << run.err << run.out;
  EXPECT_EQ(normalized(run), golden("run_sc88a.txt"));

  // check: a freshly generated ADVM environment has no violations.
  auto check = run_cli("check \"" + env_dir_ + "\"");
  EXPECT_EQ(check.exit_code, 0) << check.out;
  EXPECT_EQ(normalized(check), golden("check_clean.txt"));

  // port: retarget the tree in place to SC88-C; only abstraction/global
  // layer files may be touched (test layer stays at 0 — the ADVM claim).
  auto port = run_cli("port \"" + env_dir_ + "\" --to SC88-C");
  ASSERT_EQ(port.exit_code, 0) << port.err;
  EXPECT_EQ(normalized(port), golden("port_to_sc88c.txt"));

  // run again, on the ported derivative: green again, byte-stable report.
  auto rerun = run_cli("run \"" + env_dir_ + "\" --derivative SC88-C");
  ASSERT_EQ(rerun.exit_code, 0) << rerun.err << rerun.out;
  EXPECT_EQ(normalized(rerun), golden("run_sc88c_ported.txt"));
}

TEST_F(CliE2E, ParallelRunIsByteIdenticalToSerial) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 4");
  ASSERT_EQ(init.exit_code, 0) << init.err;

  auto serial = run_cli("run \"" + env_dir_ + "\"");
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  for (const char* jobs : {"2", "8", "32"}) {
    auto parallel =
        run_cli("run \"" + env_dir_ + "\" --jobs " + std::string(jobs));
    EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
    EXPECT_EQ(parallel.out, serial.out) << "--jobs " << jobs;
  }
}

TEST_F(CliE2E, MatrixRollupIsGreenAndDigestStableAcrossPlatforms) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;

  auto matrix = run_cli("matrix \"" + env_dir_ +
                        "\" --derivatives SC88-A"
                        " --platforms golden-model,accelerator --jobs 4");
  EXPECT_EQ(matrix.exit_code, 0) << matrix.out << matrix.err;
  EXPECT_NE(matrix.out.find("matrix roll-up (1 derivatives x 2 platforms)"),
            std::string::npos)
      << matrix.out;

  // Both cells ran the byte-identical binaries, so the roll-up rows must
  // end in the same outcome digest (paper §1: one suite, many platforms).
  std::vector<std::string> digests;
  bool in_rollup = false;
  for (std::string_view line :
       advm::support::split_lines(matrix.out)) {
    if (line.find("matrix roll-up") != std::string_view::npos) {
      in_rollup = true;
      continue;
    }
    if (!in_rollup || line.find("SC88-A") == std::string_view::npos) continue;
    const auto pos = line.find_last_of(' ');
    ASSERT_NE(pos, std::string_view::npos);
    digests.emplace_back(line.substr(pos + 1));
  }
  ASSERT_EQ(digests.size(), 2u) << matrix.out;
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0].size(), 16u);  // 64-bit digest as hex

  // An unknown platform must fail loudly, not fall back silently.
  auto bad = run_cli("matrix \"" + env_dir_ + "\" --platforms warp-drive");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("unknown platform"), std::string::npos);
}

TEST_F(CliE2E, LintVerbAndGateMatchGoldens) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;

  // A freshly generated corpus must be lint-clean (the zero-false-positive
  // guarantee), and the --lint gate must let the regression through.
  auto clean = run_cli("lint \"" + env_dir_ + "\"");
  EXPECT_EQ(clean.exit_code, 0) << clean.out << clean.err;
  EXPECT_EQ(normalized(clean), golden("lint_clean.txt"));
  auto gated = run_cli("run \"" + env_dir_ + "\" --lint");
  EXPECT_EQ(gated.exit_code, 0) << gated.err;
  EXPECT_NE(gated.out.find("passed"), std::string::npos) << gated.out;

  // Seed a defective test cell: an undefined-register read plus a dead
  // store — both must surface, attributed to this cell, byte-stable.
  std::ofstream(fs::path(env_dir_) / "MEM_MODULE" / "TEST_MEMORY_000" /
                "test.asm")
      << ".INCLUDE Globals.inc\n"
         "_main:\n"
         " MOV d1, d3\n"
         " MOV d5, 7\n"
         " MOV d5, 8\n"
         " MOV d0, d5\n"
         " CALL Base_Report_Pass\n";
  auto dirty = run_cli("lint \"" + env_dir_ + "\"");
  EXPECT_EQ(dirty.exit_code, 1) << dirty.err;
  EXPECT_EQ(normalized(dirty), golden("lint_findings.txt"));

  // The machine-readable document is a stable contract.
  auto json = run_cli("lint \"" + env_dir_ + "\" --format json");
  EXPECT_EQ(json.exit_code, 1) << json.err;
  EXPECT_EQ(normalized(json), golden("lint_findings.json"));

  // The gate refuses to run a dirty tree.
  auto blocked = run_cli("run \"" + env_dir_ + "\" --lint");
  EXPECT_EQ(blocked.exit_code, 1) << blocked.err;
  EXPECT_NE(blocked.out.find("lint gate failed: refusing to run"),
            std::string::npos)
      << blocked.out;
}

TEST_F(CliE2E, RunOnWrongDerivativeFailsLoudly) {
  // An SC88-A environment regressed against SC88-D must not silently pass:
  // the paper's Fig 2 lesson is that unported environments break visibly.
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  auto run = run_cli("run \"" + env_dir_ + "\" --derivative SC88-D");
  EXPECT_NE(run.exit_code, 0);
}

/// Every regular file under `root`, keyed by its path relative to `root`.
std::map<std::string, std::string> read_tree(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    files[fs::relative(entry.path(), root).string()] = slurp(entry.path());
  }
  return files;
}

TEST_F(CliE2E, InitWritesTheSameTreeOnEveryBackend) {
  // --backend and --shards steer matrix execution only; init always
  // builds in-process, so the flags must not change a byte of its output.
  const std::string threaded = (scratch_ / "threaded").string();
  const std::string process = (scratch_ / "process").string();
  auto plain = run_cli("init \"" + threaded + "\" --tests 2 --format json");
  ASSERT_EQ(plain.exit_code, 0) << plain.err;
  auto sharded = run_cli("init \"" + process +
                         "\" --tests 2 --backend process --shards 3"
                         " --format json");
  ASSERT_EQ(sharded.exit_code, 0) << sharded.err;
  EXPECT_EQ(sharded.out, plain.out);

  const auto expected = read_tree(threaded);
  EXPECT_GT(expected.size(), 10u);
  EXPECT_EQ(read_tree(process), expected);
}

TEST_F(CliE2E, WorkerWithoutServeIsATypedError) {
  // The pooled --serve protocol is the only worker mode; any other
  // argument list is refused up front.
  for (const char* args : {"worker", "worker --jobs 2", "worker plan.json"}) {
    auto worker = run_cli(args);
    EXPECT_EQ(worker.exit_code, 2) << args;
    EXPECT_NE(worker.out.find("\"ok\":false"), std::string::npos)
        << args << ": " << worker.out;
    EXPECT_NE(worker.out.find("\"code\":\"advm.bad-worker-mode\""),
              std::string::npos)
        << args << ": " << worker.out;
  }
}

TEST_F(CliE2E, UsageAndBadArgumentsExitNonZero) {
  auto usage = run_cli("");
  EXPECT_EQ(usage.exit_code, 2);
  EXPECT_NE(usage.err.find("usage:"), std::string::npos);

  auto bad = run_cli("run \"" + env_dir_ + "\" --derivative SC99-Z");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("unknown derivative"), std::string::npos);

  auto bad_jobs = run_cli("run \"" + env_dir_ + "\" --jobs banana");
  EXPECT_EQ(bad_jobs.exit_code, 2);
  EXPECT_NE(bad_jobs.err.find("invalid --jobs"), std::string::npos);

  // Signed values must not slip through strtoul's wraparound into
  // maximum fan-out.
  auto negative_jobs = run_cli("run \"" + env_dir_ + "\" --jobs -1");
  EXPECT_EQ(negative_jobs.exit_code, 2);
  EXPECT_NE(negative_jobs.err.find("invalid --jobs"), std::string::npos);
}

}  // namespace
