// End-to-end suite for `advm serve` — the resident verification daemon —
// and its attach protocol. A real daemon process is spawned per test
// (this very repo's CLI binary, like the exec suite's workers), thin
// clients attach over the unix socket, and the assertions pin the
// contracts ISSUE 8 names: byte-identical report documents between
// attached and local runs, warm second laps, concurrent clients, a
// healthy daemon after a client vanishes mid-request, idle-timeout and
// --stop shutdown that flush the cost model and unlink the socket, the
// stale-socket probe, and the live stats document.
//
// ADVM_CLI_PATH is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advm/exec/workerpool.h"
#include "advm/serve/client.h"
#include "advm/serve/endpoint.h"
#include "advm/serve/frame.h"
#include "advm/serve/service.h"
#include "support/json.h"

namespace {

namespace fs = std::filesystem;
using namespace advm;
using namespace advm::core;

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

class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = fs::temp_directory_path() /
               ("advm_serve_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    env_dir_ = (scratch_ / "system_env").string();
    socket_path_ = (scratch_ / "daemon.sock").string();
  }

  void TearDown() override {
    stop_daemon();
    fs::remove_all(scratch_);
  }

  /// Runs `advm <args>` to completion, capturing exit code and streams.
  /// Capture files are unique per call — tests run clients concurrently,
  /// and a shared stdout.txt would let one client truncate another's
  /// output mid-slurp.
  CommandResult run_cli(const std::string& args) {
    const int call = next_call_.fetch_add(1);
    const fs::path out = scratch_ / ("stdout." + std::to_string(call));
    const fs::path err = scratch_ / ("stderr." + std::to_string(call));
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

  void make_tree() {
    const auto init =
        run_cli("init \"" + env_dir_ + "\" --derivative SC88-A --tests 2");
    ASSERT_EQ(init.exit_code, 0) << init.err;
  }

  /// Spawns `advm serve --socket <path> <extra>` in the background and
  /// waits until the socket answers a connect.
  void spawn_daemon(const std::string& extra = "") {
    const std::string command = std::string("exec \"") + ADVM_CLI_PATH +
                                "\" serve --socket \"" + socket_path_ +
                                "\" " + extra + " 2> \"" +
                                (scratch_ / "daemon.log").string() + "\"";
    daemon_pid_ = ::fork();
    ASSERT_GE(daemon_pid_, 0);
    if (daemon_pid_ == 0) {
      ::execl("/bin/sh", "sh", "-c", command.c_str(),
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    wait_for_daemon();
  }

  void wait_for_daemon() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      int fd = -1;
      if (serve::connect_endpoint(socket_path_, 200, &fd).ok()) {
        ::close(fd);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "daemon never came up on " << socket_path_ << ": "
           << slurp(scratch_ / "daemon.log");
  }

  /// Stops the daemon via --stop and insists on a cooperative exit —
  /// kill_and_reap must never need its SIGKILL escalation here.
  void stop_daemon(bool expect_clean = true) {
    if (daemon_pid_ <= 0) return;
    (void)run_cli("serve --socket \"" + socket_path_ + "\" --stop");
    const exec::ReapOutcome outcome =
        exec::kill_and_reap(daemon_pid_, 10'000);
    daemon_pid_ = -1;
    if (expect_clean) {
      EXPECT_TRUE(outcome.reaped);
      EXPECT_FALSE(outcome.escalated)
          << "daemon had to be SIGKILLed: " << slurp(scratch_ / "daemon.log");
    }
  }

  /// True once the daemon process has exited on its own (idle timeout).
  bool daemon_exited(std::size_t wait_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(wait_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t reaped = ::waitpid(daemon_pid_, nullptr, WNOHANG);
      if (reaped == daemon_pid_ || (reaped < 0 && errno == ECHILD)) {
        daemon_pid_ = -1;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  std::string attach_flag() const {
    return " --attach \"" + socket_path_ + "\"";
  }

  fs::path scratch_;
  std::string env_dir_;
  std::string socket_path_;
  pid_t daemon_pid_ = -1;
  std::atomic<int> next_call_{0};
};

// ------------------------------------------------------- protocol units --

TEST(ServeFrame, HeaderAndPayloadSurviveEncodeDecode) {
  serve::Frame frame;
  frame.id = 42;
  frame.verb = "matrix";
  frame.exit = 1;
  frame.text = "line one\nline \"two\"\n";
  frame.payload = "{\"ok\":true}";
  const std::string wire = serve::encode_frame(frame);
  // Two-line protocol: exactly one newline inside the header, payload raw.
  const std::size_t newline = wire.find('\n');
  ASSERT_NE(newline, std::string::npos);
  std::string decode_error;
  const auto decoded =
      serve::decode_frame_header(wire.substr(0, newline), &decode_error);
  ASSERT_TRUE(decoded) << decode_error;
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->verb, "matrix");
  EXPECT_EQ(decoded->exit, 1);
  EXPECT_EQ(decoded->text, frame.text);
  EXPECT_EQ(wire.substr(newline + 1), frame.payload + "\n");
}

TEST(ServeFrame, MalformedHeaderIsRejectedWithDiagnostic) {
  std::string error;
  EXPECT_FALSE(serve::decode_frame_header("not json", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(serve::decode_frame_header("{\"id\":1}", &error));
  EXPECT_FALSE(serve::decode_frame_header("{\"verb\":\"run\"}", &error));
}

TEST(ServeService, VerbRequestRoundTripsThroughJson) {
  serve::VerbRequest request;
  request.verb = "matrix";
  request.dir = "/some/dir with space";
  request.matrix.derivatives = {"SC88-A", "SC88-D"};
  request.matrix.platforms = {"golden-model", "hdl-rtl"};
  request.matrix.max_instructions = 123456;
  std::string error;
  const auto parsed = serve::parse_verb_request(serve::to_json(request),
                                                &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->verb, "matrix");
  EXPECT_EQ(parsed->dir, request.dir);
  EXPECT_EQ(parsed->matrix.derivatives, request.matrix.derivatives);
  EXPECT_EQ(parsed->matrix.platforms, request.matrix.platforms);
  EXPECT_EQ(parsed->matrix.max_instructions, 123456u);

  EXPECT_FALSE(serve::parse_verb_request("{\"verb\":\"nope\",\"dir\":\"/x\"}",
                                         &error));
  EXPECT_FALSE(serve::parse_verb_request("{\"verb\":\"run\"}", &error));
}

TEST(ServeService, LintVerbAndGateRoundTripThroughJson) {
  serve::VerbRequest request;
  request.verb = "lint";
  request.dir = "/some/dir";
  request.lint.derivative = "SC88-C";
  std::string error;
  auto parsed = serve::parse_verb_request(serve::to_json(request), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->verb, "lint");
  EXPECT_EQ(parsed->lint.derivative, "SC88-C");
  EXPECT_FALSE(parsed->lint_gate);

  // The --lint pre-run gate marshals on run and matrix…
  for (const char* verb : {"run", "matrix"}) {
    serve::VerbRequest gated;
    gated.verb = verb;
    gated.dir = "/some/dir";
    gated.lint_gate = true;
    parsed = serve::parse_verb_request(serve::to_json(gated), &error);
    ASSERT_TRUE(parsed) << error;
    EXPECT_TRUE(parsed->lint_gate) << verb;
  }

  // …and a gate-free request serializes without the key at all, so the
  // request documents of pre-gate clients are byte-identical.
  serve::VerbRequest plain;
  plain.verb = "run";
  plain.dir = "/some/dir";
  EXPECT_EQ(serve::to_json(plain).find("\"lint\""), std::string::npos);
}

TEST(ServeService, OwnershipRuleClassifiesVerbs) {
  for (const char* verb : {"run", "matrix", "check", "lint"}) {
    EXPECT_FALSE(serve::verb_mutates(verb)) << verb;
  }
  for (const char* verb : {"init", "port", "random", "release"}) {
    EXPECT_TRUE(serve::verb_mutates(verb)) << verb;
  }
}

// ------------------------------------------------------------ e2e: parity --

TEST_F(ServeE2E, AttachedRunIsByteIdenticalToLocalRun) {
  make_tree();
  spawn_daemon();
  const auto attached =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(attached.exit_code, 0) << attached.err;
  const auto local = run_cli("run \"" + env_dir_ + "\" --format json");
  ASSERT_EQ(local.exit_code, 0) << local.err;
  EXPECT_EQ(attached.out, local.out);
}

TEST_F(ServeE2E, AttachedLintIsByteIdenticalToLocalLint) {
  make_tree();
  spawn_daemon();
  for (const char* format : {"", " --format json"}) {
    const auto attached =
        run_cli("lint \"" + env_dir_ + "\"" + format + attach_flag());
    ASSERT_EQ(attached.exit_code, 0) << attached.err;
    const auto local = run_cli("lint \"" + env_dir_ + "\"" + format);
    ASSERT_EQ(local.exit_code, 0) << local.err;
    EXPECT_EQ(attached.out, local.out);
  }
}

TEST_F(ServeE2E, AttachedLintGateRefusesDirtyTree) {
  make_tree();
  spawn_daemon();
  // Seed an undefined-register read into one cell on disk; the attached
  // gated run must refuse exactly like a local one, byte for byte.
  std::ofstream(fs::path(env_dir_) / "MEM_MODULE" / "TEST_MEMORY_000" /
                "test.asm")
      << ".INCLUDE Globals.inc\n"
         "_main:\n"
         " MOV d1, d3\n"
         " CALL Base_Report_Pass\n";
  const auto attached =
      run_cli("run \"" + env_dir_ + "\" --lint" + attach_flag());
  EXPECT_EQ(attached.exit_code, 1) << attached.err;
  EXPECT_NE(attached.out.find("lint gate failed: refusing to run"),
            std::string::npos)
      << attached.out;
  const auto local = run_cli("run \"" + env_dir_ + "\" --lint");
  EXPECT_EQ(local.exit_code, 1) << local.err;
  EXPECT_EQ(attached.out, local.out);
}

TEST_F(ServeE2E, FreshDaemonMatrixIsByteIdenticalToLocalMatrix) {
  make_tree();
  spawn_daemon();
  const std::string axes =
      " --derivatives SC88-A,SC88-B --platforms golden-model";
  const auto attached = run_cli("matrix \"" + env_dir_ + "\"" + axes +
                                " --format json" + attach_flag());
  const auto local =
      run_cli("matrix \"" + env_dir_ + "\"" + axes + " --format json");
  // Exit codes propagate through the socket too (SC88-B cells fail).
  EXPECT_EQ(attached.exit_code, local.exit_code);
  EXPECT_EQ(attached.out, local.out);
}

TEST_F(ServeE2E, AttachedErrorsArriveTypedWithExitTwo) {
  make_tree();
  spawn_daemon();
  const auto bad = run_cli("run \"" + env_dir_ +
                           "\" --derivative NO-SUCH --format json" +
                           attach_flag());
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.out.find("advm.unknown-derivative"), std::string::npos)
      << bad.out;
  const auto local = run_cli("run \"" + env_dir_ +
                             "\" --derivative NO-SUCH --format json");
  EXPECT_EQ(bad.out, local.out);
}

TEST_F(ServeE2E, SecondAttachedLapRunsWarm) {
  make_tree();
  const std::string cache_dir = (scratch_ / "cache").string();
  spawn_daemon("--backend process --shards 2 --jobs 4 --cache-dir \"" +
               cache_dir + "\"");
  const std::string command = "matrix \"" + env_dir_ +
                              "\" --derivatives SC88-A,SC88-D"
                              " --platforms golden-model,hdl-rtl"
                              " --format json" +
                              attach_flag();
  // SC88-D cells fail on an SC88-A tree (exit 1) — the warm-lap counters
  // are what this test pins, and failing cells exercise them just as
  // well; the exit code only has to agree between laps.
  const auto lap1 = run_cli(command);
  ASSERT_EQ(lap1.exit_code, 1) << lap1.err << lap1.out;
  const auto lap2 = run_cli(command);
  ASSERT_EQ(lap2.exit_code, 1) << lap2.err;

  const auto doc1 = support::json::parse(lap1.out);
  const auto doc2 = support::json::parse(lap2.out);
  ASSERT_TRUE(doc1 && doc2);
  const auto persistent_hits = [](const support::json::Value& doc) {
    std::uint64_t total = 0;
    for (const auto& cell : doc.find("cells")->items) {
      total += *cell.find("cache")->find("persistent_hits")->as_uint64();
    }
    return total;
  };
  // Lap 2 rides the warm persistent store and reuses pooled workers.
  EXPECT_GT(persistent_hits(*doc2), 0u);
  EXPECT_GT(*doc2->find("worker_reuse")->as_uint64(), 0u);
  // The resident cost model carries lap 1's measurements to lap 2
  // without a round trip through disk.
  EXPECT_EQ(*doc1->find("cost_model")->find("source")->as_string(),
            "estimate");
  EXPECT_EQ(*doc2->find("cost_model")->find("source")->as_string(),
            "measured");
  // The roll-up — the backend-invariant surface — is byte-stable across
  // laps even though cache counters legitimately warm up.
  const auto rollup = [](const std::string& out) {
    const std::size_t at = out.find("\"rollup\":");
    EXPECT_NE(at, std::string::npos);
    return out.substr(at);
  };
  EXPECT_EQ(rollup(lap1.out), rollup(lap2.out));
}

// -------------------------------------------------------- e2e: lifecycle --

TEST_F(ServeE2E, TwoConcurrentClientsBothGetTheirDocuments) {
  make_tree();
  spawn_daemon();
  CommandResult first;
  CommandResult second;
  std::thread one([&] {
    first = run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  });
  std::thread two([&] {
    second = run_cli("check \"" + env_dir_ + "\" --format json" +
                     attach_flag());
  });
  one.join();
  two.join();
  ASSERT_EQ(first.exit_code, 0) << first.err;
  ASSERT_EQ(second.exit_code, 0) << second.err;
  EXPECT_NE(first.out.find("\"verb\":\"run\""), std::string::npos);
  EXPECT_NE(second.out.find("\"verb\":\"check\""), std::string::npos);
}

TEST_F(ServeE2E, ClientVanishingMidRequestLeavesDaemonHealthy) {
  make_tree();
  spawn_daemon();
  // Hand-roll a client that sends a full matrix request and slams the
  // connection shut without reading the response.
  {
    int fd = -1;
    ASSERT_TRUE(serve::connect_endpoint(socket_path_, 5'000, &fd).ok());
    serve::VerbRequest request;
    request.verb = "matrix";
    request.dir = env_dir_;
    request.matrix.derivatives = {"SC88-A", "SC88-B"};
    request.matrix.platforms = {"golden-model"};
    serve::Frame frame;
    frame.id = 7;
    frame.verb = "matrix";
    frame.payload = serve::to_json(request);
    ASSERT_TRUE(exec::write_all_fd(fd, serve::encode_frame(frame)));
    ::close(fd);
  }
  // The daemon finishes the orphaned work, counts the lost client, and
  // keeps serving: a follow-up attached run must succeed.
  const auto after =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(after.exit_code, 0) << after.err;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t lost = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats =
        run_cli("serve --socket \"" + socket_path_ + "\" --stats"
                " --format json");
    ASSERT_EQ(stats.exit_code, 0) << stats.err;
    const auto doc = support::json::parse(stats.out);
    ASSERT_TRUE(doc);
    lost = *doc->find("clients_lost")->as_uint64();
    if (lost > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(lost, 1u);
}

TEST_F(ServeE2E, DeeplyNestedHeaderGetsTypedErrorAndDaemonKeepsServing) {
  make_tree();
  spawn_daemon();
  // One header line of a million '[' used to overflow the JSON parser's
  // stack and kill the daemon (exit 139).
  std::string reply;
  {
    int fd = -1;
    ASSERT_TRUE(serve::connect_endpoint(socket_path_, 5'000, &fd).ok());
    timeval timeout{30, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    ASSERT_TRUE(
        exec::write_all_fd(fd, std::string(1'000'000, '[') + "\n"));
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
  }
  const std::size_t newline = reply.find('\n');
  ASSERT_NE(newline, std::string::npos) << reply;
  const auto header = serve::decode_frame_header(reply.substr(0, newline));
  ASSERT_TRUE(header) << reply;
  EXPECT_EQ(header->exit, 2);
  EXPECT_NE(reply.find("advm.serve-bad-request"), std::string::npos)
      << reply;
  EXPECT_NE(reply.find("nesting deeper than"), std::string::npos) << reply;

  const auto after =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(after.exit_code, 0) << after.err;
}

TEST_F(ServeE2E, OversizedFrameLineGetsTypedErrorAndDaemonKeepsServing) {
  make_tree();
  spawn_daemon();
  // A header line past the frame cap: the daemon stops buffering, answers
  // typed and closes instead of growing the connection's input without
  // bound. The write may fail part-way — the daemon hangs up once the cap
  // is passed, without reading the rest.
  std::string reply;
  {
    int fd = -1;
    ASSERT_TRUE(serve::connect_endpoint(socket_path_, 5'000, &fd).ok());
    timeval timeout{30, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    (void)exec::write_all_fd(
        fd, std::string(serve::kMaxFrameLineBytes + 1, 'x') + "\n");
    char buf[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
  }
  const std::size_t newline = reply.find('\n');
  ASSERT_NE(newline, std::string::npos) << reply;
  const auto header = serve::decode_frame_header(reply.substr(0, newline));
  ASSERT_TRUE(header) << reply;
  EXPECT_EQ(header->exit, 2);
  EXPECT_NE(reply.find("advm.serve-frame-too-large"), std::string::npos)
      << reply;

  const auto after =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(after.exit_code, 0) << after.err;
  const auto stats = run_cli("serve --socket \"" + socket_path_ +
                             "\" --stats --format json");
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  const auto doc = support::json::parse(stats.out);
  ASSERT_TRUE(doc) << stats.out;
  EXPECT_EQ(*doc->find("frames_too_large")->as_uint64(), 1u) << stats.out;
}

TEST_F(ServeE2E, IdleTimeoutDrainsFlushesCostModelAndUnlinksSocket) {
  make_tree();
  const std::string cache_dir = (scratch_ / "cache").string();
  spawn_daemon("--backend process --shards 2 --idle-timeout-ms 700"
               " --cache-dir \"" +
               cache_dir + "\"");
  const auto lap = run_cli("matrix \"" + env_dir_ +
                           "\" --derivatives SC88-A"
                           " --platforms golden-model --format json" +
                           attach_flag());
  ASSERT_EQ(lap.exit_code, 0) << lap.err;
  // No --stop, no signal: the daemon notices it is idle and exits clean.
  EXPECT_TRUE(daemon_exited(15'000))
      << slurp(scratch_ / "daemon.log");
  EXPECT_FALSE(fs::exists(socket_path_));
  // The shutdown drain published the measured costs for the next lap.
  EXPECT_TRUE(fs::exists(fs::path(cache_dir) / "cost-model.jsonl"));
}

TEST_F(ServeE2E, StaleSocketFileIsProbedAndReplaced) {
  make_tree();
  // The corpse: a socket file whose daemon is long gone.
  {
    int fd = -1;
    ASSERT_TRUE(serve::listen_endpoint(socket_path_, 1, &fd).ok());
    ::close(fd);
    ASSERT_TRUE(fs::exists(socket_path_));
  }
  spawn_daemon();  // must unlink the corpse and bind fresh
  const auto stats = run_cli("serve --socket \"" + socket_path_ +
                             "\" --stats --format json");
  EXPECT_EQ(stats.exit_code, 0) << stats.err;
}

TEST_F(ServeE2E, LiveSocketIsRefusedTyped) {
  make_tree();
  spawn_daemon();
  const auto second = run_cli("serve --socket \"" + socket_path_ +
                              "\" --format json");
  EXPECT_EQ(second.exit_code, 2);
  EXPECT_NE(second.out.find("advm.serve-socket-busy"), std::string::npos)
      << second.out;
  // The loser must not have unlinked the winner's socket.
  const auto stats = run_cli("serve --socket \"" + socket_path_ +
                             "\" --stats --format json");
  EXPECT_EQ(stats.exit_code, 0) << stats.err;
}

TEST_F(ServeE2E, StatsDocumentPinsItsContract) {
  make_tree();
  spawn_daemon();
  const auto run =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(run.exit_code, 0);
  const auto stats = run_cli("serve --socket \"" + socket_path_ +
                             "\" --stats --format json");
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  // Fixed key order, one line — the report-document contract.
  const std::vector<std::string> keys = {
      "{\"ok\":true,\"verb\":\"serve\",\"socket\":",  "\"backend\":",
      "\"uptime_ms\":",       "\"clients_served\":",  "\"clients_lost\":",
      "\"requests_ok\":",     "\"requests_failed\":", "\"frames_too_large\":",
      "\"requests\":{",
      "\"trees\":",           "\"cache\":{\"hits\":", "\"persistent_hits\":",
      "\"boards\":{\"constructed\":",                 "\"stale_evicted\":",
      "\"cost_model\":{\"enabled\":",                 "\"keys\":"};
  std::size_t at = 0;
  for (const std::string& key : keys) {
    const std::size_t found = stats.out.find(key, at);
    ASSERT_NE(found, std::string::npos) << key << " out of order or missing in "
                                        << stats.out;
    at = found;
  }
  const auto doc = support::json::parse(stats.out);
  ASSERT_TRUE(doc);
  EXPECT_GE(*doc->find("clients_served")->as_uint64(), 1u);
  EXPECT_GE(*doc->find("requests_ok")->as_uint64(), 1u);
  EXPECT_EQ(*doc->find("trees")->as_uint64(), 1u);
  EXPECT_EQ(*doc->find("requests")->find("run")->as_uint64(), 1u);
}

TEST_F(ServeE2E, AttachToNothingFailsTypedAndFast) {
  make_tree();
  const auto lost = run_cli("run \"" + env_dir_ +
                            "\" --format json --attach \"" + socket_path_ +
                            "\"");
  EXPECT_EQ(lost.exit_code, 2);
  EXPECT_NE(lost.out.find("advm.serve-unreachable"), std::string::npos)
      << lost.out;
}

}  // namespace
