// The execution layer: work planning, the worker serve protocol, and
// backend parity.
//
// The load-bearing contract under test is deterministic aggregation —
// plans enumerate cells with their positions recorded, and both
// execution backends return cell reports in cube order with identical
// outcome digests and roll-up JSON bytes. The process-backend tests drive
// the real `advm` binary (ADVM_CLI_PATH, injected by tests/CMakeLists.txt)
// through the worker verb, exactly as the orchestrator spawns it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "advm/exec/backend.h"
#include "advm/exec/costmodel.h"
#include "advm/exec/workerpool.h"
#include "advm/exec/workplan.h"
#include "advm/report.h"
#include "advm/session.h"
#include "support/json.h"

namespace {

using namespace advm;
using namespace advm::core;

class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("advm_exec_") + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

BuildResult build_small_system(Session& session) {
  BuildRequest request;
  request.root = "/SYS";
  request.tests_per_module = 2;
  return session.run(request);
}

MatrixRequest small_cube() {
  MatrixRequest request;
  request.derivatives = {"SC88-A", "SC88-B"};
  request.platforms = {"golden-model", "accelerator"};
  return request;
}

// ------------------------------------------------------------- planning ----

TEST(WorkPlan, MatrixPlanEnumeratesTheCubeDerivativeMajor) {
  const exec::MatrixPlan plan = exec::plan_matrix(small_cube(), 1);
  ASSERT_EQ(plan.cells.size(), 4u);
  EXPECT_EQ(plan.cells[0].derivative, "SC88-A");
  EXPECT_EQ(plan.cells[0].platform, "golden-model");
  EXPECT_EQ(plan.cells[1].derivative, "SC88-A");
  EXPECT_EQ(plan.cells[1].platform, "accelerator");
  EXPECT_EQ(plan.cells[3].derivative, "SC88-B");
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    EXPECT_EQ(plan.cells[i].index, i);
  }
  EXPECT_EQ(plan.shards, 1u);
}

TEST(WorkPlan, SlicesPartitionCellsRoundRobin) {
  // Workers pull cells from the plan at run time, so the plan's partition
  // is its cell list: every cell exactly once, in index order, whatever
  // the shard count.
  const exec::MatrixPlan plan = exec::plan_matrix(small_cube(), 3);
  EXPECT_EQ(plan.shards, 3u);
  ASSERT_EQ(plan.cells.size(), 4u);
  std::vector<bool> seen(plan.cells.size(), false);
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const exec::PlannedCell& cell = plan.cells[i];
    EXPECT_EQ(cell.index, i);
    ASSERT_LT(cell.index, seen.size());
    EXPECT_FALSE(seen[cell.index]);
    seen[cell.index] = true;
  }
  for (const bool covered : seen) EXPECT_TRUE(covered);
}

TEST(WorkPlan, MoreShardsThanCellsDropsEmptySlices) {
  // No worker is planned that would have no cell to run.
  const exec::MatrixPlan plan = exec::plan_matrix(small_cube(), 64);
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.cells.size(), 4u);
}

TEST(WorkPlan, ShardCountIsTheRequestCappedAtTheCellCount) {
  MatrixRequest empty_cube = small_cube();
  empty_cube.derivatives.clear();
  struct Case {
    const char* name;
    MatrixRequest request;
    std::size_t requested;
    std::size_t expected;
  };
  const Case cases[] = {
      {"one shard", small_cube(), 1, 1},
      {"fewer shards than cells", small_cube(), 3, 3},
      {"as many shards as cells", small_cube(), 4, 4},
      {"more shards than cells", small_cube(), 64, 4},
      {"zero shards count as one", small_cube(), 0, 1},
      {"no cells", empty_cube, 3, 0},
  };
  for (const Case& c : cases) {
    const exec::MatrixPlan plan = exec::plan_matrix(c.request, c.requested);
    EXPECT_EQ(plan.shards, c.expected) << c.name;
    EXPECT_EQ(plan.cells.size(),
              c.request.derivatives.size() * c.request.platforms.size())
        << c.name;
  }
}

// ------------------------------------------------------- serve protocol ----

TEST(WorkerServeProtocol, ServeRequestsRoundTripThroughJson) {
  exec::ServeRequest init;
  init.kind = exec::ServeRequest::Kind::Init;
  init.tree_dir = "/tmp/tree with space";
  init.jobs = 3;
  init.cache_dir = "/tmp/cache";
  init.cache_max_bytes = 1u << 20;
  auto parsed = exec::parse_serve_request(exec::to_json(init));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, exec::ServeRequest::Kind::Init);
  EXPECT_EQ(parsed->tree_dir, init.tree_dir);
  EXPECT_EQ(parsed->jobs, 3u);
  EXPECT_EQ(parsed->cache_dir, "/tmp/cache");
  EXPECT_EQ(parsed->cache_max_bytes, 1u << 20);

  exec::ServeRequest run;
  run.kind = exec::ServeRequest::Kind::Run;
  run.max_instructions = 777;
  run.cells = {{4, "SC88-B", "hdl-rtl"}};
  // The wire format is line-delimited: a request must never span lines.
  EXPECT_EQ(exec::to_json(run).find('\n'), std::string::npos);
  parsed = exec::parse_serve_request(exec::to_json(run));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, exec::ServeRequest::Kind::Run);
  EXPECT_EQ(parsed->max_instructions, 777u);
  ASSERT_EQ(parsed->cells.size(), 1u);
  EXPECT_EQ(parsed->cells[0].index, 4u);

  parsed = exec::parse_serve_request(R"({"cmd":"shutdown"})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, exec::ServeRequest::Kind::Shutdown);

  std::string error;
  EXPECT_FALSE(
      exec::parse_serve_request(R"({"cmd":"dance"})", &error).has_value());
  EXPECT_NE(error.find("dance"), std::string::npos);
  EXPECT_FALSE(exec::parse_serve_request(R"({"cmd":"run","cells":[]})",
                                         &error)
                   .has_value());
  EXPECT_FALSE(
      exec::parse_serve_request(R"({"cmd":"init"})", &error).has_value());
}

TEST(ReportJson, ReportRoundTripsThroughJsonWithDigestIntact) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  RunResult result = session.run(RunRequest{});
  ASSERT_TRUE(result.status.ok());

  const std::string json = report_to_json(result.report);
  const auto doc = support::json::parse(json);
  ASSERT_TRUE(doc.has_value());
  const auto parsed = report_from_json(*doc);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->derivative, result.report.derivative);
  EXPECT_EQ(parsed->platform, result.report.platform);
  ASSERT_EQ(parsed->records.size(), result.report.records.size());
  EXPECT_EQ(parsed->outcome_digest(), result.report.outcome_digest());
  EXPECT_EQ(parsed->total_instructions(),
            result.report.total_instructions());
  EXPECT_EQ(parsed->cache.misses, result.report.cache.misses);
  // The re-serialized document is byte-identical — the property the
  // process backend's merge relies on.
  EXPECT_EQ(report_to_json(*parsed), json);
}

// ------------------------------------------------------ backend parity ----

TEST(ExecutionBackend, ThreadBackendMatchesTheDirectRunner) {
  Session direct;
  ASSERT_TRUE(build_small_system(direct).status.ok());
  MatrixResult expected = direct.run(small_cube());
  ASSERT_TRUE(expected.status.ok());
  EXPECT_EQ(expected.backend, "thread");
  EXPECT_EQ(expected.shards, 1u);

  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  exec::ThreadBackend backend(session.context());
  EXPECT_EQ(backend.name(), "thread");
  const exec::MatrixExecution execution =
      backend.run_matrix(exec::plan_matrix(small_cube(), 1));
  ASSERT_TRUE(execution.status.ok()) << execution.status.message;
  ASSERT_EQ(execution.cells.size(), expected.cells.size());
  for (std::size_t i = 0; i < execution.cells.size(); ++i) {
    EXPECT_EQ(execution.cells[i].outcome_digest(),
              expected.cells[i].outcome_digest());
  }
}

TEST(ExecutionBackend, ProcessBackendMatchesThreadBackendByteForByte) {
  Session thread_session;
  ASSERT_TRUE(build_small_system(thread_session).status.ok());
  MatrixResult thread_result = thread_session.run(small_cube());
  ASSERT_TRUE(thread_result.status.ok());

  SessionConfig config;
  config.backend = ExecBackendKind::Process;
  config.shards = 3;
  config.worker_exe = ADVM_CLI_PATH;
  Session process_session(std::move(config));
  ASSERT_TRUE(build_small_system(process_session).status.ok());
  MatrixResult process_result = process_session.run(small_cube());
  ASSERT_TRUE(process_result.status.ok()) << process_result.status.message;

  EXPECT_EQ(process_result.backend, "process");
  EXPECT_EQ(process_result.shards, 3u);
  ASSERT_EQ(process_result.cells.size(), thread_result.cells.size());
  for (std::size_t i = 0; i < process_result.cells.size(); ++i) {
    EXPECT_EQ(process_result.cells[i].outcome_digest(),
              thread_result.cells[i].outcome_digest())
        << "cell " << i;
    EXPECT_EQ(process_result.cells[i].derivative,
              thread_result.cells[i].derivative);
    EXPECT_EQ(process_result.cells[i].platform,
              thread_result.cells[i].platform);
  }
  // The shard-determinism contract the CI gate enforces, at the API level.
  EXPECT_EQ(rollup_to_json(process_result), rollup_to_json(thread_result));
}

TEST(ExecutionBackend, ProcessBackendRunVerbExecutesOnAWorker) {
  SessionConfig config;
  config.backend = ExecBackendKind::Process;
  config.worker_exe = ADVM_CLI_PATH;
  Session session(std::move(config));
  ASSERT_TRUE(build_small_system(session).status.ok());

  Session reference;
  ASSERT_TRUE(build_small_system(reference).status.ok());
  RunResult expected = reference.run(RunRequest{});
  ASSERT_TRUE(expected.status.ok());

  RunResult result = session.run(RunRequest{});
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_EQ(result.report.outcome_digest(),
            expected.report.outcome_digest());
}

TEST(ExecutionBackend, WorkersShareThePersistentCacheAcrossRuns) {
  ScratchDir cache("workers_cache");
  const auto run_once = [&] {
    SessionConfig config;
    config.backend = ExecBackendKind::Process;
    config.shards = 2;
    config.worker_exe = ADVM_CLI_PATH;
    config.cache_dir = cache.path();
    Session session(std::move(config));
    EXPECT_TRUE(build_small_system(session).status.ok());
    return session.run(small_cube());
  };

  MatrixResult cold = run_once();
  ASSERT_TRUE(cold.status.ok()) << cold.status.message;

  // Second orchestration: every worker process starts with a cold
  // in-memory cache, so its misses must be served from the shared disk
  // tier the first run populated.
  MatrixResult warm = run_once();
  ASSERT_TRUE(warm.status.ok()) << warm.status.message;
  std::uint64_t persistent_hits = 0;
  for (const RegressionReport& cell : warm.cells) {
    persistent_hits += cell.cache.persistent_hits;
  }
  EXPECT_GT(persistent_hits, 0u);
  EXPECT_EQ(rollup_to_json(warm), rollup_to_json(cold));
}

TEST(ExecutionBackend, MissingWorkerBinaryIsATypedExecError) {
  SessionConfig config;
  config.backend = ExecBackendKind::Process;
  config.worker_exe = "/nonexistent/advm-worker-binary";
  Session session(std::move(config));
  ASSERT_TRUE(build_small_system(session).status.ok());
  MatrixResult result = session.run(small_cube());
  EXPECT_EQ(result.status.code, "advm.exec-spawn-failed");
  EXPECT_TRUE(result.cells.empty());
}

// ------------------------------------------------------ merge hardening ----

/// A structurally valid one-record report for embedding in crafted shard
/// documents.
std::string tiny_report_json() {
  RegressionReport report;
  report.derivative = "SC88-A";
  report.platform = sim::PlatformKind::GoldenModel;
  TestRunRecord record;
  record.environment = "MEM_MODULE";
  record.test_id = "TEST_MEMORY_000";
  record.build_ok = true;
  record.verdict = soc::Verdict::Pass;
  record.stop = sim::StopReason::Halted;
  record.instructions = 10;
  record.cycles = 10;
  record.state_digest = 0x1234;
  record.modeled_seconds = 1e-6;
  report.records.push_back(std::move(record));
  return report_to_json(report);
}

std::string shard_document(const std::vector<std::size_t>& indices) {
  std::ostringstream os;
  os << R"({"ok":true,"verb":"worker","kind":"matrix","cells":[)";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"index\":" << indices[i] << ",\"report\":"
       << tiny_report_json() << "}";
  }
  os << "]}";
  return os.str();
}

TEST(MergeShardReport, PositionsEveryExpectedCell) {
  std::vector<RegressionReport> cells(4);
  std::vector<bool> filled(4, false);
  const Status status =
      exec::merge_shard_report(shard_document({1, 3}), {1, 3}, cells,
                               filled);
  EXPECT_TRUE(status.ok()) << status.message;
  EXPECT_FALSE(filled[0]);
  EXPECT_TRUE(filled[1]);
  EXPECT_TRUE(filled[3]);
  EXPECT_EQ(cells[3].derivative, "SC88-A");
}

TEST(MergeShardReport, RejectsADuplicateIndexInsteadOfOverwriting) {
  std::vector<RegressionReport> cells(4);
  std::vector<bool> filled(4, false);
  // Same index twice in one document.
  Status status =
      exec::merge_shard_report(shard_document({2, 2}), {2}, cells, filled);
  EXPECT_EQ(status.code, "advm.exec-worker-failed");
  EXPECT_NE(status.message.find("duplicate"), std::string::npos);

  // Already filled by an earlier shard.
  filled.assign(4, false);
  cells.assign(4, RegressionReport{});
  ASSERT_TRUE(exec::merge_shard_report(shard_document({2}), {2}, cells,
                                       filled)
                  .ok());
  cells[2].derivative = "EARLIER-SHARD";
  status =
      exec::merge_shard_report(shard_document({2}), {2}, cells, filled);
  EXPECT_EQ(status.code, "advm.exec-worker-failed");
  // The earlier shard's report survives untouched.
  EXPECT_EQ(cells[2].derivative, "EARLIER-SHARD");
}

TEST(MergeShardReport, RejectsForeignAndOutOfRangeIndices) {
  std::vector<RegressionReport> cells(4);
  std::vector<bool> filled(4, false);
  // In range, but assigned to a different shard.
  Status status =
      exec::merge_shard_report(shard_document({0}), {1, 3}, cells, filled);
  EXPECT_EQ(status.code, "advm.exec-worker-failed");
  EXPECT_NE(status.message.find("not assigned"), std::string::npos);
  EXPECT_FALSE(filled[0]);

  // Outside the plan entirely.
  status =
      exec::merge_shard_report(shard_document({7}), {1}, cells, filled);
  EXPECT_EQ(status.code, "advm.exec-worker-failed");
  EXPECT_NE(status.message.find("outside the plan"), std::string::npos);
}

TEST(MergeShardReport, RejectsAnIncompleteShard) {
  std::vector<RegressionReport> cells(4);
  std::vector<bool> filled(4, false);
  const Status status =
      exec::merge_shard_report(shard_document({1}), {1, 3}, cells, filled);
  EXPECT_EQ(status.code, "advm.exec-worker-failed");
  EXPECT_NE(status.message.find("1 of 2"), std::string::npos);
}

TEST(MergeShardReport, ExtractsPerCellWallClockForTheCostModel) {
  std::vector<RegressionReport> cells(3);
  std::vector<bool> filled(3, false);
  std::vector<double> millis(3, -1.0);
  std::ostringstream os;
  os << R"({"ok":true,"verb":"worker","kind":"matrix","cells":[)"
     << R"({"index":0,"micros":2500,"report":)" << tiny_report_json()
     << "},"
     // No micros field: an older worker binary answering a newer
     // orchestrator must merge fine, just without feedback.
     << R"({"index":2,"report":)" << tiny_report_json() << "}]}";
  const Status status =
      exec::merge_shard_report(os.str(), {0, 2}, cells, filled, &millis);
  ASSERT_TRUE(status.ok()) << status.message;
  EXPECT_DOUBLE_EQ(millis[0], 2.5);
  EXPECT_DOUBLE_EQ(millis[1], -1.0);
  EXPECT_DOUBLE_EQ(millis[2], -1.0);
  EXPECT_TRUE(filled[0]);
  EXPECT_TRUE(filled[2]);
}

TEST(MergeShardReport, SurfacesAWorkerErrorDocument) {
  std::vector<RegressionReport> cells(1);
  std::vector<bool> filled(1, false);
  const Status status = exec::merge_shard_report(
      R"({"ok":false,"verb":"worker","error":{"code":"advm.import-failed",)"
      R"("message":"tree vanished"}})",
      {0}, cells, filled);
  EXPECT_EQ(status.code, "advm.exec-worker-failed");
  EXPECT_NE(status.message.find("tree vanished"), std::string::npos);
}

// ------------------------------------------------------------ cost model --

TEST(CostModel, RecordsPublishAndReloadAcrossInstances) {
  ScratchDir cache("costmodel_roundtrip");
  {
    exec::CostModel model(cache.path());
    EXPECT_TRUE(model.enabled());
    model.load();
    EXPECT_FALSE(
        model.estimate("SC88-A", "golden-model", "digest1").has_value());
    model.record({"SC88-A", "golden-model", "digest1", 12.5});
    model.record({"SC88-B", "hdl-rtl", "digest1", 80.0});
    EXPECT_EQ(model.publish(), 2u);
  }
  exec::CostModel reloaded(cache.path());
  reloaded.load();
  EXPECT_EQ(reloaded.estimate("SC88-A", "golden-model", "digest1"), 12.5);
  EXPECT_EQ(reloaded.estimate("SC88-B", "hdl-rtl", "digest1"), 80.0);
  // A different tree digest is a different key: no estimate.
  EXPECT_FALSE(
      reloaded.estimate("SC88-A", "golden-model", "digest2").has_value());
}

TEST(CostModel, EstimateDecaysTowardNewerObservations) {
  ScratchDir cache("costmodel_decay");
  exec::CostModel model(cache.path());
  model.load();
  model.record({"SC88-A", "golden-model", "t", 100.0});
  model.record({"SC88-A", "golden-model", "t", 10.0});
  model.publish();
  // One decay step: 0.5·100 + 0.5·10.
  EXPECT_DOUBLE_EQ(*model.estimate("SC88-A", "golden-model", "t"), 55.0);
  // A third observation pulls the average further toward the present.
  model.record({"SC88-A", "golden-model", "t", 10.0});
  model.publish();
  EXPECT_DOUBLE_EQ(*model.estimate("SC88-A", "golden-model", "t"), 32.5);
}

TEST(CostModel, HistoryIsBoundedPerKey) {
  ScratchDir cache("costmodel_bounded");
  exec::CostModel model(cache.path());
  model.load();
  for (int i = 0; i < 20; ++i) {
    model.record({"SC88-A", "golden-model", "t", 7.0});
    model.publish();
  }
  std::ifstream in(model.path());
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, exec::CostModel::kMaxHistoryPerKey);
}

TEST(CostModel, CorruptLinesFailClosedToAColdModel) {
  ScratchDir cache("costmodel_corrupt");
  exec::CostModel model(cache.path());
  {
    std::ofstream out(model.path());
    out << "this is not json\n"
        << R"({"derivative":"SC88-A","platform":"golden-model"})" << "\n"
        << R"({"derivative":"SC88-A","platform":"golden-model",)"
        << R"("tree":"t","millis":4.0})" << "\n";
  }
  model.load();
  // Only the well-formed line survives.
  EXPECT_EQ(model.estimate("SC88-A", "golden-model", "t"), 4.0);
}

TEST(CostModel, EmptyCacheDirDisablesTheModel) {
  exec::CostModel model("");
  EXPECT_FALSE(model.enabled());
  model.load();
  model.record({"SC88-A", "golden-model", "t", 1.0});
  EXPECT_EQ(model.publish(), 0u);
  EXPECT_FALSE(model.estimate("SC88-A", "golden-model", "t").has_value());
}

TEST(WorkerPool, DivideJobsNeverOversubscribesAndNeverStarves) {
  EXPECT_EQ(exec::divide_jobs(8, 4), 2u);
  EXPECT_EQ(exec::divide_jobs(8, 2), 4u);
  // Fewer jobs than workers: every worker still gets one thread.
  EXPECT_EQ(exec::divide_jobs(3, 4), 1u);
  EXPECT_EQ(exec::divide_jobs(1, 8), 1u);
  // jobs=0 = one per hardware thread, divided across workers.
  EXPECT_GE(exec::divide_jobs(0, 2), 1u);
  EXPECT_EQ(exec::divide_jobs(4, 0), 4u);
}

// --------------------------------------------------------- pooled workers --

TEST(WorkerPool, WedgedWorkerTimesOutWithATypedStatus) {
  // A worker that never answers (here: a script that just sleeps, the
  // stand-in for an infinite loop in a simulated test) must surface as a
  // typed timeout within the per-request deadline — the orchestrator
  // used to block forever in read(2).
  ScratchDir scratch("wedged_worker");
  const std::string script = scratch.path() + "/wedged.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nexec sleep 30\n";
  }
  std::filesystem::permissions(script,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::others_read);
  exec::WorkerPool pool;
  pool.set_request_timeout_ms(250);
  ASSERT_TRUE(pool.spawn(script, scratch.path(), 1).ok());
  std::string response;
  const auto started = std::chrono::steady_clock::now();
  const Status status =
      pool.roundtrip(0, R"({"cmd":"shutdown"})", &response);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_EQ(status.code, "advm.exec-worker-timeout");
  EXPECT_NE(status.message.find("no response within"), std::string::npos);
  // Generous bound: the point is "deadline", not "30 seconds".
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // The wedged worker was killed on the spot; shutdown reaps the corpse
  // and reports the signal, which must not wedge either.
  const Status reaped = pool.shutdown();
  EXPECT_NE(reaped.message.find("signal"), std::string::npos);
}

/// Streams `bytes` bytes of 'x' and then `tail` into `fd` in 64 KiB writes,
/// stopping early once the reader closes its end; then closes `fd`.
void stream_line(int fd, std::size_t bytes, std::string tail) {
  const std::string chunk(std::size_t{64} << 10, 'x');
  for (std::size_t sent = 0; sent < bytes; sent += chunk.size()) {
    const std::size_t n = std::min(chunk.size(), bytes - sent);
    if (!exec::write_all_fd(fd, std::string_view(chunk).substr(0, n))) {
      ::close(fd);
      return;
    }
  }
  (void)exec::write_all_fd(fd, tail);
  ::close(fd);
}

TEST(WorkerPool, ReplyReaderRejectsALineOverTheCap) {
  // A peer that sends one line longer than the cap must not make the
  // reader buffer it whole: the read ends with TooLong while the buffer
  // is at most one read past the cap.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer(stream_line, fds[1], exec::kMaxReplyLineBytes + 1,
                     std::string("\n"));
  std::string carry;
  std::string line;
  const exec::LineRead result =
      exec::read_line_deadline(fds[0], &carry, &line, 30'000);
  ::close(fds[0]);
  writer.join();
  EXPECT_EQ(result, exec::LineRead::TooLong);
  EXPECT_TRUE(line.empty());
  EXPECT_LE(carry.size(), exec::kMaxReplyLineBytes + 4096);
}

TEST(WorkerPool, ReplyReaderAcceptsALineExactlyAtTheCap) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer(stream_line, fds[1], exec::kMaxReplyLineBytes,
                     std::string("\nnext\n"));
  std::string carry;
  std::string line;
  EXPECT_EQ(exec::read_line_deadline(fds[0], &carry, &line, 30'000),
            exec::LineRead::Line);
  EXPECT_EQ(line.size(), exec::kMaxReplyLineBytes);
  line = std::string();
  EXPECT_EQ(exec::read_line_deadline(fds[0], &carry, &line, 30'000),
            exec::LineRead::Line);
  EXPECT_EQ(line, "next");
  ::close(fds[0]);
  writer.join();
}

TEST(WorkerPool, OversizedReplyIsATypedBrokenRoundTrip) {
  // A worker answering with a line over the cap gets a typed status —
  // which the dispatcher treats like any broken round trip: retire the
  // worker, requeue its cells — and its slot can be respawned.
  ScratchDir scratch("oversized_reply");
  const std::string script = scratch.path() + "/oversized.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nhead -c " << exec::kMaxReplyLineBytes + 1
        << " /dev/zero | tr '\\0' x\necho\n";
  }
  std::filesystem::permissions(script,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::others_read);
  exec::WorkerPool pool;
  pool.set_request_timeout_ms(60'000);
  ASSERT_TRUE(pool.spawn(script, scratch.path(), 1).ok());
  std::string response;
  const Status status =
      pool.roundtrip(0, R"({"cmd":"shutdown"})", &response);
  EXPECT_EQ(status.code, "advm.exec-reply-too-large");
  EXPECT_NE(status.message.find("serve worker 0: reply line longer than " +
                                std::to_string(exec::kMaxReplyLineBytes) +
                                " bytes"),
            std::string::npos)
      << status.message;
  EXPECT_TRUE(response.empty());
  EXPECT_TRUE(pool.respawn(0).ok());
  (void)pool.shutdown();
}

TEST(WorkerPool, ShutdownRemovesTheStderrCaptureFiles) {
  ScratchDir scratch("stderr_cleanup");
  exec::WorkerPool pool;
  ASSERT_TRUE(pool.spawn(ADVM_CLI_PATH, scratch.path(), 2).ok());
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    paths.push_back(pool.stderr_path(i));
    EXPECT_TRUE(std::filesystem::exists(paths.back())) << paths.back();
  }
  const Status status = pool.shutdown();
  EXPECT_TRUE(status.ok()) << status.message;
  // A successful orchestration must not leak one file per worker.
  for (const std::string& path : paths) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
}

TEST(ExecutionBackend, WarmCostModelSeedsDispatchAndBatchesTinyCells) {
  ScratchDir cache("cost_feedback");
  const auto run_once = [&](std::size_t batch_threshold_ms) {
    SessionConfig config;
    config.backend = ExecBackendKind::Process;
    config.shards = 2;
    config.worker_exe = ADVM_CLI_PATH;
    config.cache_dir = cache.path();
    config.batch_threshold_ms = batch_threshold_ms;
    Session session(std::move(config));
    EXPECT_TRUE(build_small_system(session).status.ok());
    return session.run(small_cube());
  };

  // Lap 1: cold model — test-count estimates, no batching possible.
  MatrixResult cold = run_once(SessionConfig::kAutoBatchThreshold);
  ASSERT_TRUE(cold.status.ok()) << cold.status.message;
  EXPECT_EQ(cold.cost_model.source, "estimate");
  EXPECT_EQ(cold.cost_model.seeded_cells, 0u);
  // Every cell's measured wall-clock fed the model for the next lap.
  EXPECT_EQ(cold.cost_model.recorded, cold.cells.size());
  EXPECT_EQ(cold.batched_requests, 0u);

  // Lap 2: warm model, threshold far above any cell's runtime — all four
  // cells are "tiny" and pack into one multi-cell request batch.
  MatrixResult batched = run_once(1'000'000);
  ASSERT_TRUE(batched.status.ok()) << batched.status.message;
  EXPECT_EQ(batched.cost_model.source, "measured");
  EXPECT_EQ(batched.cost_model.seeded_cells, batched.cells.size());
  EXPECT_GT(batched.batched_requests, 0u);
  std::size_t requests = 0;
  for (const MatrixWorkerStats& worker : batched.workers) {
    requests += worker.requests;
  }
  EXPECT_LT(requests, batched.cells.size());

  // Lap 3: batching disabled — warm seed order, one request per cell.
  MatrixResult unbatched = run_once(0);
  ASSERT_TRUE(unbatched.status.ok()) << unbatched.status.message;
  EXPECT_EQ(unbatched.cost_model.source, "measured");
  EXPECT_EQ(unbatched.batched_requests, 0u);

  // The determinism contract is unchanged by seeding or batching.
  EXPECT_EQ(rollup_to_json(batched), rollup_to_json(cold));
  EXPECT_EQ(rollup_to_json(unbatched), rollup_to_json(cold));
}

TEST(WorkerPool, TwoWorkersServeEightCellsWithReuseAndThreadParity) {
  Session thread_session;
  ASSERT_TRUE(build_small_system(thread_session).status.ok());

  MatrixRequest cube;
  cube.derivatives = {"SC88-A", "SC88-B", "SC88-C", "SC88-D"};
  cube.platforms = {"golden-model", "hdl-rtl"};
  MatrixResult thread_result = thread_session.run(cube);
  ASSERT_TRUE(thread_result.status.ok());
  EXPECT_TRUE(thread_result.workers.empty());
  EXPECT_EQ(thread_result.worker_reuse(), 0u);

  SessionConfig config;
  config.backend = ExecBackendKind::Process;
  config.shards = 2;
  config.jobs = 4;
  config.worker_exe = ADVM_CLI_PATH;
  Session pool_session(std::move(config));
  ASSERT_TRUE(build_small_system(pool_session).status.ok());
  MatrixResult pooled = pool_session.run(cube);
  ASSERT_TRUE(pooled.status.ok()) << pooled.status.message;

  ASSERT_EQ(pooled.cells.size(), 8u);
  // Two workers spawned once for the whole lap, each seeded with one
  // cell and pulling the rest dynamically: every worker serves at least
  // one request and the 8 single-cell requests amortize the 2 spawns.
  ASSERT_EQ(pooled.workers.size(), 2u);
  std::size_t total_requests = 0;
  std::size_t total_cells = 0;
  for (const MatrixWorkerStats& worker : pooled.workers) {
    EXPECT_GE(worker.requests, 1u) << "worker " << worker.worker
                                   << " never served a request";
    total_requests += worker.requests;
    total_cells += worker.cells;
  }
  EXPECT_EQ(total_cells, 8u);
  EXPECT_EQ(total_requests, 8u);
  EXPECT_EQ(pooled.worker_reuse(), 6u);
  // --jobs 4 across 2 live workers: 2 threads each, never 4×2.
  EXPECT_EQ(pooled.jobs_per_worker, 2u);

  // The determinism contract is unchanged by pooling.
  EXPECT_EQ(rollup_to_json(pooled), rollup_to_json(thread_result));
}

// ------------------------------------------------------- fault tolerance --

TEST(FaultPlan, ParsesClausesAndRendersPerWorkerIncarnation) {
  std::string error;
  const auto plan = exec::parse_fault_plan(
      "0:crash@1; *:garbage@cell=2 ;1:exit@3;0:wedge@cell=0", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->size(), 4u);
  EXPECT_EQ((*plan)[0].worker, 0u);
  EXPECT_EQ((*plan)[0].action, exec::FaultClause::Action::Crash);
  EXPECT_EQ((*plan)[0].request, 1u);
  EXPECT_EQ((*plan)[0].cell, exec::FaultClause::kNoCell);
  EXPECT_EQ((*plan)[1].worker, exec::FaultClause::kAnyWorker);
  EXPECT_EQ((*plan)[1].action, exec::FaultClause::Action::Garbage);
  EXPECT_EQ((*plan)[1].cell, 2u);

  // Worker 0, first incarnation: its own clauses plus the wildcard.
  EXPECT_EQ(exec::fault_plan_for_worker(*plan, 0, true),
            "crash@1,garbage@cell=2,wedge@cell=0");
  // After a respawn, request-count clauses have already fired in the dead
  // incarnation; only cell-addressed clauses survive (poisoned-cell
  // semantics: the fault follows the cell, not the process).
  EXPECT_EQ(exec::fault_plan_for_worker(*plan, 0, false),
            "garbage@cell=2,wedge@cell=0");
  EXPECT_EQ(exec::fault_plan_for_worker(*plan, 1, true),
            "garbage@cell=2,exit@3");
  // A slot nothing addresses directly still inherits the wildcard clause.
  EXPECT_EQ(exec::fault_plan_for_worker(*plan, 7, true), "garbage@cell=2");

  // The rendered worker-side list parses back to the same faults.
  const auto actions = exec::parse_worker_fault_actions(
      exec::fault_plan_for_worker(*plan, 0, true), &error);
  ASSERT_TRUE(actions.has_value()) << error;
  ASSERT_EQ(actions->size(), 3u);
  EXPECT_EQ((*actions)[0].action, exec::FaultClause::Action::Crash);
  EXPECT_EQ((*actions)[0].request, 1u);
  EXPECT_EQ((*actions)[2].cell, 0u);

  // Blank plans are legal no-ops on both sides of the wire.
  EXPECT_TRUE(exec::parse_fault_plan("")->empty());
  EXPECT_TRUE(exec::parse_worker_fault_actions("")->empty());
}

TEST(FaultPlan, MalformedClausesAreRejectedWithADiagnostic) {
  const auto expect_bad = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(exec::parse_fault_plan(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  };
  expect_bad("crash@1");        // missing '<worker|*>:' prefix
  expect_bad("0:crash");        // missing '@<trigger>'
  expect_bad("0:melt@1");       // unknown action
  expect_bad("0:crash@0");      // run requests are numbered from 1
  expect_bad("x:crash@1");      // non-numeric worker slot
  expect_bad("0:crash@cell=");  // empty cell index
  expect_bad("0:crash@cell=x");
}

TEST(FaultPolicy, GroupsRetryThenSplitThenPoison) {
  // First failure of any group: requeue as-is.
  EXPECT_EQ(exec::fate_after_failure(4, 1), exec::GroupFate::Retry);
  EXPECT_EQ(exec::fate_after_failure(1, 1), exec::GroupFate::Retry);
  // Budget exhausted: a batch splits so one bad cell cannot condemn its
  // neighbours; a single cell has nowhere left to hide and is poisoned.
  EXPECT_EQ(exec::fate_after_failure(4, exec::kMaxGroupAttempts),
            exec::GroupFate::Split);
  EXPECT_EQ(exec::fate_after_failure(1, exec::kMaxGroupAttempts),
            exec::GroupFate::Poison);
}

/// A process-backend session wired for fault injection against the small
/// cube, next to an identical thread-backend reference.
struct ChaosLab {
  MatrixResult thread_result;

  ChaosLab() {
    Session reference;
    EXPECT_TRUE(build_small_system(reference).status.ok());
    thread_result = reference.run(small_cube());
    EXPECT_TRUE(thread_result.status.ok());
  }

  MatrixResult run(const std::string& fault_plan, std::size_t max_respawns,
                   std::size_t request_timeout_ms = 0) {
    SessionConfig config;
    config.backend = ExecBackendKind::Process;
    config.shards = 2;
    config.worker_exe = ADVM_CLI_PATH;
    config.fault_plan = fault_plan;
    config.max_respawns = max_respawns;
    if (request_timeout_ms != 0) {
      config.request_timeout_ms = request_timeout_ms;
    }
    Session session(std::move(config));
    EXPECT_TRUE(build_small_system(session).status.ok());
    return session.run(small_cube());
  }
};

TEST(FaultTolerance, CrashedWorkerCellsAreRequeuedWithThreadParity) {
  ChaosLab lab;
  // Worker 0 dies on its first request; no respawn budget. Its seed cell
  // must migrate to the surviving worker and the lap must stay green.
  MatrixResult result = lab.run("0:crash@1", /*max_respawns=*/0);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_GE(result.fault.retries, 1u);
  EXPECT_GE(result.fault.requeued_cells, 1u);
  EXPECT_EQ(result.fault.respawns, 0u);
  EXPECT_EQ(result.fault.quarantined_cells, 0u);
  EXPECT_FALSE(result.fault.degraded);
  // The dead slot served nothing; the survivor carried the whole cube.
  ASSERT_EQ(result.workers.size(), 2u);
  EXPECT_EQ(result.workers[0].requests, 0u);
  EXPECT_EQ(result.workers[1].cells, result.cells.size());
  EXPECT_EQ(rollup_to_json(result), rollup_to_json(lab.thread_result));
}

TEST(FaultTolerance, RespawnBudgetRestoresACrashedSlot) {
  ChaosLab lab;
  MatrixResult result = lab.run("0:crash@1", /*max_respawns=*/1);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_EQ(result.fault.respawns, 1u);
  EXPECT_GE(result.fault.retries, 1u);
  EXPECT_EQ(result.fault.quarantined_cells, 0u);
  EXPECT_FALSE(result.fault.degraded);
  EXPECT_EQ(rollup_to_json(result), rollup_to_json(lab.thread_result));
}

TEST(FaultTolerance, GarbageReplyRetiresTheWorkerAndRequeues) {
  ChaosLab lab;
  // A worker whose reply is not a protocol document cannot be trusted
  // with further requests even though its process is still alive.
  MatrixResult result = lab.run("1:garbage@1", /*max_respawns=*/1);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_GE(result.fault.retries, 1u);
  EXPECT_EQ(result.fault.respawns, 1u);
  EXPECT_EQ(result.fault.quarantined_cells, 0u);
  EXPECT_EQ(rollup_to_json(result), rollup_to_json(lab.thread_result));
}

TEST(FaultTolerance, WedgedWorkerIsTimedOutAndItsCellsRequeued) {
  ChaosLab lab;
  // The wedge burns one request deadline, then the cell is re-run
  // elsewhere; keep the timeout short so the test stays fast.
  MatrixResult result = lab.run("0:wedge@1", /*max_respawns=*/0,
                                /*request_timeout_ms=*/1500);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_EQ(result.request_timeout_ms, 1500u);
  EXPECT_GE(result.fault.retries, 1u);
  EXPECT_FALSE(result.fault.degraded);
  EXPECT_EQ(rollup_to_json(result), rollup_to_json(lab.thread_result));
}

TEST(FaultTolerance, PoisonedCellIsQuarantinedWithATypedOutcome) {
  ChaosLab lab;
  // Cell 1 kills every incarnation that touches it. After the retry
  // budget it must be quarantined — a typed per-cell outcome, not a
  // failed run — and every other cell must still match the reference.
  MatrixResult result = lab.run("*:crash@cell=1", /*max_respawns=*/1);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_EQ(result.fault.quarantined_cells, 1u);
  EXPECT_GE(result.fault.respawns, 1u);
  EXPECT_FALSE(result.fault.degraded);

  ASSERT_EQ(result.cells.size(), lab.thread_result.cells.size());
  const RegressionReport& poisoned = result.cells[1];
  ASSERT_EQ(poisoned.records.size(), 1u);
  EXPECT_EQ(poisoned.records[0].test_id, exec::kPoisonedCellOutcome);
  EXPECT_FALSE(poisoned.records[0].build_ok);
  EXPECT_NE(poisoned.records[0].detail.find("quarantined"),
            std::string::npos);
  EXPECT_FALSE(poisoned.all_passed());
  // The quarantine is surgical: the healthy cells are untouched.
  for (const std::size_t i : {std::size_t{0}, std::size_t{2},
                              std::size_t{3}}) {
    EXPECT_EQ(result.cells[i].outcome_digest(),
              lab.thread_result.cells[i].outcome_digest())
        << "cell " << i;
  }
}

TEST(FaultTolerance, AllWorkersDeadDegradesToTheThreadBackend) {
  ChaosLab lab;
  // Every incarnation dies on its first request and there is no respawn
  // budget: the orchestrator must finish the lap in-process rather than
  // fail it, and must say so.
  MatrixResult result = lab.run("*:crash@1", /*max_respawns=*/0);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  EXPECT_TRUE(result.fault.degraded);
  EXPECT_EQ(result.fault.quarantined_cells, 0u);
  EXPECT_GE(result.fault.retries, 2u);
  EXPECT_EQ(rollup_to_json(result), rollup_to_json(lab.thread_result));
}

TEST(FaultTolerance, ABatchSplitsBeforeAnyCellIsCondemned) {
  // Warm the cost model so the next lap packs all four tiny cells into a
  // single multi-cell batch, then poison one cell inside that batch: the
  // batch must split into singles so only the bad cell is quarantined.
  ScratchDir cache("chaos_batch");
  const auto run_once = [&](std::size_t batch_threshold_ms,
                            const std::string& fault_plan) {
    SessionConfig config;
    config.backend = ExecBackendKind::Process;
    config.shards = 2;
    config.worker_exe = ADVM_CLI_PATH;
    config.cache_dir = cache.path();
    config.batch_threshold_ms = batch_threshold_ms;
    config.fault_plan = fault_plan;
    config.max_respawns = 5;
    Session session(std::move(config));
    EXPECT_TRUE(build_small_system(session).status.ok());
    return session.run(small_cube());
  };

  MatrixResult cold = run_once(SessionConfig::kAutoBatchThreshold, "");
  ASSERT_TRUE(cold.status.ok()) << cold.status.message;

  MatrixResult split = run_once(1'000'000, "*:crash@cell=2");
  ASSERT_TRUE(split.status.ok()) << split.status.message;
  EXPECT_EQ(split.fault.quarantined_cells, 1u);
  // The multi-cell batch was requeued whole at least once before the
  // split — more cells requeued than the lone poisoned cell explains.
  EXPECT_GT(split.fault.requeued_cells, split.cells.size());
  ASSERT_EQ(split.cells.size(), cold.cells.size());
  for (std::size_t i = 0; i < split.cells.size(); ++i) {
    if (i == 2) {
      ASSERT_EQ(split.cells[i].records.size(), 1u);
      EXPECT_EQ(split.cells[i].records[0].test_id,
                exec::kPoisonedCellOutcome);
      continue;
    }
    EXPECT_EQ(split.cells[i].outcome_digest(),
              cold.cells[i].outcome_digest())
        << "cell " << i;
  }
}

TEST(FaultTolerance, CrashLapKeepsTheMatrixJsonContract) {
  // The chaos counters ride the same document the CI gates diff; pin the
  // process-only fields so a rename cannot slip through the gates.
  ChaosLab lab;
  MatrixResult result = lab.run("0:crash@1", /*max_respawns=*/1);
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  const std::string json = to_json(result);
  for (const char* needle :
       {"\"fault\":{\"retries\":", "\"requeued_cells\":", "\"respawns\":",
        "\"quarantined_cells\":", "\"degraded\":false",
        "\"request_timeout_ms\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  // Thread documents carry no fault block — goldens must not churn.
  const std::string thread_json =
      to_json(lab.thread_result);
  EXPECT_EQ(thread_json.find("\"fault\""), std::string::npos);
  EXPECT_EQ(thread_json.find("request_timeout_ms"), std::string::npos);
}

}  // namespace
