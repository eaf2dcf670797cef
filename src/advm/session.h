// advm::Session — the one abstraction layer over the toolchain itself.
//
// The paper's point is that a single abstraction layer serves every
// derivative and every change scenario; the toolchain deserves the same
// treatment. A Session owns the resources every operation needs — the
// VirtualFileSystem the environments live in, the derivative registry, the
// shared content-addressed ObjectCache, the soc::Board pool and the
// worker-pool policy — and exposes one typed request/result pair per verb:
//
//   BuildRequest   → BuildResult     generate a system environment (init)
//   RunRequest     → RunResult       regression on one (derivative, platform)
//   MatrixRequest  → MatrixResult    derivative × platform cube + roll-up
//   PortRequest    → PortResult      retarget the tree in place
//   CheckRequest   → CheckResult     abstraction-violation report
//   LintRequest    → LintResult      binary-level dataflow analysis (lint)
//   ReleaseRequest → ReleaseResult   frozen snapshot + verify + regression
//   RandomRequest  → RandomResult    randomized Globals.inc regeneration
//
// Callers construct a request struct and call `session.run(request)`;
// validation (unknown derivative/platform, bad root) comes back as a typed
// Status instead of subsystem wiring errors. Every operation in one process
// shares one cache and one board pool *by construction* — a process-backend
// worker is just a Session fed the cells of serve requests.
//
// Every result serializes to stable JSON through src/advm/report.h, which
// is what `advm --format json` prints for machine consumers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "advm/boardpool.h"
#include "advm/context.h"
#include "advm/environment.h"
#include "advm/exec/costmodel.h"
#include "advm/lint/lint.h"
#include "advm/objcache.h"
#include "advm/porting.h"
#include "advm/regression.h"
#include "advm/release.h"
#include "advm/violations.h"
#include "support/vfs.h"

namespace advm::core {

/// Outcome of request validation/execution. `code` is a stable
/// machine-readable identifier ("advm.unknown-derivative", ...); empty
/// means success. `message` is the human-readable diagnostic.
struct Status {
  std::string code;
  std::string message;

  [[nodiscard]] bool ok() const { return code.empty(); }
  [[nodiscard]] static Status error(std::string code, std::string message) {
    Status s;
    s.code = std::move(code);
    s.message = std::move(message);
    return s;
  }
};

// --------------------------------------------------------------- requests --

/// `init`: generate a complete system verification environment in the
/// session VFS. An empty `environments` list builds the canonical
/// five-module system with `tests_per_module` tests each.
struct BuildRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
  std::size_t tests_per_module = 5;
  std::vector<EnvironmentConfig> environments;
  GlobalsOptions globals;
  BaseFunctionsOptions base_functions;
};

struct BuildResult {
  Status status;
  std::string derivative;  ///< resolved spec name
  SystemLayout layout;
  std::size_t files = 0;  ///< files in the generated tree
  std::size_t tests = 0;  ///< test cells across all environments
};

/// `run`: full regression of the tree under `root` on one
/// (derivative, platform) pair.
struct RunRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
  std::string platform = "golden-model";
  std::uint64_t max_instructions = 2'000'000;
};

struct RunResult {
  Status status;
  RegressionReport report;
};

/// `matrix`: the derivative × platform cube over one tree — every test
/// assembles once, every cell links against the shared cache.
struct MatrixRequest {
  std::string root = "/SYS";
  std::vector<std::string> derivatives = {"SC88-A"};
  std::vector<std::string> platforms = {"golden-model"};
  std::uint64_t max_instructions = 2'000'000;
};

/// Per-worker dispatch counters of a pooled process-backend matrix run
/// (mirrors exec::WorkerDispatchStats without pulling exec headers into
/// the request surface).
struct MatrixWorkerStats {
  std::size_t worker = 0;
  std::size_t requests = 0;  ///< serve Run round trips this worker served
  std::size_t cells = 0;     ///< cells executed across those requests
};

/// How the process backend's dispatch queue was seeded (mirrors
/// exec::CostModelStats): "measured" when the persistent cost model had
/// a wall-clock estimate for every cell, "estimate" on the cold
/// test-count fallback. `recorded` counts the observations this run
/// persisted for the next lap.
struct MatrixCostModelStats {
  std::string source = "estimate";
  std::size_t seeded_cells = 0;
  std::size_t recorded = 0;
};

/// Fault-tolerance counters of a pooled process-backend matrix run
/// (mirrors exec::FaultStats). All zero / false when nothing died.
struct MatrixFaultStats {
  std::size_t retries = 0;           ///< requeued request groups
  std::size_t requeued_cells = 0;    ///< cells across those groups
  std::size_t respawns = 0;          ///< dead worker slots refilled
  std::size_t quarantined_cells = 0; ///< advm.exec-cell-poisoned outcomes
  bool degraded = false;  ///< remainder ran in-process (all workers died)
};

struct MatrixResult {
  Status status;
  std::vector<RegressionReport> cells;  ///< derivative-major order
  std::string backend = "thread";  ///< execution backend that ran the cube
  /// Worker shards the plan allowed: min(requested shards, cells). The
  /// process backend spawns at most this many workers; the thread backend
  /// reports it but runs the cube in-process.
  std::size_t shards = 1;
  /// Pooled process backend only: per-worker dispatch counters (empty on
  /// the thread backend), the effective per-worker pool size after the
  /// session's --jobs budget is divided across live workers, the
  /// cost-model seed/feedback counters, and how many Run requests
  /// carried more than one (tiny) cell.
  std::vector<MatrixWorkerStats> workers;
  std::size_t jobs_per_worker = 0;
  MatrixCostModelStats cost_model;
  std::size_t batched_requests = 0;
  MatrixFaultStats fault;
  std::size_t request_timeout_ms = 0;  ///< effective per-request deadline

  [[nodiscard]] bool all_passed() const;
  /// Requests served beyond each worker's first — the spawn-amortization
  /// the persistent pool exists for. 0 means every worker served a single
  /// request.
  [[nodiscard]] std::size_t worker_reuse() const;
};

/// `port`: retarget the tree in place to another derivative (abstraction
/// layer regenerates; ADVM test layers stay untouched).
struct PortRequest {
  std::string root = "/SYS";
  std::string to;
  GlobalsOptions globals;
  BaseFunctionsOptions base_functions;
};

struct PortResult {
  Status status;
  std::string target;
  RepairReport repair;
};

/// `check`: abstraction-violation report for the tree under `root`.
struct CheckRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
};

struct CheckResult {
  Status status;
  ViolationReport report;
};

/// `lint`: binary-level dataflow analysis of every test cell under
/// `root` — each cell is assembled and linked exactly like a check run,
/// then the linked image's CFG is analyzed (see advm/lint/analyses.h).
struct LintRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
};

struct LintResult {
  Status status;
  LintReport report;
};

/// `release`: freeze the tree as a content-hashed snapshot (the paper's
/// §3 label), verify it, and optionally regress the frozen copy.
struct ReleaseRequest {
  std::string root = "/SYS";
  std::string name = "R1";
  std::string derivative = "SC88-A";
  std::string platform = "golden-model";
  bool regress = true;  ///< run the frozen regression after snapshotting
  std::uint64_t max_instructions = 2'000'000;
};

struct ReleaseResult {
  Status status;
  SystemRelease release;
  bool verified = false;
  std::optional<RegressionReport> frozen;
};

/// `random`: regenerate every ADVM environment's Globals.inc from a
/// seeded constraint randomization (corner-case focus, paper §4).
struct RandomRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
  std::uint64_t seed = 1;
};

struct RandomResult {
  Status status;
  std::uint64_t seed = 0;  ///< the seed the assignment was drawn from
  std::size_t regenerated = 0;  ///< Globals.inc instances rewritten
  std::map<std::string, std::int64_t> values;  ///< randomized defines
};

// ---------------------------------------------------------------- session --

/// How matrix/run work is executed (src/advm/exec/backend.h): on a worker
/// pool inside this process, or sharded across `advm worker` subprocesses.
enum class ExecBackendKind : std::uint8_t { Thread, Process };

[[nodiscard]] const char* to_string(ExecBackendKind kind);

struct SessionConfig {
  /// Worker-pool size for every operation: 1 = serial, 0 = one worker per
  /// hardware thread. Values above kMaxJobs fail request validation.
  std::size_t jobs = 1;
  /// Worker shards for matrix execution. Must be ≥ 1 (0 fails request
  /// validation — a degenerate shard count must not silently serialise).
  /// The thread backend runs the cube in-process; the process backend
  /// spawns up to min(shards, cells) pooled workers.
  std::size_t shards = 1;
  /// Applies to the matrix and run verbs only. Every other verb — init
  /// (corpus generation) included — runs in-process on this session.
  ExecBackendKind backend = ExecBackendKind::Thread;
  /// Object-cache byte budget, spanning the in-memory and persistent
  /// tiers (LRU eviction); 0 = unbounded.
  std::uint64_t cache_max_bytes = 0;
  /// Persistent object-cache directory; empty = in-memory cache only.
  /// Shard workers and consecutive CLI invocations pointed at the same
  /// directory share one cache by construction.
  std::string cache_dir;
  /// Board-pool trim policy: per-shard free boards kept per (derivative ×
  /// platform) key; 0 = unbounded.
  std::size_t board_pool_max_free_per_key = 0;
  /// VFS directory release snapshots land under.
  std::string release_root = "/releases";
  /// Process backend: the `advm` binary to spawn as workers; empty =
  /// this process's own executable (right when the caller *is* advm).
  std::string worker_exe;
  /// Process backend: scratch directory for the exported tree and the
  /// workers' stderr captures; empty = the system temp directory.
  std::string scratch_dir;
  /// Process backend: tiny-cell batching threshold in milliseconds.
  /// Cells the persistent cost model estimates under the threshold are
  /// packed into one multi-cell serve request. kAutoBatchThreshold (the
  /// default) lets the backend pick its default; 0 disables batching.
  std::size_t batch_threshold_ms = kAutoBatchThreshold;
  /// Process backend: per-request response deadline in milliseconds
  /// (`--request-timeout-ms`); 0 waits forever. A worker that misses it
  /// is killed and its cells are requeued on the survivors.
  std::size_t request_timeout_ms = kDefaultRequestTimeoutMs;
  /// Process backend: how many times each dead worker slot may be
  /// replaced with a fresh process (`--max-respawns`); 0 never respawns.
  std::size_t max_respawns = 1;
  /// Process backend: deterministic fault-injection plan (hidden
  /// `--fault-plan` / ADVM_FAULT_PLAN; see exec::FaultClause for the
  /// clause grammar). Empty in production; validated as advm.bad-fault-plan.
  std::string fault_plan;

  /// Upper bounds request validation enforces (guards against a typo'd
  /// --jobs/--shards silently fanning out the whole machine).
  static constexpr std::size_t kMaxJobs = 1'000'000;
  static constexpr std::size_t kMaxShards = 4096;
  /// Sentinel for batch_threshold_ms: backend-chosen default.
  static constexpr std::size_t kAutoBatchThreshold =
      static_cast<std::size_t>(-1);
  static constexpr std::size_t kDefaultRequestTimeoutMs = 600'000;
  /// 24 hours — anything beyond this is a typo'd --request-timeout-ms,
  /// not a deadline (advm.bad-timeout).
  static constexpr std::size_t kMaxRequestTimeoutMs = 86'400'000;

  /// Pool-size/shard-count sanity, applied by every verb that fans work
  /// out: a degenerate value fails as a typed Status, never silently
  /// serialises (shards = 0) or fans out across the machine (absurd jobs).
  [[nodiscard]] Status validate() const;
};

class Session {
 public:
  explicit Session(SessionConfig config = {})
      : config_(std::move(config)),
        cache_(config_.cache_max_bytes, config_.cache_dir),
        boards_(config_.board_pool_max_free_per_key),
        cost_model_(config_.cache_dir) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] support::VirtualFileSystem& vfs() { return vfs_; }
  [[nodiscard]] const support::VirtualFileSystem& vfs() const { return vfs_; }
  [[nodiscard]] ObjectCache& cache() { return cache_; }
  [[nodiscard]] BoardPool& boards() { return boards_; }

  /// The session-resident per-cell cost model (loaded lazily from
  /// `cache_dir` on first use, internally locked). Every process-backend
  /// matrix lap this session runs seeds dispatch from it and feeds
  /// measurements back — so a resident session (the serve daemon) keeps
  /// its history warm across laps in memory, not just via the record
  /// file. Disabled (no estimates, publish a no-op) when the session has
  /// no cache_dir, like the persistent object store.
  [[nodiscard]] exec::CostModel& cost_model();

  /// Non-owning view of the shared resources, for constructing subsystems
  /// directly when a flow outgrows the request verbs.
  [[nodiscard]] SessionContext context() {
    return SessionContext{vfs_, cache_, boards_, config_.jobs};
  }

  [[nodiscard]] BuildResult run(const BuildRequest& request);
  [[nodiscard]] RunResult run(const RunRequest& request);
  [[nodiscard]] MatrixResult run(const MatrixRequest& request);
  [[nodiscard]] PortResult run(const PortRequest& request);
  [[nodiscard]] CheckResult run(const CheckRequest& request);
  [[nodiscard]] LintResult run(const LintRequest& request);
  [[nodiscard]] ReleaseResult run(const ReleaseRequest& request);
  [[nodiscard]] RandomResult run(const RandomRequest& request);

 private:
  /// Shared matrix execution path: plans the cube, selects the configured
  /// ExecutionBackend, and runs the plan (used by both the matrix verb and
  /// a process-backend `run`). Requests reaching here are validated.
  [[nodiscard]] MatrixResult run_matrix_on_backend(
      const MatrixRequest& request);

  SessionConfig config_;
  support::VirtualFileSystem vfs_;
  ObjectCache cache_;
  BoardPool boards_;
  exec::CostModel cost_model_;
  std::once_flag cost_model_loaded_;
};

/// Reconstructs a SystemLayout from a tree in the VFS (directory-driven,
/// like regression discovery): every subdirectory of `root` except the
/// global libraries is an environment; an Abstraction_Layer/ marks ADVM
/// style. Exposed for callers that assemble their own flows.
[[nodiscard]] SystemLayout layout_from_tree(
    const support::VirtualFileSystem& vfs, std::string_view root);

}  // namespace advm::core
