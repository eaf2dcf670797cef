// Execution backends — the "how" behind a WorkPlan.
//
// An ExecutionBackend turns a MatrixPlan into per-cell regression reports.
// Two implementations:
//
//  * ThreadBackend — the in-process worker pool the regression runner has
//    always used (chunked parallel_for claiming), now behind the
//    interface. One assembly phase, one shared cache and board pool.
//
//  * ProcessBackend — posix_spawns a pool of long-lived `advm worker
//    --serve` subprocesses (one per plan shard) against an exported copy
//    of the tree, speaks the line-delimited JSON serve protocol over
//    stdin/stdout pipes (src/advm/exec/workerpool.h), and dispatches
//    cells *dynamically*: a shared queue ordered by estimated cost —
//    measured per-cell wall-clock from the persistent cost model
//    (src/advm/exec/costmodel.h) when a previous lap over the same tree
//    recorded one, discovered test-cell counts cold — each worker
//    pulling its next cell when idle, so a heavy cell never serializes
//    a lap behind a bad static deal. Cells the model estimates under
//    the batch threshold are packed into one multi-cell ServeRequest.
//    Each worker is a thin advm::Session resident across
//    requests; pointing every worker at one SessionConfig::cache_dir
//    makes them share the persistent object cache by construction.
//
// The load-bearing invariant both implementations uphold: results land in
// plan (cube) order and every cell's outcome digest is identical across
// backends and shard counts. The process backend guarantees it by
// *positioning* each parsed cell report at its planned index — dispatch
// order and worker completion order never reorder anything; the
// shard-determinism gate in tools/ci.sh holds the two backends
// byte-identical on the roll-up JSON.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "advm/context.h"
#include "advm/exec/workplan.h"
#include "advm/session.h"

namespace advm::core::exec {

class CostModel;  // src/advm/exec/costmodel.h

/// Per-worker dispatch bookkeeping of a pooled process-backend run.
/// `requests` counts the Run round trips the worker served — anything
/// past the first is spawn-amortizing reuse.
struct WorkerDispatchStats {
  std::size_t worker = 0;
  std::size_t requests = 0;
  std::size_t cells = 0;
};

/// How the process backend seeded its dispatch queue and what it fed
/// back into the persistent cost model (src/advm/exec/costmodel.h).
/// `source` is "measured" when every cell had a decay-averaged estimate
/// from a previous lap over the same tree digest, "estimate" on the
/// cold-cache test-count fallback.
struct CostModelStats {
  std::string source = "estimate";
  std::size_t seeded_cells = 0;  ///< cells with a measured estimate
  std::size_t recorded = 0;      ///< observations persisted after the run
};

/// Fault-tolerance bookkeeping of a pooled process-backend run. All zero
/// / false on a lap where nothing died.
struct FaultStats {
  std::size_t retries = 0;           ///< requeued groups (incl. splits)
  std::size_t requeued_cells = 0;    ///< cells across those groups
  std::size_t respawns = 0;          ///< dead slots replaced with a fresh worker
  std::size_t quarantined_cells = 0; ///< cells poisoned after the retry budget
  bool degraded = false;  ///< remainder finished in-process (all workers dead)
};

/// Outcome of executing a plan: per-cell reports in cube order on
/// success, a typed Status (advm.exec-* codes) when orchestration itself
/// failed. Test failures are *not* an execution failure — they come back
/// inside the reports. `workers`/`jobs_per_worker`/`cost_model`/
/// `batched_requests`/`fault` are filled by the process backend only
/// (empty/0 on the thread backend).
struct MatrixExecution {
  Status status;
  std::vector<RegressionReport> cells;
  std::vector<WorkerDispatchStats> workers;
  std::size_t jobs_per_worker = 0;
  CostModelStats cost_model;
  std::size_t batched_requests = 0;  ///< Run requests carrying > 1 cell
  FaultStats fault;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual MatrixExecution run_matrix(const MatrixPlan& plan) = 0;
};

/// In-process execution on the session's shared resources.
class ThreadBackend final : public ExecutionBackend {
 public:
  explicit ThreadBackend(const SessionContext& context) : context_(context) {}
  [[nodiscard]] std::string_view name() const override { return "thread"; }
  [[nodiscard]] MatrixExecution run_matrix(const MatrixPlan& plan) override;

 private:
  SessionContext context_;
};

struct ProcessBackendConfig {
  /// Worker binary. Empty = this process's own executable (/proc/self/exe)
  /// — correct when the caller is the advm CLI itself.
  std::string worker_exe;
  /// Scratch directory for the exported tree and the workers' stderr
  /// captures; empty = a fresh directory under the system temp dir. Always
  /// extended with a unique subdirectory and removed afterwards.
  std::string scratch_dir;
  /// Persistent object-cache directory shared by every worker (and with
  /// the spawning session); empty disables the persistent tier.
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;
  /// Worker-pool size *inside* each worker process. The session divides
  /// its --jobs budget across the live workers (divide_jobs) so
  /// `--shards S --jobs N` never oversubscribes N×S threads.
  std::size_t jobs_per_worker = 1;
  /// Tiny-cell batching threshold in milliseconds: when the cost model
  /// has a measured estimate for every cell, cells estimated under the
  /// threshold are packed (in cost order, up to kMaxBatchCells, closing
  /// a batch once its summed estimate reaches the threshold) into one
  /// multi-cell ServeRequest, so protocol round trips stop dominating
  /// cubes of sub-millisecond cells. kAutoBatchThreshold picks the
  /// default (kDefaultBatchThresholdMs); 0 disables batching. Batching
  /// never happens on a cold cost model — test-count estimates carry no
  /// time unit to compare against the threshold.
  std::size_t batch_threshold_ms = kAutoBatchThreshold;
  /// Per-request deadline handed to WorkerPool::roundtrip (0 = wait
  /// forever). The default is generous — a cell legitimately simulates
  /// millions of instructions — but finite, so a wedged worker surfaces
  /// as a typed advm.exec-worker-timeout instead of hanging the
  /// orchestrator.
  std::size_t request_timeout_ms = 600'000;
  /// How many times a dead worker slot may be replaced with a fresh
  /// process. 0 = never respawn; the lap then runs on the survivors.
  std::size_t max_respawns = 1;
  /// Deterministic fault injection (tests, the ci.sh chaos gate): each
  /// clause is forwarded to its target worker's Init request and fires
  /// inside the worker's serve loop. Empty in production.
  std::vector<FaultClause> fault_plan;
  /// Resident cost model to seed dispatch from and feed measurements
  /// back into (the owner is responsible for load() and thread safety —
  /// Session::cost_model() provides a loaded, internally locked one).
  /// nullptr = construct and load a lap-local model from `cache_dir`,
  /// the pre-daemon behaviour.
  CostModel* cost_model = nullptr;

  static constexpr std::size_t kAutoBatchThreshold =
      static_cast<std::size_t>(-1);
  static constexpr std::size_t kDefaultBatchThresholdMs = 5;
  static constexpr std::size_t kMaxBatchCells = 4;
};

/// Multi-process execution over `advm worker` subprocesses. Reads the tree
/// from the VFS it is constructed over; the VFS must stay alive and
/// unmodified for the duration of run_matrix.
///
/// Fault tolerance: a worker that dies, wedges past the request deadline,
/// or answers garbage only loses its own in-flight request group. The
/// group is requeued (kMaxGroupAttempts attempts; a multi-cell batch that
/// exhausts them is first split back into single-cell groups), the dead
/// slot is optionally respawned (max_respawns), and a single cell that
/// keeps killing workers is quarantined as a typed advm.exec-cell-poisoned
/// per-cell outcome instead of failing the lap. If every slot dies with
/// work remaining and a `degrade` context was provided, the remainder
/// finishes in-process on a ThreadBackend and the run is marked degraded.
class ProcessBackend final : public ExecutionBackend {
 public:
  ProcessBackend(const support::VirtualFileSystem& vfs,
                 ProcessBackendConfig config,
                 std::optional<SessionContext> degrade = std::nullopt)
      : vfs_(vfs), config_(std::move(config)), degrade_(std::move(degrade)) {}
  [[nodiscard]] std::string_view name() const override { return "process"; }
  [[nodiscard]] MatrixExecution run_matrix(const MatrixPlan& plan) override;

 private:
  const support::VirtualFileSystem& vfs_;
  ProcessBackendConfig config_;
  std::optional<SessionContext> degrade_;
};

// --------------------------------------------------------- fault policy --

/// Per-cell outcome test id of a quarantined cell: the cell's report
/// carries one synthetic build-failure record with this id instead of the
/// run that never happened.
inline constexpr std::string_view kPoisonedCellOutcome =
    "advm.exec-cell-poisoned";

/// How many times one request group may take down a worker before the
/// retry budget is exhausted (split if batched, quarantine if single).
inline constexpr std::size_t kMaxGroupAttempts = 2;

/// What happens to a `cells`-cell request group after its `attempts`-th
/// failed attempt. Pure policy, exposed for tests.
enum class GroupFate { Retry, Split, Poison };
[[nodiscard]] GroupFate fate_after_failure(std::size_t cells,
                                           std::size_t attempts);

/// Merges one worker shard-report document
/// ({"ok":true,...,"cells":[{"index":N,"report":{...}}]}) into `cells`,
/// positioning each report at its planned index. `expected` lists the
/// indices dispatched in the request this document answers; an index
/// outside the plan, an index not in `expected` (foreign — another
/// shard's cell), or an index already `filled` (duplicate) is rejected
/// with a typed Status instead of silently overwriting another shard's
/// report. On success every expected index is filled. When `cell_millis`
/// is non-null, each cell's optional measured wall-clock ("micros" in
/// the shard document) lands at its planned index, converted to
/// milliseconds — the feedback the persistent cost model records; cells
/// without the field leave their slot untouched. Exposed for tests.
[[nodiscard]] Status merge_shard_report(
    std::string_view document, const std::vector<std::size_t>& expected,
    std::vector<RegressionReport>& cells, std::vector<bool>& filled,
    std::vector<double>* cell_millis = nullptr);

}  // namespace advm::core::exec
