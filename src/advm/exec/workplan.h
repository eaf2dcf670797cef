// Execution planning — the "what" of a matrix run, split from the "how".
//
// The planner here is the enumeration half factored out of the regression
// runner (the derivative × platform cube regression.cpp used to build
// inline). It produces a typed MatrixPlan: the full cell list in
// deterministic order plus the number of worker shards the process backend
// may spawn for it.
//
// An ExecutionBackend (backend.h) consumes the plan. The thread backend
// runs the whole cube in-process; the process backend hands cells to a
// pool of `advm worker --serve` subprocesses over the serve protocol below
// and folds their reports back in plan order. Because every cell records
// its index in the full plan, merged results are positioned — never
// appended — so aggregation is deterministic for any shard count by
// construction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "advm/session.h"

namespace advm::core::exec {

/// One (derivative, platform) cell of a matrix cube, by name (names, not
/// resolved spec pointers, so a cell serializes and crosses a process
/// boundary). `index` is its position in the derivative-major cube.
struct PlannedCell {
  std::size_t index = 0;
  std::string derivative;
  std::string platform;
};

/// The derivative × platform cube of a MatrixRequest plus the worker
/// shard count it may use.
struct MatrixPlan {
  std::string root;
  std::uint64_t max_instructions = 2'000'000;
  std::vector<PlannedCell> cells;  ///< derivative-major, index order
  std::size_t shards = 0;          ///< min(requested shards, cells)
};

/// Builds the matrix plan for a validated request. `shards` below 1 counts
/// as 1; the plan never asks for more shards than it has cells, so an
/// empty cube plans 0.
[[nodiscard]] MatrixPlan plan_matrix(const MatrixRequest& request,
                                     std::size_t shards);

// ------------------------------------------------- worker serve protocol --

/// One request line of the `advm worker --serve` protocol: the
/// orchestrator writes a single-line JSON request on the worker's stdin
/// and reads a single-line JSON response from its stdout.
///
///   Init     — construct the worker's Session (jobs, cache) and import
///              the exported tree; sent once per worker, before any Run.
///   Run      — execute the listed cells on the resident Session and
///              answer with one {"ok":true,...,"cells":[...]} shard
///              document.
///   Shutdown — acknowledge and exit 0 (closing the worker's stdin is an
///              equivalent, acknowledged-by-exit shutdown).
struct ServeRequest {
  enum class Kind : std::uint8_t { Init, Run, Shutdown };
  Kind kind = Kind::Run;
  // Init payload.
  std::string tree_dir;
  std::size_t jobs = 1;
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;
  std::string fault_plan;  ///< worker-local fault actions; "" = none
  // Run payload.
  std::uint64_t max_instructions = 2'000'000;
  std::vector<PlannedCell> cells;
};

/// Single-line JSON rendering of a serve request (the wire format — never
/// contains a raw newline).
[[nodiscard]] std::string to_json(const ServeRequest& request);

/// Parses one request line. nullopt (with a diagnostic in `error` when
/// non-null) on malformed JSON, unknown commands, or a Run without cells.
[[nodiscard]] std::optional<ServeRequest> parse_serve_request(
    std::string_view text, std::string* error = nullptr);

// --------------------------------------------------------- fault injection --

/// One clause of a deterministic fault plan (hidden `--fault-plan` /
/// `ADVM_FAULT_PLAN`). The full plan is `;`-separated clauses of the form
///
///   <worker|*>:<action>@<trigger>
///
/// where `action` is one of crash (die before replying), wedge (sleep past
/// any request deadline before replying), garbage (answer a non-JSON line),
/// or exit (clean _Exit with a non-zero code before replying), and
/// `trigger` is either `N` (the Nth Run request the worker serves, 1-based,
/// first incarnation of the slot only) or `cell=I` (any Run request that
/// contains planned cell index I — re-armed across respawns, which is what
/// makes a cell *poisoned* rather than merely unlucky).
struct FaultClause {
  enum class Action : std::uint8_t { Crash, Wedge, Garbage, Exit };
  static constexpr std::size_t kAnyWorker = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNoCell = static_cast<std::size_t>(-1);
  std::size_t worker = kAnyWorker;  ///< slot index, or kAnyWorker for '*'
  Action action = Action::Crash;
  std::size_t request = 0;    ///< 1-based Run count trigger; 0 when cell-based
  std::size_t cell = kNoCell; ///< planned-index trigger, or kNoCell
};

[[nodiscard]] std::string_view to_string(FaultClause::Action action);

/// Parses a full orchestrator-side fault plan. nullopt (with a diagnostic
/// in `error` when non-null) on malformed clauses. An empty/blank plan
/// parses to an empty vector.
[[nodiscard]] std::optional<std::vector<FaultClause>> parse_fault_plan(
    std::string_view text, std::string* error = nullptr);

/// Renders the subset of `plan` addressed to worker slot `worker` as the
/// comma-separated `action@trigger` list carried by an Init request.
/// Request-count clauses target the slot's first incarnation only, so they
/// are dropped when `first_incarnation` is false; cell clauses are re-sent
/// to respawned workers (a poisoned cell must keep killing its hosts).
[[nodiscard]] std::string fault_plan_for_worker(
    const std::vector<FaultClause>& plan, std::size_t worker,
    bool first_incarnation);

/// Parses the worker-side `action@trigger` list from an Init payload.
[[nodiscard]] std::optional<std::vector<FaultClause>>
parse_worker_fault_actions(std::string_view text, std::string* error = nullptr);

}  // namespace advm::core::exec
