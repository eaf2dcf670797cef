#include "advm/exec/backend.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <system_error>
#include <thread>
#include <utility>

#include "advm/exec/costmodel.h"
#include "advm/exec/workerpool.h"
#include "advm/regression.h"
#include "advm/report.h"
#include "soc/derivative.h"
#include "support/disk.h"
#include "support/hash.h"
#include "support/json.h"

namespace advm::core::exec {

namespace fs = std::filesystem;

MatrixExecution ThreadBackend::run_matrix(const MatrixPlan& plan) {
  MatrixExecution execution;
  std::vector<MatrixCell> cells;
  cells.reserve(plan.cells.size());
  for (const PlannedCell& cell : plan.cells) {
    const soc::DerivativeSpec* spec = soc::find_derivative(cell.derivative);
    const auto platform = sim::platform_from_name(cell.platform);
    if (spec == nullptr || !platform) {
      execution.status = Status::error(
          "advm.exec-bad-plan", "unresolvable cell '" + cell.derivative +
                                    "' on '" + cell.platform + "'");
      return execution;
    }
    cells.push_back({spec, *platform});
  }
  RegressionRunner runner(context_);
  execution.cells =
      runner.run_matrix(plan.root, cells, plan.max_instructions);
  return execution;
}

namespace {

/// Path of the running executable — the default worker binary when the
/// orchestrator is the advm CLI itself.
std::string self_exe_path() {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return {};
  return self.string();
}

/// A fresh scratch directory under `base` (system temp dir when empty),
/// unique per process and per call.
std::string make_scratch_dir(const std::string& base, std::error_code& ec) {
  static std::atomic<std::uint64_t> counter{0};
  const fs::path parent =
      base.empty() ? fs::temp_directory_path(ec) : fs::path(base);
  if (ec) return {};
  const fs::path dir =
      parent / ("advm-exec-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir, ec);
  return ec ? std::string() : dir.string();
}

/// RAII scratch-dir cleanup (keeps the tree on ADVM_EXEC_KEEP_SCRATCH=1
/// for debugging a failed shard).
struct ScratchGuard {
  std::string dir;
  ~ScratchGuard() {
    if (dir.empty()) return;
    const char* keep = std::getenv("ADVM_EXEC_KEEP_SCRATCH");
    if (keep != nullptr && keep[0] == '1') return;
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// Parses a worker response and checks {"ok":true}: the shared decoder
/// for serve acks and shard reports. On success `doc` carries the parsed
/// document; on an error document its message is folded into the Status.
Status decode_worker_document(std::string_view document,
                              std::optional<support::json::Value>& doc) {
  std::string parse_error;
  doc = support::json::parse(document, &parse_error);
  const auto* ok = doc ? doc->find("ok") : nullptr;
  if (!doc || !ok) {
    return Status::error("advm.exec-worker-failed",
                         "unparsable shard report (" + parse_error + ")");
  }
  if (ok->as_bool() != std::optional<bool>(true)) {
    const auto* error = doc->find("error");
    const auto* message = error ? error->find("message") : nullptr;
    const auto text = message ? message->as_string() : std::nullopt;
    return Status::error("advm.exec-worker-failed",
                         "worker reported failure" +
                             (text ? ": " + *text : std::string()));
  }
  return {};
}

/// Checks a serve-protocol response for {"ok":true}, naming the worker
/// in the diagnostic.
Status check_serve_ack(std::size_t worker, std::string_view response) {
  std::optional<support::json::Value> doc;
  if (Status status = decode_worker_document(response, doc);
      !status.ok()) {
    return Status::error(status.code, "serve worker " +
                                          std::to_string(worker) + ": " +
                                          status.message);
  }
  return {};
}

/// True when a worker answered a well-formed {"ok":false} error document:
/// the *request* failed but the worker itself is sane — no reason to kill
/// and respawn it, the requeued group just lands on the next idle worker.
bool is_clean_error_document(std::string_view response) {
  const auto doc = support::json::parse(response, nullptr);
  const auto* ok = doc ? doc->find("ok") : nullptr;
  return ok != nullptr && ok->as_bool() == std::optional<bool>(false);
}

/// The synthetic report a quarantined cell contributes to the roll-up: one
/// build-failure record whose test id is the typed poisoned-cell outcome.
/// The outcome digest hashes (test id, verdict, state digest) only, so the
/// roll-up stays deterministic even though `detail` names whichever worker
/// died last.
RegressionReport poisoned_cell_report(const PlannedCell& cell,
                                      const Status& cause) {
  RegressionReport report;
  report.derivative = cell.derivative;
  if (const auto platform = sim::platform_from_name(cell.platform)) {
    report.platform = *platform;
  }
  TestRunRecord record;
  record.environment = "EXEC";
  record.test_id = std::string(kPoisonedCellOutcome);
  record.build_ok = false;
  record.detail = "cell quarantined after killing " +
                  std::to_string(kMaxGroupAttempts) + " workers; last: " +
                  cause.message;
  report.records.push_back(std::move(record));
  return report;
}

/// One dispatchable unit: a request group (planned cell indices) plus how
/// many attempts have already failed.
struct DispatchGroup {
  std::vector<std::size_t> cells;
  std::size_t attempts = 0;
};

}  // namespace

GroupFate fate_after_failure(std::size_t cells, std::size_t attempts) {
  if (attempts < kMaxGroupAttempts) return GroupFate::Retry;
  // Budget exhausted: a batch gets the benefit of the doubt — maybe only
  // one of its cells is the killer — and is split into single-cell groups
  // with a fresh budget each. A single cell is the killer by elimination.
  return cells > 1 ? GroupFate::Split : GroupFate::Poison;
}

Status merge_shard_report(std::string_view document,
                          const std::vector<std::size_t>& expected,
                          std::vector<RegressionReport>& cells,
                          std::vector<bool>& filled,
                          std::vector<double>* cell_millis) {
  const auto reject = [](std::string detail) {
    return Status::error("advm.exec-worker-failed", std::move(detail));
  };
  std::optional<support::json::Value> doc;
  if (Status status = decode_worker_document(document, doc); !status.ok()) {
    return status;
  }
  const auto* items = doc->find("cells");
  if (items == nullptr || !items->is_array()) {
    return reject("shard report has no cells array");
  }
  std::size_t merged = 0;
  for (const auto& item : items->items) {
    const auto* index = item.find("index");
    const auto* report = item.find("report");
    const auto index_value = index ? index->as_uint64() : std::nullopt;
    auto parsed = report ? report_from_json(*report) : std::nullopt;
    if (!index_value || !parsed) {
      return reject("malformed cell in shard report");
    }
    const std::size_t cell_index = static_cast<std::size_t>(*index_value);
    if (cell_index >= cells.size()) {
      return reject("cell index " + std::to_string(cell_index) +
                    " outside the plan");
    }
    if (std::find(expected.begin(), expected.end(), cell_index) ==
        expected.end()) {
      return reject("cell index " + std::to_string(cell_index) +
                    " was not assigned to this shard");
    }
    if (filled[cell_index]) {
      return reject("duplicate report for cell " +
                    std::to_string(cell_index));
    }
    // Deterministic merge: the planned index positions the report; the
    // order workers finish in is irrelevant.
    cells[cell_index] = std::move(*parsed);
    filled[cell_index] = true;
    if (cell_millis != nullptr && cell_index < cell_millis->size()) {
      const auto* micros = item.find("micros");
      if (const auto value = micros ? micros->as_uint64() : std::nullopt) {
        (*cell_millis)[cell_index] = static_cast<double>(*value) / 1000.0;
      }
    }
    ++merged;
  }
  if (merged != expected.size()) {
    return reject("shard reported " + std::to_string(merged) + " of " +
                  std::to_string(expected.size()) + " assigned cells");
  }
  return {};
}

MatrixExecution ProcessBackend::run_matrix(const MatrixPlan& plan) {
  MatrixExecution execution;

  const std::string exe =
      config_.worker_exe.empty() ? self_exe_path() : config_.worker_exe;
  if (exe.empty() || !fs::exists(exe)) {
    execution.status = Status::error(
        "advm.exec-spawn-failed",
        "worker executable not found: " + (exe.empty() ? "<none>" : exe));
    return execution;
  }
  if (plan.cells.empty() || plan.shards == 0) {
    execution.status =
        Status::error("advm.exec-bad-plan", "matrix plan has no cells");
    return execution;
  }

  std::error_code ec;
  ScratchGuard scratch{make_scratch_dir(config_.scratch_dir, ec)};
  if (ec || scratch.dir.empty()) {
    execution.status = Status::error("advm.exec-spawn-failed",
                                     "cannot create scratch directory: " +
                                         ec.message());
    return execution;
  }

  // One export serves every worker: the tree is read-only to them.
  const std::string tree_dir = scratch.dir + "/tree";
  try {
    support::export_to_disk(vfs_, plan.root, tree_dir);
  } catch (const std::exception& e) {
    execution.status =
        Status::error("advm.exec-spawn-failed",
                      std::string("cannot export tree: ") + e.what());
    return execution;
  }

  // Dispatch queue, ordered by estimated cost (descending, ties broken
  // by planned index so dispatch order is deterministic). When the
  // persistent cost model has a measured wall-clock estimate for every
  // cell — a previous lap over the same tree digest recorded one — the
  // measured estimates seed the order. Cold, the fallback is the tree's
  // discovered test-cell count, which ties across cells of one tree and
  // degenerates to plan order.
  const std::string tree_digest =
      support::hash_to_string(support::hash_tree(vfs_, plan.root));
  // A resident model (the serve daemon's warm Session) is shared across
  // laps — already loaded, internally locked, and accumulating history
  // in memory so the second attached lap seeds "measured" even before
  // any publish hits disk. Without one, the lap loads its own.
  CostModel local_model(config_.cache_dir);
  CostModel& model =
      config_.cost_model != nullptr ? *config_.cost_model : local_model;
  if (config_.cost_model == nullptr) model.load();
  std::vector<double> estimate_ms(plan.cells.size(), -1.0);
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    if (const auto est = model.estimate(plan.cells[i].derivative,
                                        plan.cells[i].platform,
                                        tree_digest)) {
      estimate_ms[i] = *est;
      execution.cost_model.seeded_cells += 1;
    }
  }
  const bool measured =
      execution.cost_model.seeded_cells == plan.cells.size();
  execution.cost_model.source = measured ? "measured" : "estimate";
  std::vector<double> cost(plan.cells.size(), 0);
  if (measured) {
    cost = estimate_ms;
  } else {
    double tests = 0;
    for (const std::string& env : discover_environments(vfs_, plan.root)) {
      tests += static_cast<double>(discover_tests(vfs_, env).size());
    }
    for (double& c : cost) c = tests;
  }
  std::vector<std::size_t> order(plan.cells.size());
  std::iota(order.begin(), order.end(), 0);
  if (std::adjacent_find(cost.begin(), cost.end(),
                         std::not_equal_to<>()) != cost.end()) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost[a] > cost[b];
                     });
  }

  // Request groups, in dispatch order. Default: one cell per Run round
  // trip. With a fully-measured model, cells estimated under the batch
  // threshold are tiny — the protocol round trip rivals the work — so
  // consecutive tiny cells pack into one multi-cell request, closing a
  // batch once its summed estimate reaches the threshold or
  // kMaxBatchCells. Cost order puts the tiny cells at the queue's tail,
  // after the heavy cells that set the critical path.
  const double threshold =
      config_.batch_threshold_ms ==
              ProcessBackendConfig::kAutoBatchThreshold
          ? static_cast<double>(
                ProcessBackendConfig::kDefaultBatchThresholdMs)
          : static_cast<double>(config_.batch_threshold_ms);
  std::vector<std::vector<std::size_t>> groups;
  groups.reserve(order.size());
  for (std::size_t at = 0; at < order.size();) {
    std::vector<std::size_t> group{order[at++]};
    if (measured && threshold > 0 && estimate_ms[group[0]] < threshold) {
      double sum = estimate_ms[group[0]];
      while (at < order.size() &&
             group.size() < ProcessBackendConfig::kMaxBatchCells &&
             sum < threshold && estimate_ms[order[at]] < threshold) {
        sum += estimate_ms[order[at]];
        group.push_back(order[at++]);
      }
    }
    groups.push_back(std::move(group));
  }

  // One resident worker per plan shard, but never more workers than
  // request groups — the seeded first deal below must cover every live
  // worker with at least one request.
  const std::size_t worker_count = std::min(plan.shards, groups.size());
  WorkerPool pool;
  if (Status status = pool.spawn(exe, scratch.dir, worker_count);
      !status.ok()) {
    execution.status = std::move(status);
    return execution;
  }
  pool.set_request_timeout_ms(config_.request_timeout_ms);

  ServeRequest init;
  init.kind = ServeRequest::Kind::Init;
  init.tree_dir = tree_dir;
  init.jobs = config_.jobs_per_worker;
  init.cache_dir = config_.cache_dir;
  init.cache_max_bytes = config_.cache_max_bytes;
  const auto init_line_for = [&](std::size_t w, bool first_incarnation) {
    ServeRequest request = init;
    request.fault_plan =
        fault_plan_for_worker(config_.fault_plan, w, first_incarnation);
    return to_json(request);
  };

  execution.cells.resize(plan.cells.size());
  execution.jobs_per_worker = config_.jobs_per_worker;
  execution.workers.resize(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    execution.workers[i].worker = i;
  }
  std::vector<bool> filled(plan.cells.size(), false);
  std::vector<double> measured_ms(plan.cells.size(), -1.0);

  // Dynamic, fault-tolerant dispatch. Worker w is seeded with the w-th
  // request group in cost order (guaranteeing every live worker serves at
  // least one request); the remaining groups sit in a shared requeueing
  // queue each driver pulls from when idle. A group whose worker dies
  // mid-request goes *back* on the queue (bounded by kMaxGroupAttempts,
  // then split/quarantined — fate_after_failure), so one crash loses one
  // round trip, not the lap. `in_flight` counts claimed-but-unresolved
  // groups: the lap is drained when the queue is empty AND nothing is in
  // flight — an empty queue alone proves nothing, a dying worker may be
  // about to put its group back.
  struct DispatchState {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<DispatchGroup> queue;
    std::size_t in_flight = 0;
    std::vector<std::size_t> respawns_used;
    FaultStats stats;
    Status fatal;  ///< orchestrator bug (driver exception), not a worker fault
    bool abort = false;
  } state;
  state.respawns_used.assign(worker_count, 0);
  state.in_flight = worker_count;  // the seeds, claimed before any driver runs
  for (std::size_t g = worker_count; g < groups.size(); ++g) {
    state.queue.push_back({groups[g], 0});
  }

  // Blocks until a group is available or the lap is drained/aborted;
  // false means "no more work for this driver".
  const auto take = [&](DispatchGroup* out) {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.ready.wait(lock, [&] {
      return state.abort || !state.queue.empty() || state.in_flight == 0;
    });
    if (state.abort || state.queue.empty()) return false;
    *out = std::move(state.queue.front());
    state.queue.pop_front();
    state.in_flight += 1;
    return true;
  };

  // Returns an unattempted group (its driver never reached the worker —
  // init failed) to the queue without charging its retry budget.
  const auto release = [&](DispatchGroup group) {
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.queue.push_back(std::move(group));
    state.in_flight -= 1;
    state.ready.notify_all();
  };

  // Applies the retry policy to a group whose attempt just failed:
  // requeue, split into singles, or quarantine the cell with a synthetic
  // poisoned report.
  const auto fail_group = [&](DispatchGroup group, const Status& cause) {
    const std::lock_guard<std::mutex> lock(state.mutex);
    group.attempts += 1;
    switch (fate_after_failure(group.cells.size(), group.attempts)) {
      case GroupFate::Retry:
        state.stats.retries += 1;
        state.stats.requeued_cells += group.cells.size();
        state.queue.push_back(std::move(group));
        break;
      case GroupFate::Split:
        state.stats.retries += 1;
        state.stats.requeued_cells += group.cells.size();
        for (const std::size_t cell : group.cells) {
          state.queue.push_back({{cell}, 0});
        }
        break;
      case GroupFate::Poison: {
        const std::size_t index = group.cells.front();
        execution.cells[index] =
            poisoned_cell_report(plan.cells[index], cause);
        filled[index] = true;
        state.stats.quarantined_cells += 1;
        break;
      }
    }
    state.in_flight -= 1;
    state.ready.notify_all();
  };

  const auto init_worker = [&](std::size_t w, bool first_incarnation) {
    std::string response;
    Status status =
        pool.roundtrip(w, init_line_for(w, first_incarnation), &response);
    if (status.ok()) status = check_serve_ack(w, response);
    return status.ok();
  };

  // Retires a faulted slot and, budget permitting, replaces it with a
  // fresh re-Inited worker. False = the slot is gone for good.
  const auto try_respawn = [&](std::size_t w) {
    pool.retire(w);
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      if (state.respawns_used[w] >= config_.max_respawns) return false;
      state.respawns_used[w] += 1;
    }
    if (!pool.respawn(w).ok()) return false;
    if (!init_worker(w, /*first_incarnation=*/false)) {
      pool.retire(w);
      return false;
    }
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.stats.respawns += 1;
    return true;
  };

  // One driving thread per worker (the work happens in the subprocesses;
  // these threads only shuttle protocol lines): a pooled worker must
  // never wait for a sibling's dispatch loop to finish.
  const auto drive_worker = [&](std::size_t w) {
    DispatchGroup held{groups[w], 0};
    bool has_held = true;
    const bool live = init_worker(w, /*first_incarnation=*/true) ||
                      try_respawn(w);
    if (!live) {
      release(std::move(held));
      return;
    }
    while (true) {
      if (!has_held) {
        if (!take(&held)) return;
        has_held = true;
      }
      ServeRequest run;
      run.kind = ServeRequest::Kind::Run;
      run.max_instructions = plan.max_instructions;
      run.cells.reserve(held.cells.size());
      for (const std::size_t cell_index : held.cells) {
        run.cells.push_back(plan.cells[cell_index]);
      }
      std::string response;
      Status status = pool.roundtrip(w, to_json(run), &response);
      bool worker_suspect = true;
      if (status.ok()) {
        const std::lock_guard<std::mutex> lock(state.mutex);
        Status merged = merge_shard_report(response, held.cells,
                                           execution.cells, filled,
                                           &measured_ms);
        if (merged.ok()) {
          execution.workers[w].requests += 1;
          execution.workers[w].cells += held.cells.size();
          if (held.cells.size() > 1) execution.batched_requests += 1;
          state.in_flight -= 1;
          state.ready.notify_all();
          has_held = false;
          continue;
        }
        status = Status::error(merged.code, "serve worker " +
                                                std::to_string(w) + ": " +
                                                merged.message);
        worker_suspect = !is_clean_error_document(response);
        // Roll back whatever the rejected document managed to fill before
        // the reject fired: the group is retried whole, and a stale fill
        // would turn the retry into a spurious duplicate (merge only ever
        // fills indices in `expected`, so the group bounds the rollback).
        for (const std::size_t cell_index : held.cells) {
          filled[cell_index] = false;
          measured_ms[cell_index] = -1.0;
        }
      }
      fail_group(std::move(held), status);
      has_held = false;
      // A worker that broke the protocol (EOF, timeout, garbage bytes,
      // duplicate/foreign indices) is untrustworthy: kill it and try to
      // refill the slot. A clean error document keeps its worker.
      if (worker_suspect && !try_respawn(w)) return;
    }
  };
  std::vector<std::thread> drivers;
  drivers.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    drivers.emplace_back([&, w] {
      try {
        drive_worker(w);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(state.mutex);
        if (state.fatal.ok()) {
          state.fatal = Status::error("advm.exec-worker-failed",
                                      "serve worker " + std::to_string(w) +
                                          ": " + e.what());
        }
        state.abort = true;
        state.ready.notify_all();
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  // Shutdown diagnostics (a worker slow to tear down gets escalated to
  // SIGKILL, a crash after its last response reaps non-zero) must not
  // discard a complete run: every cell below was already validated and
  // positioned, so the reap status only matters when results are missing
  // — where the dispatch loop has the better diagnostic anyway.
  (void)pool.shutdown();
  if (!state.fatal.ok()) {
    execution.status = std::move(state.fatal);
    execution.cells.clear();
    return execution;
  }

  // Cells still unfilled here mean every worker slot died with work
  // remaining (any surviving driver would have drained the queue). With a
  // degrade context the lap still completes: the remainder runs
  // in-process on a ThreadBackend and the report says so. Quarantined
  // cells are NOT retried in-process — a cell that killed
  // kMaxGroupAttempts isolated workers would take the orchestrator down
  // with it.
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < filled.size(); ++i) {
    if (!filled[i]) missing.push_back(i);
  }
  if (!missing.empty()) {
    if (!degrade_) {
      execution.status = Status::error(
          "advm.exec-worker-failed",
          "every serve worker died; " + std::to_string(missing.size()) +
              " cell(s) unfinished, first: " + std::to_string(missing[0]) +
              " (" + plan.cells[missing[0]].derivative + " on " +
              plan.cells[missing[0]].platform + ")");
      execution.cells.clear();
      return execution;
    }
    MatrixPlan remainder;
    remainder.root = plan.root;
    remainder.max_instructions = plan.max_instructions;
    for (const std::size_t i : missing) {
      remainder.cells.push_back(plan.cells[i]);
    }
    ThreadBackend fallback(*degrade_);
    MatrixExecution recovered = fallback.run_matrix(remainder);
    if (!recovered.status.ok()) {
      execution.status = std::move(recovered.status);
      execution.cells.clear();
      return execution;
    }
    for (std::size_t j = 0; j < missing.size(); ++j) {
      execution.cells[missing[j]] = std::move(recovered.cells[j]);
      filled[missing[j]] = true;
    }
    state.stats.degraded = true;
  }
  execution.fault = state.stats;

  // Feedback: a fully-successful run's measured wall-clocks become the
  // next lap's seed order. Partial or failed runs record nothing —
  // their timings are contaminated by the failure.
  for (std::size_t i = 0; i < measured_ms.size(); ++i) {
    if (measured_ms[i] < 0) continue;
    model.record({plan.cells[i].derivative, plan.cells[i].platform,
                  tree_digest, measured_ms[i]});
  }
  execution.cost_model.recorded = model.publish();
  return execution;
}

}  // namespace advm::core::exec
