// E10 — assemble-once/link-per-cell matrix pipeline vs per-cell rebuilds.
//
// The ADVM premise (paper Fig 2, §2) is that test-layer sources are
// target-neutral: only the link bases and the board differ per derivative.
// The regression matrix therefore needs each translation unit assembled
// once per *process*, not once per *cell*. This harness grows a derivative
// × platform cube over a fixed 48-test system and reports, per cube size:
// the wall-clock of the per-cell rebuild baseline (each cell pays its own
// assembly, the pre-cache behaviour and what N separate `advm run`
// invocations still cost), the wall-clock of the assemble-once matrix
// pipeline, the speedup, and whether every cell's outcome digest matches
// its baseline run — the determinism gate.
//
// The assembly cost of the cached arm is cell-count-independent: its
// wall-clock grows only with the (cheap) link+run work, which is the whole
// point of the two-phase pipeline.
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "advm/environment.h"
#include "advm/exec/backend.h"
#include "advm/exec/workplan.h"
#include "advm/objcache.h"
#include "advm/regression.h"
#include "advm/session.h"
#include "asm/assembler.h"
#include "bench_util.h"
#include "sim/platform.h"
#include "soc/derivative.h"
#include "support/text.h"
#include "support/vfs.h"

using namespace advm;
using namespace advm::core;

namespace {

// 0 = one worker per hardware thread, for both arms — the comparison is
// about assembly work, not pool size.
constexpr std::size_t kJobs = 0;

// Passing tests retire a few hundred instructions; tests of a derivative
// the tree was never ported to can run away to the cap. Both arms share
// this (generous, ~30× headroom) cap so runaway simulation cannot drown
// the build-cost comparison the harness exists to make.
constexpr std::uint64_t kMaxInstructions = 10'000;

/// Source lines fed to the assembler for one cold build of every
/// translation unit (top-level sources plus every resolved include), for
/// the lines/s throughput metric. Lines of a prelude include served from
/// the include memo still count: a memo hit reports the same include
/// edges as re-lexing would, so "assembler lines/s" keeps its meaning —
/// source lines accounted for per second of a cold build.
std::uint64_t count_assembled_lines(const support::VirtualFileSystem& vfs,
                                    const SystemLayout& layout) {
  std::uint64_t lines = 0;
  ObjectCache cache;
  for (const EnvironmentLayout& env : layout.environments) {
    assembler::AssemblerOptions options;
    if (!env.abstraction_dir.empty()) {
      options.include_dirs.push_back(env.abstraction_dir);
    }
    options.include_dirs.push_back(layout.global_dir);
    for (const TestSpec& test : env.tests) {
      const std::string path = env.dir + "/" + test.id + "/test.asm";
      auto built = cache.assemble(vfs, path, options);
      if (!built.ok()) continue;
      lines += support::count_lines(vfs.read_required(path));
      for (const auto& edge : *built.includes) {
        if (auto content = vfs.read(edge.to_file)) {
          lines += support::count_lines(*content);
        }
      }
    }
  }
  return lines;
}

}  // namespace

int main() {
  bench::banner(
      "E10 — assemble-once/link-per-cell matrix pipeline",
      "48-test ADVM system; derivative × platform cube grows from 1 to 8 "
      "cells.\nBaseline re-assembles per cell; the pipeline assembles each "
      "test exactly once.");

  support::VirtualFileSystem vfs;
  SystemConfig config;
  config.environments = {
      {"PAGE_MODULE", ModuleKind::Register, 15, true},
      {"UART_MODULE", ModuleKind::Uart, 12, true},
      {"NVM_MODULE", ModuleKind::Nvm, 12, true},
      {"TIMER_MODULE", ModuleKind::Timer, 9, true},
  };
  auto layout = build_system(vfs, config, soc::derivative_a());

  // 4 derivatives × 2 platforms, in cube-growth order.
  std::vector<MatrixCell> all_cells;
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    all_cells.push_back({spec, sim::PlatformKind::GoldenModel});
    all_cells.push_back({spec, sim::PlatformKind::RtlSim});
  }

  bench::Table table({"cells", "tests run", "per-cell rebuild ms",
                      "assemble-once ms", "speedup", "digests match"});

  double full_cached_seconds = 0;
  std::size_t full_tests = 0;
  double full_speedup = 0;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    const std::vector<MatrixCell> cells(all_cells.begin(),
                                        all_cells.begin() + n);

    // Baseline arm: every cell is its own cold run and re-assembles the
    // whole tree (a fresh runner per cell = a fresh object cache per cell).
    std::vector<std::uint64_t> baseline_digests;
    bench::Stopwatch baseline_watch;
    for (const MatrixCell& cell : cells) {
      RegressionRunner cold(vfs, kJobs);
      baseline_digests.push_back(
          cold.run_system(layout.root, *cell.spec, cell.platform,
                          kMaxInstructions)
              .outcome_digest());
    }
    const double baseline_ms = baseline_watch.millis();

    // Cached arm: one runner, one assembly phase, n link+run cells.
    RegressionRunner runner(vfs, kJobs);
    bench::Stopwatch cached_watch;
    auto reports = runner.run_matrix(layout.root, cells, kMaxInstructions);
    const double cached_ms = cached_watch.millis();

    bool match = reports.size() == baseline_digests.size();
    std::size_t tests = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      match = match && reports[i].outcome_digest() == baseline_digests[i];
      tests += reports[i].records.size();
    }

    const double speedup = cached_ms > 0 ? baseline_ms / cached_ms : 0;
    table.add_row(n, tests, baseline_ms, cached_ms, speedup,
                  match ? "yes" : "NO");
    if (n == 8) {
      full_cached_seconds = cached_ms / 1e3;
      full_tests = tests;
      full_speedup = speedup;
    }
  }
  table.print();
  bench::emit_json("e10_matrix", "scaling", table);

  // Execution-backend datapoint on the full 8-cell cube: the in-process
  // thread backend vs a pool of `advm worker --serve` subprocesses.
  // Wall-clock includes the process backend's tree export and worker
  // spawn overhead — that overhead is what this row exists to keep on
  // record. Two process rows: "pooled" (one worker pool serving the whole
  // cube — spawn and tree import paid once per worker) vs "oneshot" (a
  // cold pooled backend per cell — one worker spawned, handed the tree
  // and shut down for every cell, what N separate `advm run --backend
  // process` invocations cost). Outcome digests must match the thread
  // backend cell for cell.
  {
    std::vector<std::string> derivative_names;
    for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
      derivative_names.push_back(spec->name);
    }
    core::MatrixRequest request;
    request.root = layout.root;
    request.derivatives = derivative_names;
    request.platforms = {"golden-model", "hdl-rtl"};
    request.max_instructions = kMaxInstructions;

    core::ObjectCache cache;
    core::BoardPool boards;
    core::exec::ThreadBackend thread_backend(
        core::SessionContext{vfs, cache, boards, kJobs});
    const core::exec::MatrixPlan plan = core::exec::plan_matrix(request, 4);
    bench::Stopwatch thread_watch;
    const auto thread_run = thread_backend.run_matrix(plan);
    const double thread_ms = thread_watch.millis();

    bench::Table backends({"backend", "shards", "wall ms", "digests match"});
    backends.add_row("thread", 1, thread_ms, "yes");
    if (std::filesystem::exists(ADVM_CLI_PATH)) {
      core::exec::ProcessBackendConfig config;
      config.worker_exe = ADVM_CLI_PATH;
      config.jobs_per_worker = kJobs;
      core::exec::ProcessBackend process_backend(vfs, config);
      bench::Stopwatch process_watch;
      const auto process_run = process_backend.run_matrix(plan);
      const double process_ms = process_watch.millis();
      bool match = process_run.status.ok() &&
                   process_run.cells.size() == thread_run.cells.size();
      if (match) {
        for (std::size_t i = 0; i < process_run.cells.size(); ++i) {
          match = match && process_run.cells[i].outcome_digest() ==
                               thread_run.cells[i].outcome_digest();
        }
      }
      backends.add_row("process-pooled", plan.shards, process_ms,
                       match ? "yes" : "NO");

      // One-shot arm: a fresh single-cell plan on a cold pooled backend
      // (and therefore a fresh worker spawn + tree export + import) per
      // cell.
      bench::Stopwatch oneshot_watch;
      bool oneshot_match = true;
      std::size_t cube_index = 0;  // derivative-major, matches plan order
      for (std::size_t i = 0; i < request.derivatives.size(); ++i) {
        for (const std::string& platform : request.platforms) {
          core::MatrixRequest one_cell;
          one_cell.root = layout.root;
          one_cell.derivatives = {request.derivatives[i]};
          one_cell.platforms = {platform};
          one_cell.max_instructions = kMaxInstructions;
          core::exec::ProcessBackend cold(vfs, config);
          const auto run =
              cold.run_matrix(core::exec::plan_matrix(one_cell, 1));
          oneshot_match =
              oneshot_match && run.status.ok() && run.cells.size() == 1 &&
              cube_index < thread_run.cells.size() &&
              run.cells[0].outcome_digest() ==
                  thread_run.cells[cube_index].outcome_digest();
          ++cube_index;
        }
      }
      const double oneshot_ms = oneshot_watch.millis();
      backends.add_row("process-oneshot", thread_run.cells.size(),
                       oneshot_ms, oneshot_match ? "yes" : "NO");

      // Cost-model laps over the skewed cube (the 8 cells differ in cost
      // by construction: golden-model vs RTL platforms, ported vs
      // un-ported derivatives). Three pooled laps share one cache dir:
      // cold (no cost-model file yet — dispatch seeds from test counts
      // and records every cell's measured wall-clock), warm (dispatch
      // seeded cost-descending from the measurements; tiny cells may
      // batch under the auto threshold), and warm with the threshold
      // forced high enough that every cell batches. The digests column
      // is the invariant: batching must never change the roll-up.
      const std::filesystem::path cost_cache =
          std::filesystem::temp_directory_path() /
          "advm-bench-e10-costmodel";
      std::filesystem::remove_all(cost_cache);
      bench::Table costs({"lap", "cost source", "seeded cells",
                          "batched reqs", "wall ms", "digests match"});
      const auto cost_lap = [&](const char* name,
                                std::size_t threshold_ms) -> double {
        core::exec::ProcessBackendConfig lap_config = config;
        lap_config.cache_dir = cost_cache.string();
        lap_config.batch_threshold_ms = threshold_ms;
        core::exec::ProcessBackend backend(vfs, lap_config);
        bench::Stopwatch watch;
        const auto run = backend.run_matrix(plan);
        const double ms = watch.millis();
        bool ok = run.status.ok() &&
                  run.cells.size() == thread_run.cells.size();
        if (ok) {
          for (std::size_t i = 0; i < run.cells.size(); ++i) {
            ok = ok && run.cells[i].outcome_digest() ==
                           thread_run.cells[i].outcome_digest();
          }
        }
        costs.add_row(name, run.cost_model.source,
                      run.cost_model.seeded_cells, run.batched_requests,
                      ms, ok ? "yes" : "NO");
        return ms;
      };
      const double cold_ms = cost_lap(
          "cold", core::exec::ProcessBackendConfig::kAutoBatchThreshold);
      const double warm_ms = cost_lap(
          "warm", core::exec::ProcessBackendConfig::kAutoBatchThreshold);
      const double batch_ms = cost_lap("warm+batch-all", 1'000'000);
      std::filesystem::remove_all(cost_cache);
      costs.print();
      bench::emit_json("e10_matrix", "cost-model", costs);
      // Informational, not exit-gated: single-lap wall-clock on a small
      // cube is noisy, and the byte-identity column above is the gate.
      const double best_warm = std::min(warm_ms, batch_ms);
      std::cout << "claim: a warm cost model never dispatches worse than "
                   "the cold test-count order.\nmeasured: best warm lap "
                << best_warm << " ms vs cold " << cold_ms << " ms ("
                << (best_warm <= cold_ms ? "warm <= cold"
                                         : "warm > cold (noise)")
                << ")\n\n";
    } else {
      std::cout << "(advm CLI not built; skipping the process-backend "
                   "datapoint)\n";
    }
    backends.print();
    bench::emit_json("e10_matrix", "backends", backends);
  }

  // Throughput metrics for the CI trend gate (tools/bench_trend.py).
  bench::Stopwatch lines_watch;
  const std::uint64_t lines = count_assembled_lines(vfs, layout);
  const double lines_seconds = lines_watch.seconds();
  const double lines_per_s = lines_seconds > 0 ? lines / lines_seconds : 0;
  const double tests_per_s =
      full_cached_seconds > 0 ? full_tests / full_cached_seconds : 0;

  bench::Table throughput({"metric", "value"});
  throughput.add_row("assembler lines/s", lines_per_s);
  throughput.add_row("regression tests/s", tests_per_s);
  throughput.print();
  bench::emit_json("e10_matrix", "throughput", throughput);

  std::cout << "\nclaim: assembly cost is cell-count-independent under the "
               "two-phase pipeline.\nmeasured: 8-cell speedup "
            << full_speedup << "x over per-cell rebuilds (target: >= 2x), "
            << "digests identical.\n";
  return full_speedup >= 2.0 ? 0 : 1;
}
