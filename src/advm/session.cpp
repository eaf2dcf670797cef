#include "advm/session.h"

#include <memory>
#include <utility>

#include "advm/exec/backend.h"
#include "advm/exec/workerpool.h"
#include "advm/exec/workplan.h"
#include "advm/random_globals.h"
#include "soc/derivative.h"
#include "sim/platform.h"
#include "support/text.h"

namespace advm::core {

using support::join_path;

const char* to_string(ExecBackendKind kind) {
  switch (kind) {
    case ExecBackendKind::Thread:
      return "thread";
    case ExecBackendKind::Process:
      return "process";
  }
  return "?";
}

bool MatrixResult::all_passed() const {
  if (cells.empty()) return false;
  for (const RegressionReport& cell : cells) {
    if (!cell.all_passed()) return false;
  }
  return true;
}

exec::CostModel& Session::cost_model() {
  std::call_once(cost_model_loaded_, [this] { cost_model_.load(); });
  return cost_model_;
}

std::size_t MatrixResult::worker_reuse() const {
  std::size_t reuse = 0;
  for (const MatrixWorkerStats& worker : workers) {
    if (worker.requests > 1) reuse += worker.requests - 1;
  }
  return reuse;
}

namespace {

Status unknown_derivative(std::string_view name) {
  std::string message = "unknown derivative '" + std::string(name) +
                        "'; known:";
  for (const soc::DerivativeSpec* d : soc::all_derivatives()) {
    message += " " + d->name;
  }
  return Status::error("advm.unknown-derivative", std::move(message));
}

Status unknown_platform(std::string_view name) {
  std::string message = "unknown platform '" + std::string(name) +
                        "'; known:";
  for (sim::PlatformKind kind : sim::kAllPlatforms) {
    message += ' ';
    message += sim::to_string(kind);
  }
  return Status::error("advm.unknown-platform", std::move(message));
}

Status bad_root(std::string_view root) {
  return Status::error("advm.bad-root",
                       "no test environments under '" + std::string(root) +
                           "' (expected module directories with " +
                           kTestplanFile + ")");
}

const soc::DerivativeSpec* find_spec(std::string_view name) {
  return soc::find_derivative(std::string(name));
}

std::optional<sim::PlatformKind> find_platform(std::string_view name) {
  return sim::platform_from_name(name);
}

/// True if at least one module environment (a TESTPLAN.TXT directory)
/// lives directly under `root`.
bool has_environments(const support::VirtualFileSystem& vfs,
                      std::string_view root) {
  for (const std::string& entry : vfs.list_dir(root)) {
    if (entry.empty() || entry.back() != '/') continue;
    const std::string name = entry.substr(0, entry.size() - 1);
    if (name == kGlobalLibrariesDir) continue;
    if (vfs.exists(join_path(join_path(root, name), kTestplanFile))) {
      return true;
    }
  }
  return false;
}

}  // namespace

Status SessionConfig::validate() const {
  if (jobs > kMaxJobs) {
    return Status::error(
        "advm.bad-jobs",
        "jobs value " + std::to_string(jobs) + " exceeds the limit " +
            std::to_string(kMaxJobs) +
            " (0 = one worker per hardware thread)");
  }
  if (shards == 0 || shards > kMaxShards) {
    return Status::error("advm.bad-shards",
                         "shards value " + std::to_string(shards) +
                             " out of range [1, " +
                             std::to_string(kMaxShards) + "]");
  }
  if (request_timeout_ms > kMaxRequestTimeoutMs) {
    return Status::error(
        "advm.bad-timeout",
        "request timeout " + std::to_string(request_timeout_ms) +
            "ms exceeds the limit " + std::to_string(kMaxRequestTimeoutMs) +
            "ms (0 = wait forever)");
  }
  if (!fault_plan.empty()) {
    std::string parse_error;
    if (!exec::parse_fault_plan(fault_plan, &parse_error)) {
      return Status::error("advm.bad-fault-plan", parse_error);
    }
  }
  return {};
}

SystemLayout layout_from_tree(const support::VirtualFileSystem& vfs,
                              std::string_view root) {
  SystemLayout layout;
  layout.root = support::normalize_path(root);
  layout.global_dir = join_path(layout.root, kGlobalLibrariesDir);
  for (const std::string& entry : vfs.list_dir(layout.root)) {
    if (entry.empty() || entry.back() != '/') continue;
    const std::string name = entry.substr(0, entry.size() - 1);
    if (name == kGlobalLibrariesDir) continue;
    EnvironmentLayout env;
    env.name = name;
    env.dir = join_path(layout.root, name);
    env.abstraction_dir = join_path(env.dir, kAbstractionLayerDir);
    env.advm_style = vfs.dir_exists(env.abstraction_dir);
    layout.environments.push_back(std::move(env));
  }
  return layout;
}

BuildResult Session::run(const BuildRequest& request) {
  BuildResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (request.root.empty() || request.root == "/") {
    result.status = Status::error("advm.bad-root",
                                  "build root must name a directory");
    return result;
  }

  result.derivative = spec->name;

  SystemConfig config;
  config.root = request.root;
  config.globals = request.globals;
  config.base_functions = request.base_functions;
  config.environments = request.environments;
  if (config.environments.empty()) {
    config.environments = canonical_environments(request.tests_per_module);
  }

  result.layout = build_system(vfs_, config, *spec, config_.jobs);
  result.files = vfs_.list_tree(result.layout.root).size();
  for (const EnvironmentLayout& env : result.layout.environments) {
    result.tests += env.tests.size();
  }
  return result;
}

RunResult Session::run(const RunRequest& request) {
  RunResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  const auto platform = find_platform(request.platform);
  if (!platform) {
    result.status = unknown_platform(request.platform);
    return result;
  }
  if (!has_environments(vfs_, request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  if (config_.backend == ExecBackendKind::Process) {
    // A run is a one-cell matrix; the plan's slicing granularity is the
    // cell, so it executes on exactly one worker (process isolation, not
    // parallelism — the worker's own pool still uses `jobs`).
    MatrixRequest one_cell;
    one_cell.root = request.root;
    one_cell.derivatives = {request.derivative};
    one_cell.platforms = {request.platform};
    one_cell.max_instructions = request.max_instructions;
    MatrixResult matrix = run_matrix_on_backend(one_cell);
    result.status = matrix.status;
    if (!matrix.cells.empty()) result.report = std::move(matrix.cells[0]);
    return result;
  }

  RegressionRunner runner(context());
  result.report = runner.run_system(request.root, *spec, *platform,
                                    request.max_instructions);
  return result;
}

MatrixResult Session::run(const MatrixRequest& request) {
  MatrixResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  for (const std::string& name : request.derivatives) {
    if (find_spec(name) == nullptr) {
      result.status = unknown_derivative(name);
      return result;
    }
  }
  for (const std::string& name : request.platforms) {
    if (!find_platform(name)) {
      result.status = unknown_platform(name);
      return result;
    }
  }
  if (request.derivatives.empty() || request.platforms.empty()) {
    result.status = Status::error(
        "advm.empty-matrix", "matrix needs at least one derivative and one "
                             "platform");
    return result;
  }
  if (!has_environments(vfs_, request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  return run_matrix_on_backend(request);
}

MatrixResult Session::run_matrix_on_backend(const MatrixRequest& request) {
  MatrixResult result;
  const exec::MatrixPlan plan = exec::plan_matrix(request, config_.shards);

  std::unique_ptr<exec::ExecutionBackend> backend;
  if (config_.backend == ExecBackendKind::Process) {
    exec::ProcessBackendConfig process_config;
    process_config.worker_exe = config_.worker_exe;
    process_config.scratch_dir = config_.scratch_dir;
    process_config.cache_dir = config_.cache_dir;
    process_config.cache_max_bytes = config_.cache_max_bytes;
    // The --jobs budget is the whole session's, not each worker's:
    // divide it across the live workers so `--shards S --jobs N` never
    // oversubscribes N×S threads.
    process_config.jobs_per_worker =
        exec::divide_jobs(config_.jobs, plan.shards);
    // Both use the same "auto" sentinel value, so the session default
    // passes through unchanged.
    process_config.batch_threshold_ms = config_.batch_threshold_ms;
    process_config.request_timeout_ms = config_.request_timeout_ms;
    process_config.max_respawns = config_.max_respawns;
    // The session-resident model: one history shared (and kept warm in
    // memory) across every lap this session runs.
    process_config.cost_model = &cost_model();
    if (!config_.fault_plan.empty()) {
      // Validated (advm.bad-fault-plan) before any verb runs; a plan that
      // stopped parsing between validate() and here would be a bug, so
      // the empty fallback is fine.
      if (auto plan = exec::parse_fault_plan(config_.fault_plan)) {
        process_config.fault_plan = std::move(*plan);
      }
    }
    result.request_timeout_ms = config_.request_timeout_ms;
    // The session's own context doubles as the degradation fallback: if
    // every worker dies, the backend finishes the remaining cells
    // in-process instead of failing the lap.
    backend = std::make_unique<exec::ProcessBackend>(vfs_, process_config,
                                                     context());
  } else {
    backend = std::make_unique<exec::ThreadBackend>(context());
  }
  result.backend = backend->name();
  result.shards = plan.shards;

  exec::MatrixExecution execution = backend->run_matrix(plan);
  result.status = std::move(execution.status);
  result.cells = std::move(execution.cells);
  result.jobs_per_worker = execution.jobs_per_worker;
  result.workers.reserve(execution.workers.size());
  for (const exec::WorkerDispatchStats& worker : execution.workers) {
    result.workers.push_back({worker.worker, worker.requests, worker.cells});
  }
  result.cost_model = {execution.cost_model.source,
                       execution.cost_model.seeded_cells,
                       execution.cost_model.recorded};
  result.batched_requests = execution.batched_requests;
  result.fault = {execution.fault.retries, execution.fault.requeued_cells,
                  execution.fault.respawns,
                  execution.fault.quarantined_cells,
                  execution.fault.degraded};
  if (!result.status.ok()) {
    result.cells.clear();
    result.workers.clear();
  }
  return result;
}

PortResult Session::run(const PortRequest& request) {
  PortResult result;
  const soc::DerivativeSpec* target = find_spec(request.to);
  if (target == nullptr) {
    result.status = unknown_derivative(request.to);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }
  result.target = target->name;

  const SystemLayout layout = layout_from_tree(vfs_, request.root);
  PortingEngine porter(context());
  result.repair =
      porter.port(layout, *target, request.globals, request.base_functions);
  return result;
}

CheckResult Session::run(const CheckRequest& request) {
  CheckResult result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  ViolationChecker checker(context());
  result.report = checker.check_system(request.root, *spec);
  return result;
}

LintResult Session::run(const LintRequest& request) {
  LintResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  Linter linter(context());
  result.report = linter.lint_system(request.root, *spec);
  return result;
}

ReleaseResult Session::run(const ReleaseRequest& request) {
  ReleaseResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  const auto platform = find_platform(request.platform);
  if (!platform) {
    result.status = unknown_platform(request.platform);
    return result;
  }
  if (request.name.empty()) {
    result.status =
        Status::error("advm.bad-release-name", "release name must not be "
                                               "empty");
    return result;
  }
  if (!has_environments(vfs_, request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  const SystemLayout layout = layout_from_tree(vfs_, request.root);
  ReleaseManager manager(context(), config_.release_root);
  result.release = manager.create_system_release(request.name, layout);
  result.verified = manager.verify(result.release);
  if (request.regress) {
    result.frozen = manager.run_frozen(result.release, *spec, *platform,
                                       request.max_instructions);
  }
  return result;
}

RandomResult Session::run(const RandomRequest& request) {
  RandomResult result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  result.seed = request.seed;
  result.values =
      randomize_defines(default_constraints(*spec), request.seed);
  GlobalsOptions options;
  options.overrides = result.values;
  for (const std::string& entry : vfs_.list_dir(request.root)) {
    if (entry.empty() || entry.back() != '/') continue;
    const std::string abstraction =
        join_path(join_path(request.root, entry.substr(0, entry.size() - 1)),
                  kAbstractionLayerDir);
    if (!vfs_.dir_exists(abstraction)) continue;
    vfs_.write(join_path(abstraction, kGlobalsFile),
               generate_globals(*spec, options));
    ++result.regenerated;
  }
  return result;
}

}  // namespace advm::core
