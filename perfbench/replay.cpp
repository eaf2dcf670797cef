#include "replay.h"

#include <memory>
#include <optional>
#include <utility>

#include "advm/base_functions.h"
#include "advm/environment.h"
#include "asm/linker.h"
#include "soc/board.h"
#include "soc/global_layer.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace perfbench {

using advm::core::CachedObject;
using advm::core::MatrixCell;
using advm::core::ObjectCache;
using advm::core::RegressionReport;
using advm::core::SessionContext;
using advm::core::TestRunRecord;
using advm::support::join_path;

namespace {

/// Optional tracing context: calls made with a null tracer record nothing.
struct Tracing {
  Tracer* tracer = nullptr;
  std::uint32_t parent = 0;
  std::uint32_t lap = 0;
};

/// A span when tracing, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(const Tracing& t, const char* name) {
    if (t.tracer != nullptr) span_.emplace(*t.tracer, name, t.parent, t.lap);
  }
  [[nodiscard]] Tracing child(const Tracing& t) const {
    return span_ ? Tracing{t.tracer, span_->id(), t.lap} : t;
  }
  void rename(const char* name) {
    if (span_) span_->rename(name);
  }

 private:
  std::optional<ScopedSpan> span_;
};

CachedObject assemble(const advm::support::VirtualFileSystem& vfs,
                      ObjectCache& cache, const std::string& path,
                      const advm::assembler::AssemblerOptions& options,
                      const Tracing& t) {
  MaybeSpan span(t, "asm.assemble");
  CachedObject built = cache.assemble(vfs, path, options);
  span.rename(built.hit ? "asm.assemble_hit" : "asm.assemble_miss");
  return built;
}

/// The objects every test of one environment links against, and the
/// assembler options its translation units use.
struct EnvBuild {
  std::string dir;
  std::vector<std::string> tests;
  std::vector<CachedObject> test_objects;  ///< parallel to `tests`
  advm::assembler::AssemblerOptions options;
  std::vector<std::shared_ptr<const advm::assembler::ObjectFile>> shared;
  bool ok = false;
  std::string error;
};

void prepare_environment(const advm::support::VirtualFileSystem& vfs,
                         ObjectCache& cache, const std::string& global_dir,
                         EnvBuild& env, const Tracing& t) {
  const std::string abstraction_dir =
      join_path(env.dir, advm::core::kAbstractionLayerDir);
  if (vfs.dir_exists(abstraction_dir)) {
    env.options.include_dirs.push_back(abstraction_dir);
  }
  env.options.include_dirs.push_back(global_dir);
  for (const std::string& path :
       {join_path(abstraction_dir, advm::core::kBaseFunctionsFile),
        join_path(global_dir, advm::core::kTrapLibraryFile),
        join_path(global_dir, advm::soc::kEmbeddedSoftwareFile),
        join_path(global_dir, advm::soc::kCommonFunctionsFile)}) {
    if (!vfs.exists(path)) continue;  // optional component
    CachedObject built = assemble(vfs, cache, path, env.options, t);
    if (!built.ok()) {
      env.error = "shared object '" + path + "': " + built.error;
      return;
    }
    env.shared.push_back(std::move(built.object));
  }
  env.ok = true;
}

std::optional<advm::assembler::Image> link_test(
    const EnvBuild& env, const CachedObject& test,
    const advm::soc::DerivativeSpec& spec, std::string& error,
    const Tracing& t) {
  MaybeSpan span(t, "asm.link");
  std::vector<const advm::assembler::ObjectFile*> objects;
  objects.reserve(1 + env.shared.size());
  objects.push_back(test.object.get());
  for (const auto& shared : env.shared) objects.push_back(shared.get());
  advm::support::DiagnosticEngine diags;
  advm::assembler::LinkOptions options;
  options.code_base = spec.code_base();
  options.data_base = spec.data_base();
  auto image = advm::assembler::link(objects, options, diags);
  if (!image) error = diags.to_string();
  return image;
}

TestRunRecord run_test(const EnvBuild& env, std::size_t test,
                       const MatrixCell& cell, std::uint64_t max_instructions,
                       advm::core::BoardPool& boards, ReplayCounters& counters,
                       const Tracing& t) {
  TestRunRecord record;
  record.environment = advm::support::base_name(env.dir);
  record.test_id = env.tests[test];
  if (!env.ok) {
    record.detail = env.error;
    return record;
  }
  const CachedObject& object = env.test_objects[test];
  if (!object.ok()) {
    record.detail = object.error;
    return record;
  }
  auto image = link_test(env, object, *cell.spec, record.detail, t);
  counters.links.fetch_add(1, std::memory_order_relaxed);
  if (!image) return record;

  std::optional<advm::core::BoardPool::Lease> lease;
  {
    MaybeSpan span(t, "boardpool.acquire");
    lease.emplace(boards.acquire(*cell.spec, cell.platform));
  }
  advm::soc::Board& board = lease->board();
  std::string load_error;
  bool loaded = false;
  {
    MaybeSpan span(t, "soc.load");
    loaded = board.load(*image, &load_error);
  }
  if (loaded) {
    record.build_ok = true;
    const std::uint64_t decodes = board.machine().decode_cache().decodes();
    advm::soc::RunOutcome outcome;
    {
      MaybeSpan span(t, "sim.run");
      outcome = board.run(max_instructions);
    }
    counters.dcache_decodes.fetch_add(
        board.machine().decode_cache().decodes() - decodes,
        std::memory_order_relaxed);
    record.verdict = outcome.verdict;
    record.stop = outcome.machine.reason;
    record.detail = std::move(outcome.console);
    record.instructions = outcome.machine.instructions;
    record.cycles = outcome.machine.cycles;
    record.state_digest = board.machine().state_digest();
    record.modeled_seconds = outcome.modeled_seconds;
  } else {
    record.detail = load_error;
  }
  MaybeSpan span(t, "boardpool.release");
  lease.reset();
  return record;
}

}  // namespace

std::vector<RegressionReport> replay_matrix(
    const SessionContext& ctx, std::string_view root,
    const std::vector<MatrixCell>& cells, std::uint64_t max_instructions,
    Tracer& tracer, std::uint32_t parent, std::uint32_t lap,
    ReplayCounters& counters) {
  const Tracing top{&tracer, parent, lap};
  const advm::core::ObjectCacheStats before = ctx.cache.stats();
  const std::string global_dir =
      join_path(root, advm::core::kGlobalLibrariesDir);

  std::vector<EnvBuild> envs;
  {
    MaybeSpan span(top, "regression.discover");
    for (std::string& dir :
         advm::core::discover_environments(ctx.vfs, root)) {
      envs.emplace_back().dir = std::move(dir);
    }
  }
  {
    MaybeSpan phase(top, kEnvPhase);
    const Tracing in_phase = phase.child(top);
    advm::core::parallel_for(envs.size(), ctx.jobs, [&](std::size_t i) {
      MaybeSpan task(in_phase, "regression.env_task");
      const Tracing in_task = task.child(in_phase);
      {
        MaybeSpan span(in_task, "regression.discover");
        envs[i].tests = advm::core::discover_tests(ctx.vfs, envs[i].dir);
      }
      prepare_environment(ctx.vfs, ctx.cache, global_dir, envs[i], in_task);
    });
  }

  struct Unit {
    std::size_t env = 0;
    std::size_t test = 0;
  };
  std::vector<Unit> units;
  for (std::size_t e = 0; e < envs.size(); ++e) {
    envs[e].test_objects.resize(envs[e].tests.size());
    if (!envs[e].ok) continue;
    for (std::size_t i = 0; i < envs[e].tests.size(); ++i) {
      units.push_back({e, i});
    }
  }
  {
    MaybeSpan phase(top, kAssemblePhase);
    const Tracing in_phase = phase.child(top);
    advm::core::parallel_for(units.size(), ctx.jobs, [&](std::size_t i) {
      EnvBuild& env = envs[units[i].env];
      const std::string path =
          join_path(join_path(env.dir, env.tests[units[i].test]),
                    advm::core::kTestSourceFile);
      env.test_objects[units[i].test] =
          assemble(ctx.vfs, ctx.cache, path, env.options, in_phase);
    });
  }

  struct Task {
    std::size_t cell = 0;
    std::size_t env = 0;
    std::size_t test = 0;
    std::size_t slot = 0;
  };
  std::vector<RegressionReport> reports(cells.size());
  std::vector<Task> tasks;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    reports[c].derivative = cells[c].spec->name;
    reports[c].platform = cells[c].platform;
    std::size_t slot = 0;
    for (std::size_t e = 0; e < envs.size(); ++e) {
      for (std::size_t i = 0; i < envs[e].tests.size(); ++i) {
        tasks.push_back({c, e, i, slot++});
      }
    }
    reports[c].records.resize(slot);
  }
  {
    MaybeSpan phase(top, kRunPhase);
    const Tracing in_phase = phase.child(top);
    advm::core::parallel_for(tasks.size(), ctx.jobs, [&](std::size_t i) {
      const Task& task = tasks[i];
      MaybeSpan span(in_phase, "regression.task");
      reports[task.cell].records[task.slot] =
          run_test(envs[task.env], task.test, cells[task.cell],
                   max_instructions, ctx.boards, counters,
                   span.child(in_phase));
    });
  }

  const advm::core::ObjectCacheStats after = ctx.cache.stats();
  for (RegressionReport& report : reports) {
    report.cache.hits = after.hits - before.hits;
    report.cache.misses = after.misses - before.misses;
    report.cache.evictions = after.evictions - before.evictions;
    report.cache.bytes = after.bytes;
    report.cache.persistent_hits =
        after.persistent_hits - before.persistent_hits;
    report.cache.persistent_stores =
        after.persistent_stores - before.persistent_stores;
    report.cache.persistent_evictions =
        after.persistent_evictions - before.persistent_evictions;
  }
  return reports;
}

std::string cross_check(const SessionContext& ctx, std::string_view root,
                        const MatrixCell& cell, const TestRunRecord& fast,
                        std::uint64_t max_instructions) {
  const std::string where = std::string(cell.spec->name) + "/" +
                            fast.environment + "/" + fast.test_id;
  EnvBuild env;
  env.dir = join_path(root, fast.environment);
  env.tests = {fast.test_id};
  prepare_environment(ctx.vfs, ctx.cache,
                      join_path(root, advm::core::kGlobalLibrariesDir), env,
                      {});
  if (!env.ok) return where + ": " + env.error;
  env.test_objects.push_back(ctx.cache.assemble(
      ctx.vfs,
      join_path(join_path(env.dir, fast.test_id), advm::core::kTestSourceFile),
      env.options));
  if (!env.test_objects[0].ok()) return where + ": does not assemble";
  std::string error;
  auto image = link_test(env, env.test_objects[0], *cell.spec, error, {});
  if (!image) return where + ": " + error;

  advm::soc::Board board(*cell.spec, cell.platform);
  board.machine().set_decode_cache_enabled(false);
  if (!board.load(*image, &error)) return where + ": " + error;
  const advm::soc::RunOutcome slow = board.run(max_instructions);
  auto differs = [&](const char* field, std::uint64_t a, std::uint64_t b) {
    return where + ": " + field + " " + std::to_string(a) +
           " (decode cache) != " + std::to_string(b) + " (interpreter)";
  };
  if (slow.verdict != fast.verdict) {
    return differs("verdict", static_cast<std::uint64_t>(fast.verdict),
                   static_cast<std::uint64_t>(slow.verdict));
  }
  if (slow.machine.reason != fast.stop) {
    return differs("stop reason", static_cast<std::uint64_t>(fast.stop),
                   static_cast<std::uint64_t>(slow.machine.reason));
  }
  if (slow.machine.instructions != fast.instructions) {
    return differs("instructions", fast.instructions,
                   slow.machine.instructions);
  }
  if (slow.machine.cycles != fast.cycles) {
    return differs("cycles", fast.cycles, slow.machine.cycles);
  }
  if (board.machine().state_digest() != fast.state_digest) {
    return differs("state digest", fast.state_digest,
                   board.machine().state_digest());
  }
  return {};
}

}  // namespace perfbench
