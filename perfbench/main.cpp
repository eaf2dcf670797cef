// advm_perfbench — the repository benchmark's measuring program.
//
//   advm_perfbench --workload healthy|stale|port --seed N --seconds S
//                  --trace 0|1 --work DIR
//
// Drives the public advm::core::Session API in-process on the thread
// backend as one closed-loop caller (the next lap starts when the last one
// returns) with jobs = 4, checks every output, and prints one JSON document
// of raw samples on its last stdout line; perfbench/run.py turns those
// into the reported medians. Each lap is timed twice: wall time, and the
// CPU time all of the process's threads spent in it.
//
// The gated figures are CPU times scaled to a reference host. On a shared
// host, other tenants change how fast the VM's CPUs run from minute to
// minute (lap wall swung 1.4x and lap CPU time 1.2x between runs of the
// same code), so every lap and set-up is preceded by a fixed calibration
// kernel that does not touch the advm libraries, and its CPU time rescales
// the lap's: lap CPU x kCalibrationRefMs / calibration CPU.
//
// With --trace 1 it alternates untraced laps with laps replayed through each layer's public calls (replay.h), and
// reports per-layer time from the replay's spans. The generated tree is
// written to DIR/tree, which must not exist yet.
//
// The seed draws the split of the workload's fixed test total across the
// five canonical modules, the derivative the port cycle starts at and the
// cross-check sample. The program only ever sees the generated tree.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "advm/environment.h"
#include "advm/report.h"
#include "advm/session.h"
#include "replay.h"
#include "soc/derivative.h"
#include "support/disk.h"
#include "support/hash.h"
#include "support/rng.h"
#include "trace.h"

namespace {

namespace core = advm::core;
namespace fs = std::filesystem;
using perfbench::ScopedSpan;
using perfbench::Tracer;

constexpr std::size_t kJobs = 4;
constexpr const char* kRoot = "/SYS";
constexpr std::uint64_t kMaxInstructions = 2'000'000;
/// Set-up repetitions per run; setup_s is the median of their scaled CPU
/// time.
constexpr int kSetups = 25;
/// CPU time of calibration_cpu_ms() on the reference host, a 4-vCPU Xeon
/// VM (Firecracker); scaled figures read as that host's milliseconds.
constexpr double kCalibrationRefMs = 7.3;
/// Timed laps per run, whatever --seconds allows.
constexpr std::size_t kMinLaps = 3;
/// Traced laps whose spans go to the trace file (a healthy lap has ~20k).
constexpr std::size_t kTraceFileLaps = 2;
/// Share of a traced lap's wall that named calls must cover.
constexpr double kMinAttributed = 0.9;
/// Band the traced lap's median wall must keep to, as a share of the
/// untraced lap's.
constexpr double kMinOverhead = 0.85;
constexpr double kMaxOverhead = 1.15;
const std::vector<std::string> kDerivatives = {"SC88-A", "SC88-B", "SC88-C",
                                               "SC88-D"};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU time used so far by the calling thread (CLOCK_THREAD_CPUTIME_ID)
/// or by all threads of the process, ended ones included
/// (CLOCK_PROCESS_CPUTIME_ID). Time the hypervisor steals from the VM is
/// not in it.
double cpu_seconds(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

volatile std::uint64_t calibration_sink;

/// One calibration thread's memory, allocated once so that the kernel never
/// calls the global allocator: what the program leaves in the heap cannot
/// move it.
struct CalibrationScratch {
  static constexpr std::size_t kArenaBytes = 1 << 20;
  std::unique_ptr<std::byte[]> arena =
      std::make_unique_for_overwrite<std::byte[]>(kArenaBytes);
  std::vector<std::uint64_t> keys = std::vector<std::uint64_t>(1 << 13);
};

/// Runs a fixed kernel — small strings appended in a node map, then a
/// sort: allocation, hashing and sorting, as the front end does — on kJobs
/// threads at once, as a lap's parallel phases do, and returns the CPU
/// time the threads spent in it. It calls nothing of the advm libraries,
/// so no change to the program moves it.
double calibration_cpu_ms() {
  static std::vector<CalibrationScratch> scratch(kJobs);
  std::vector<double> cpu(kJobs);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kJobs; ++i) {
    threads.emplace_back([i, &cpu] {
      const double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
      CalibrationScratch& s = scratch[i];
      std::pmr::monotonic_buffer_resource arena(
          s.arena.get(), CalibrationScratch::kArenaBytes,
          std::pmr::null_memory_resource());
      std::pmr::unordered_map<std::uint64_t, std::pmr::string> words(&arena);
      std::uint64_t x = i + 1;
      for (std::size_t k = 0; k < s.keys.size(); ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        words[(x >> 24) % 4096].append(std::to_string(x), 0, 6);
        s.keys[k] = x ^ (x >> 17);
      }
      std::sort(s.keys.begin(), s.keys.end());
      std::uint64_t h = s.keys[s.keys.size() / 2];
      for (const auto& [key, word] : words) h += key * word.size();
      calibration_sink = h;
      cpu[i] = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c0;
    });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0;
  for (double c : cpu) sum += c;
  return sum * 1e3;
}

/// One lap's cost: its wall time and the CPU time the process spent in it.
struct LapTime {
  double wall_ms = 0;
  double cpu_ms = 0;
};

/// Times what runs between its construction and stop().
class LapTimer {
 public:
  LapTimer()
      : wall0_(std::chrono::steady_clock::now()),
        cpu0_(cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)) {}
  [[nodiscard]] LapTime stop() const {
    return {seconds_since(wall0_) * 1e3,
            (cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0_) * 1e3};
  }

 private:
  std::chrono::steady_clock::time_point wall0_;
  double cpu0_;
};

core::SessionConfig session_config() {
  core::SessionConfig config;
  config.jobs = kJobs;
  return config;
}

// ------------------------------------------------------------- results --

/// Raw samples and checks of one run, printed as one JSON line.
class Results {
 public:
  void sample(const std::string& name, const char* unit, double value) {
    auto& m = metrics_[name];
    m.unit = unit;
    m.samples.push_back(value);
  }
  [[nodiscard]] std::vector<double> samples(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? std::vector<double>{} : it->second.samples;
  }
  void ratio(const std::string& name, double num, double den) {
    ratios_[name] = {num, den};
  }
  /// One checked operation — a Session::run call, a replayed lap, a
  /// cross-checked cell, a set-up — and whether every check on it held.
  /// `what` describes the failure.
  void operation(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  void print(const std::string& workload, std::uint64_t seed,
             bool trace) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"trace\":" << (trace ? 1 : 0) << ",\"correct\":"
       << (correct() ? "true" : "false") << ",\"attempted\":" << attempted_
       << ",\"failed\":" << failed_ << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      os << (i ? "," : "") << '"' << core::json_escape(failures_[i]) << '"';
    }
    os << "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      os << (first ? "" : ",") << '"' << name << "\":{\"unit\":\"" << m.unit
         << "\",\"samples\":[";
      for (std::size_t i = 0; i < m.samples.size(); ++i) {
        os << (i ? "," : "") << m.samples[i];
      }
      os << "]}";
      first = false;
    }
    os << "},\"ratios\":{";
    first = true;
    for (const auto& [name, r] : ratios_) {
      os << (first ? "" : ",") << '"' << name << "\":[" << r.first << ","
         << r.second << "]";
      first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  struct Metric {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::pair<double, double>> ratios_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------- inputs --

/// The canonical five modules sharing `total` tests: an even split, then
/// total/50 seeded single-test moves between the modules other than UART.
/// UART keeps its share because its SC88-C tests spin to the instruction
/// cap: their count and their place in the task order set the `stale`
/// tail, which must not swing with the seed. The moves keep every module
/// within a few percent of its share.
std::vector<core::EnvironmentConfig> seeded_split(
    std::size_t total, advm::support::SplitMix64& rng) {
  auto envs = core::canonical_environments(total / 5);
  envs[0].test_count += total % 5;
  std::vector<std::size_t> movable;
  for (std::size_t i = 0; i < envs.size(); ++i) {
    if (envs[i].module != core::ModuleKind::Uart) movable.push_back(i);
  }
  for (std::size_t k = 0; k < total / 50; ++k) {
    auto& from = envs[movable[rng.range(0, movable.size() - 1)]];
    auto& to = envs[movable[rng.range(0, movable.size() - 1)]];
    if (&from == &to || from.test_count <= 1) continue;
    --from.test_count;
    ++to.test_count;
  }
  return envs;
}

/// Generates the SC88-A tree at kRoot of `session`. Returns an error
/// message, empty on success.
std::string generate_tree(const std::vector<core::EnvironmentConfig>& envs,
                          std::size_t total, core::Session& session) {
  core::BuildRequest build;
  build.root = kRoot;
  build.derivative = "SC88-A";
  build.environments = envs;
  const core::BuildResult built = session.run(build);
  if (!built.status.ok()) return "build: " + built.status.message;
  if (built.tests != total) {
    return "build: " + std::to_string(built.tests) + " tests, expected " +
           std::to_string(total);
  }
  return {};
}

/// Empty when both trees at kRoot hold the same files with the same bytes.
std::string compare_trees(const advm::support::VirtualFileSystem& want,
                          const advm::support::VirtualFileSystem& got) {
  const std::vector<std::string> files = want.list_tree(kRoot);
  if (files != got.list_tree(kRoot)) return "imported tree lists other files";
  for (const std::string& file : files) {
    if (want.read(file) != got.read(file)) return file + " differs";
  }
  return {};
}

// ------------------------------------------------------------- checking --

/// What must repeat lap after lap: per cell, the outcome digest, the pass
/// count and the record count.
struct CellSummary {
  std::string cell;
  std::uint64_t digest = 0;
  std::size_t passed = 0;
  std::size_t total = 0;
  bool operator==(const CellSummary&) const = default;
};

std::vector<CellSummary> summarize(
    const std::vector<core::RegressionReport>& reports) {
  std::vector<CellSummary> out;
  for (const auto& r : reports) {
    out.push_back({r.derivative + "/" +
                       std::string(advm::sim::to_string(r.platform)),
                   r.outcome_digest(), r.passed(), r.records.size()});
  }
  return out;
}

/// Empty when `got` equals `want`, else the first differing cell.
std::string compare(const std::vector<CellSummary>& want,
                    const std::vector<CellSummary>& got) {
  if (want.size() != got.size()) return "cell count differs";
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] == got[i]) continue;
    auto describe = [](const CellSummary& c) {
      return "digest " + advm::support::hash_to_string(c.digest) +
             " passed " + std::to_string(c.passed) + "/" +
             std::to_string(c.total);
    };
    return want[i].cell + ": " + describe(got[i]) + ", expected " +
           describe(want[i]);
  }
  return {};
}

/// Empty when every cell has `tests` records and all of them PASS.
std::string all_pass(const std::vector<core::RegressionReport>& reports,
                     std::size_t tests) {
  for (const auto& r : reports) {
    if (r.records.size() != tests || !r.all_passed()) {
      return r.derivative + ": " + std::to_string(r.passed()) + "/" +
             std::to_string(r.records.size()) + " passed, expected " +
             std::to_string(tests) + "/" + std::to_string(tests);
    }
  }
  return {};
}

std::size_t record_count(const std::vector<core::RegressionReport>& reports) {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.records.size();
  return n;
}

// --------------------------------------------------------- traced laps --

/// Counters read around a traced lap.
struct LapCounters {
  core::ObjectCacheStats cache_before;
  core::ObjectCacheStats cache_after;
  core::BoardPoolStats boards_before;
  core::BoardPoolStats boards_after;
  perfbench::ReplayCounters replay;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t report_bytes = 0;

  void begin(core::Session& s) {
    cache_before = s.cache().stats();
    boards_before = s.boards().stats();
  }
  void end(core::Session& s,
           const std::vector<core::RegressionReport>& reports) {
    cache_after = s.cache().stats();
    boards_after = s.boards().stats();
    for (const auto& r : reports) {
      for (const auto& rec : r.records) {
        instructions += rec.instructions;
        cycles += rec.cycles;
      }
    }
  }
};

/// Turns one traced lap's spans and counters into per-layer samples.
void record_layers(Results& out, const perfbench::LapProfile& p,
                   const LapCounters& c) {
  auto self = [&](const char* name) {
    auto it = p.self_ms.find(name);
    return it == p.self_ms.end() ? 0.0 : it->second;
  };
  auto count = [&](const char* name) {
    auto it = p.count.find(name);
    return it == p.count.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto hits =
      static_cast<double>(c.cache_after.hits - c.cache_before.hits);
  const auto misses =
      static_cast<double>(c.cache_after.misses - c.cache_before.misses);
  out.sample("support.import_ms", "ms", self("support.import"));
  out.sample("regression.discover_ms", "ms", self("regression.discover"));
  out.sample("asm.assemble_miss_ms", "ms", self("asm.assemble_miss"));
  out.sample("asm.assemble_hit_ms", "ms", self("asm.assemble_hit"));
  out.sample("objcache.hits", "count", hits);
  out.sample("objcache.misses", "count", misses);
  out.sample("objcache.attempts", "count", hits + misses);
  out.sample("objcache.hit_ratio", "ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
  out.sample("objcache.bytes", "B", static_cast<double>(c.cache_after.bytes));
  out.sample("asm.link_ms", "ms", self("asm.link"));
  out.sample("asm.links", "count", static_cast<double>(c.replay.links.load()));
  out.sample("boardpool.acquire_ms", "ms", self("boardpool.acquire"));
  out.sample("boardpool.release_ms", "ms", self("boardpool.release"));
  out.sample("soc.load_ms", "ms", self("soc.load"));
  out.sample("boardpool.constructed", "count",
             static_cast<double>(c.boards_after.constructed -
                                 c.boards_before.constructed));
  out.sample("boardpool.reused", "count",
             static_cast<double>(c.boards_after.reused -
                                 c.boards_before.reused));
  const double run_ms = self("sim.run");
  out.sample("sim.run_ms", "ms", run_ms);
  out.sample("sim.instr_per_s", "1/s",
             run_ms > 0 ? static_cast<double>(c.instructions) / (run_ms / 1e3)
                        : 0.0);
  std::vector<double> tests = p.sim_run_ms;
  std::sort(tests.begin(), tests.end());
  auto pct = [&](double q) {
    if (tests.empty()) return 0.0;
    return tests[std::min(tests.size() - 1,
                          static_cast<std::size_t>(q * tests.size()))] *
           1e3;
  };
  out.sample("sim.test_p50_us", "us", pct(0.50));
  out.sample("sim.test_p99_us", "us", pct(0.99));
  out.sample("sim.tests", "count", count("sim.run"));
  out.sample("sim.dcache_decodes", "count",
             static_cast<double>(c.replay.dcache_decodes.load()));
  out.sample("sim.instructions", "count", static_cast<double>(c.instructions));
  out.sample("sim.cycles", "count", static_cast<double>(c.cycles));
  out.sample("regression.pool_busy_ratio", "ratio",
             p.pool_capacity_ms > 0 ? p.pool_busy_ms / p.pool_capacity_ms
                                    : 0.0);
  out.sample("regression.pool_busy_ms", "ms", p.pool_busy_ms);
  out.sample("regression.pool_capacity_ms", "ms", p.pool_capacity_ms);
  out.sample("regression.pool_tail_ms", "ms", p.pool_tail_ms);
  out.sample("report.render_ms", "ms", self("report.render"));
  out.sample("report.bytes", "B", static_cast<double>(c.report_bytes));
  out.sample("porting.port_ms", "ms", self("porting.port"));
  out.sample("lint.lint_ms", "ms", self("lint.lint"));
  out.sample("session.close_ms", "ms", self("session.close"));
  out.sample("trace.lap_ms", "ms", p.wall_ms);
  // The lap root's own self time is the wall no named call covered.
  const double attributed = p.wall_ms - self(perfbench::kLapSpan);
  out.sample("trace.attributed_ms", "ms", attributed);
  out.sample("trace.attributed_ratio", "ratio",
             p.wall_ms > 0 ? attributed / p.wall_ms : 0.0);
}

// ------------------------------------------------------------ workloads --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

/// One workload: set-up, an untraced lap and a traced lap. Laps time
/// themselves so that checking stays outside the measured wall.
class Workload {
 public:
  Workload(const Options& options, std::size_t tests, std::uint64_t salt)
      : tests_(tests),
        rng_(options.seed ^ salt),
        envs_(seeded_split(tests, rng_)),
        work_dir_(options.work_dir) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Generates the tree and writes it to a new directory of the work
  /// directory, once per run and outside setup_s: how long creating
  /// thousands of files takes is set by the disk and what ran on it
  /// before (on ext4 with online discard, up to 20x slower for seconds
  /// after files were deleted), not by the program. Returns an error
  /// message or "".
  std::string write_tree() {
    tree_dir_ = (work_dir_ / "tree").string();
    if (fs::exists(tree_dir_)) return tree_dir_ + " already exists";
    core::Session session(session_config());
    std::string error = generate_tree(envs_, tests_, session);
    if (error.empty()) {
      advm::support::export_to_disk(session.vfs(), kRoot, tree_dir_);
    }
    return error;
  }
  /// One timed set-up: generates the tree again and imports the written
  /// copy, which must match it. Returns an error message or "".
  virtual std::string setup() {
    core::Session session(session_config());
    return load_tree(session);
  }
  /// Runs one lap; returns its cost and adds the test verdicts it
  /// produced to `records`.
  virtual LapTime lap(Results& out, std::size_t& records) = 0;
  /// Replays one lap under `tracer` as lap `id` and records its layers.
  virtual void traced_lap(Results& out, Tracer& tracer, std::uint32_t id) = 0;
  /// Whether the interpreter cross-check has covered its whole sample.
  [[nodiscard]] virtual bool cross_checked() const = 0;

  [[nodiscard]] const std::vector<core::EnvironmentConfig>& split() const {
    return envs_;
  }
  std::size_t cross_checked_cells = 0;
  std::vector<perfbench::Span> kept_spans;  ///< for the trace file

 protected:
  /// Cross-checks one seeded test per (cell, module) of `reports` and,
  /// with `cycle_limit`, one SC88-C UART test that spun to the cap.
  void cross_check(Results& out, core::Session& session,
                   const std::vector<core::RegressionReport>& reports,
                   bool cycle_limit) {
    for (const auto& report : reports) {
      const core::MatrixCell cell{
          advm::soc::find_derivative(report.derivative), report.platform};
      std::vector<const core::TestRunRecord*> picks;
      for (const auto& env : envs_) {
        std::vector<const core::TestRunRecord*> in_env;
        for (const auto& rec : report.records) {
          if (rec.environment == env.name) in_env.push_back(&rec);
        }
        if (!in_env.empty()) {
          picks.push_back(in_env[rng_.range(0, in_env.size() - 1)]);
        }
      }
      if (cycle_limit && report.derivative == "SC88-C") {
        std::vector<const core::TestRunRecord*> spinning;
        for (const auto& rec : report.records) {
          if (rec.environment == "UART_MODULE" &&
              rec.stop == advm::sim::StopReason::CycleLimit) {
            spinning.push_back(&rec);
          }
        }
        out.operation(!spinning.empty(),
                      "cross-check: no SC88-C UART test reached the cap");
        if (!spinning.empty()) {
          picks.push_back(spinning[rng_.range(0, spinning.size() - 1)]);
        }
      }
      for (const core::TestRunRecord* rec : picks) {
        const std::string error = perfbench::cross_check(
            session.context(), kRoot, cell, *rec, kMaxInstructions);
        out.operation(error.empty(), "cross-check " + error);
        ++cross_checked_cells;
      }
    }
  }

  /// Generates the tree and imports the written copy into `imported`.
  std::string load_tree(core::Session& imported) {
    core::Session generated(session_config());
    const std::string error = generate_tree(envs_, tests_, generated);
    if (!error.empty()) return error;
    advm::support::import_from_disk(imported.vfs(), tree_dir_, kRoot);
    return compare_trees(generated.vfs(), imported.vfs());
  }

  /// Profiles the traced lap just run into per-layer samples; keeps the
  /// spans of the first kTraceFileLaps laps for the trace file.
  void record_lap(Results& out, Tracer& tracer, const LapCounters& counters) {
    std::vector<perfbench::Span> spans = tracer.take();
    const auto profile = perfbench::profile_lap(spans, kJobs);
    if (++traced_laps_ <= kTraceFileLaps) {
      kept_spans.insert(kept_spans.end(), spans.begin(), spans.end());
    }
    record_layers(out, profile, counters);
  }

  std::size_t tests_;
  advm::support::SplitMix64 rng_;
  std::vector<core::EnvironmentConfig> envs_;
  fs::path work_dir_;
  std::string tree_dir_;
  std::size_t traced_laps_ = 0;
};

/// A cold Session per lap that imports the tree from disk and runs one
/// MatrixRequest, rendered to JSON when `render` — what every CLI
/// invocation pays. `healthy` and `stale` differ only in tree size, cube,
/// rendering and whether every test must pass.
class ColdMatrixWorkload : public Workload {
 public:
  ColdMatrixWorkload(const Options& options, std::size_t tests,
                     std::uint64_t salt, std::vector<std::string> derivatives,
                     std::vector<std::string> platforms, bool render,
                     bool expect_pass)
      : Workload(options, tests, salt),
        render_(render),
        expect_pass_(expect_pass) {
    request_.root = kRoot;
    request_.derivatives = std::move(derivatives);
    request_.platforms = std::move(platforms);
    request_.max_instructions = kMaxInstructions;
  }

  LapTime lap(Results& out, std::size_t& records) override {
    core::MatrixResult result;
    std::string json;
    const LapTimer timer;
    {
      core::Session session(session_config());
      advm::support::import_from_disk(session.vfs(), tree_dir_, kRoot);
      result = session.run(request_);
      if (render_) json = core::to_json(result);
    }
    const LapTime time = timer.stop();
    records += record_count(result.cells);
    const std::string error = check(result, json);
    out.operation(error.empty(), "matrix: " + error);
    return time;
  }

  void traced_lap(Results& out, Tracer& tracer, std::uint32_t id) override {
    LapCounters counters;
    core::MatrixResult replayed;
    replayed.backend = "thread";
    std::string json;
    {
      ScopedSpan lap(tracer, perfbench::kLapSpan, 0, id);
      std::optional<core::Session> session;
      {
        ScopedSpan span(tracer, "session.open", lap.id(), id);
        session.emplace(session_config());
      }
      counters.begin(*session);
      {
        ScopedSpan span(tracer, "support.import", lap.id(), id);
        advm::support::import_from_disk(session->vfs(), tree_dir_, kRoot);
      }
      std::vector<core::MatrixCell> cells;
      for (const auto& d : request_.derivatives) {
        for (const auto& p : request_.platforms) {
          cells.push_back({advm::soc::find_derivative(d),
                           *advm::sim::platform_from_name(p)});
        }
      }
      replayed.cells = perfbench::replay_matrix(
          session->context(), kRoot, cells, kMaxInstructions, tracer,
          lap.id(), id, counters.replay);
      if (render_) {
        ScopedSpan span(tracer, "report.render", lap.id(), id);
        json = core::to_json(replayed);
      }
      counters.end(*session, replayed.cells);
      ScopedSpan span(tracer, "session.close", lap.id(), id);
      session.reset();
    }
    counters.report_bytes = json.size();
    const std::string error = check(replayed, json);
    out.operation(error.empty(), "traced matrix: " + error);
    if (!checked_) {
      // A session of its own: the lap's was closed inside the lap.
      core::Session session(session_config());
      advm::support::import_from_disk(session.vfs(), tree_dir_, kRoot);
      cross_check(out, session, replayed.cells, !expect_pass_);
      checked_ = true;
    }
    record_lap(out, tracer, counters);
  }

  [[nodiscard]] bool cross_checked() const override { return checked_; }

 private:
  /// Checks a lap's result against the first lap's (and its report bytes
  /// when the workload renders). Returns the first problem, or "".
  std::string check(const core::MatrixResult& result,
                    const std::string& json) {
    if (!result.status.ok()) {
      return result.status.code + ": " + result.status.message;
    }
    if (expect_pass_) {
      std::string error = all_pass(result.cells, tests_);
      if (!error.empty()) return error;
    }
    const auto summary = summarize(result.cells);
    if (!reference_) reference_ = summary;
    std::string error = compare(*reference_, summary);
    if (!error.empty()) return error;
    if (!render_) return {};
    if (!reference_json_) reference_json_ = json;
    return json == *reference_json_ ? "" : "report bytes differ";
  }

  core::MatrixRequest request_;
  bool render_;
  bool expect_pass_;
  bool checked_ = false;
  std::optional<std::vector<CellSummary>> reference_;
  std::optional<std::string> reference_json_;
};

/// One warm Session holding the tree; each lap ports it to the next
/// derivative of the cycle, lints it and runs it there.
class PortWorkload : public Workload {
 public:
  PortWorkload(const Options& options, std::size_t tests, std::uint64_t salt)
      : Workload(options, tests, salt),
        position_(rng_.range(0, kDerivatives.size() - 1)) {}

  /// Tree, warm session, and one warm-up pass over the whole cycle. It
  /// leaves the tree on the seeded derivative; timed laps start at the
  /// next one.
  std::string setup() override {
    session_.reset();
    session_.emplace(session_config());
    std::string error = load_tree(*session_);
    if (!error.empty()) return error;
    for (std::size_t i = 0; i < kDerivatives.size(); ++i) {
      Results warmup;
      std::size_t records = 0;
      port_lap(warmup, advance(), records);
      if (!warmup.correct()) return "warm-up lap failed";
    }
    return {};
  }

  LapTime lap(Results& out, std::size_t& records) override {
    return port_lap(out, advance(), records);
  }

  void traced_lap(Results& out, Tracer& tracer, std::uint32_t id) override {
    const std::string& d = advance();
    // Skip one derivative per traced lap: untraced and traced laps
    // alternate and the cycle has an even length, so without the skip
    // the traced laps would only ever visit half of it.
    advance();
    LapCounters counters;
    counters.begin(*session_);
    core::PortResult port;
    core::LintResult lint;
    std::vector<core::RegressionReport> reports;
    {
      ScopedSpan lap(tracer, perfbench::kLapSpan, 0, id);
      {
        ScopedSpan span(tracer, "porting.port", lap.id(), id);
        port = session_->run(port_request(d));
      }
      {
        ScopedSpan span(tracer, "lint.lint", lap.id(), id);
        lint = session_->run(lint_request(d));
      }
      const core::MatrixCell cell{advm::soc::find_derivative(d),
                                  advm::sim::PlatformKind::GoldenModel};
      reports = perfbench::replay_matrix(session_->context(), kRoot, {cell},
                                         kMaxInstructions, tracer, lap.id(),
                                         id, counters.replay);
    }
    counters.end(*session_, reports);
    out.operation(port.status.ok(),
                  "port to " + d + ": " + port.status.message);
    std::string error = check_lint(d, lint);
    out.operation(error.empty(), "lint on " + d + ": " + error);
    // The untraced run of the same tree is the replay's reference.
    const core::RunResult reference = session_->run(run_request(d));
    error = check_run(d, reference);
    if (error.empty()) error = all_pass(reports, tests_);
    if (error.empty()) {
      error = compare(summarize({reference.report}), summarize(reports));
    }
    out.operation(error.empty(), "traced run on " + d + ": " + error);
    if (checked_.insert(d).second) cross_check(out, *session_, reports, false);
    record_lap(out, tracer, counters);
  }

  [[nodiscard]] bool cross_checked() const override {
    return checked_.size() == kDerivatives.size();
  }

 private:
  const std::string& advance() {
    position_ = (position_ + 1) % kDerivatives.size();
    return kDerivatives[position_];
  }

  static core::PortRequest port_request(const std::string& d) {
    core::PortRequest port;
    port.root = kRoot;
    port.to = d;
    return port;
  }
  static core::LintRequest lint_request(const std::string& d) {
    core::LintRequest lint;
    lint.root = kRoot;
    lint.derivative = d;
    return lint;
  }
  static core::RunRequest run_request(const std::string& d) {
    core::RunRequest run;
    run.root = kRoot;
    run.derivative = d;
    run.max_instructions = kMaxInstructions;
    return run;
  }

  LapTime port_lap(Results& out, const std::string& d,
                   std::size_t& records) {
    const LapTimer timer;
    const core::PortResult port = session_->run(port_request(d));
    const core::LintResult lint = session_->run(lint_request(d));
    const core::RunResult run = session_->run(run_request(d));
    const LapTime time = timer.stop();
    records += run.report.records.size();
    out.operation(port.status.ok(),
                  "port to " + d + ": " + port.status.message);
    std::string error = check_lint(d, lint);
    out.operation(error.empty(), "lint on " + d + ": " + error);
    error = check_run(d, run);
    out.operation(error.empty(), "run on " + d + ": " + error);
    return time;
  }

  /// Lint must analyze every test and say the same thing on every visit
  /// to a derivative.
  std::string check_lint(const std::string& d, const core::LintResult& lint) {
    if (!lint.status.ok()) return lint.status.message;
    if (lint.report.cells != tests_) {
      return std::to_string(lint.report.cells) + " cells linted";
    }
    const std::string json = core::to_json(lint);
    auto [it, fresh] = lint_reference_.emplace(d, json);
    return fresh || it->second == json ? "" : "report differs from first visit";
  }

  /// A ported tree passes on its own derivative, the same way every visit.
  std::string check_run(const std::string& d, const core::RunResult& run) {
    if (!run.status.ok()) return run.status.message;
    std::string error = all_pass({run.report}, tests_);
    if (!error.empty()) return error;
    const auto summary = summarize({run.report});
    auto [it, fresh] = run_reference_.emplace(d, summary);
    return fresh ? "" : compare(it->second, summary);
  }

  std::size_t position_;
  std::optional<core::Session> session_;
  std::set<std::string> checked_;
  std::map<std::string, std::string> lint_reference_;
  std::map<std::string, std::vector<CellSummary>> run_reference_;
};

std::unique_ptr<Workload> make_workload(const Options& options) {
  // Fixed test totals per workload (BENCHMARK.json records why).
  if (options.workload == "healthy") {
    return std::make_unique<ColdMatrixWorkload>(
        options, 1500, 0x6865616c746879ULL, std::vector<std::string>{"SC88-A"},
        std::vector<std::string>{"golden-model", "hdl-rtl"}, true, true);
  }
  if (options.workload == "stale") {
    return std::make_unique<ColdMatrixWorkload>(
        options, 300, 0x7374616c65ULL, kDerivatives,
        std::vector<std::string>{"golden-model"}, false, false);
  }
  if (options.workload == "port") {
    return std::make_unique<PortWorkload>(options, 300, 0x706f7274ULL);
  }
  return nullptr;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::cerr << "usage: advm_perfbench --workload healthy|stale|port --seed N "
               "--seconds S --trace 0|1 --work DIR\n";
  return 2;
}

int run(const Options& options) {
  auto workload = make_workload(options);
  if (!workload) return usage();
  Results out;

  std::string error = workload->write_tree();
  out.operation(error.empty(), "writing the tree: " + error);
  for (int i = 0; error.empty() && i < kSetups; ++i) {
    const double calibration_ms = calibration_cpu_ms();
    const LapTimer timer;
    error = workload->setup();
    const LapTime time = timer.stop();
    out.sample("setup_s", "s",
               time.cpu_ms / 1e3 * kCalibrationRefMs / calibration_ms);
    out.sample("setup_cpu_s", "s", time.cpu_ms / 1e3);
    out.sample("setup_wall_s", "s", time.wall_ms / 1e3);
    out.operation(error.empty(), "setup: " + error);
  }
  if (!error.empty()) {
    out.print(options.workload, options.seed, options.trace);
    return 1;
  }
  for (const auto& env : workload->split()) {
    out.sample("input." + env.name, "count",
               static_cast<double>(env.test_count));
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (!options.trace) {
    std::size_t records = 0;
    double wall_ms = 0;
    for (std::size_t laps = 0;
         laps < kMinLaps || seconds_since(t0) < options.seconds; ++laps) {
      const double calibration_ms = calibration_cpu_ms();
      const LapTime time = workload->lap(out, records);
      out.sample("lap_ms", "ms", time.wall_ms);
      out.sample("lap_cpu_ms", "ms", time.cpu_ms);
      out.sample("lap_ref_cpu_ms", "ms",
                 time.cpu_ms * kCalibrationRefMs / calibration_ms);
      out.sample("calibration_ms", "ms", calibration_ms);
      wall_ms += time.wall_ms;
    }
    out.sample("tests_per_s", "1/s",
               static_cast<double>(records) / (wall_ms / 1e3));
    out.ratio("tests_per_s", static_cast<double>(records), wall_ms / 1e3);
    out.sample("peak_rss_mb", "MB", peak_rss_mb());
  } else {
    Tracer tracer;
    std::uint32_t id = 0;
    while (id < kMinLaps || seconds_since(t0) < options.seconds ||
           !workload->cross_checked()) {
      std::size_t records = 0;
      out.sample("trace.untraced_lap_ms", "ms",
                 workload->lap(out, records).wall_ms);
      workload->traced_lap(out, tracer, ++id);
    }
    const fs::path trace_file = fs::path(options.work_dir) / "trace.json";
    out.operation(
        perfbench::write_chrome_trace(workload->kept_spans,
                                      trace_file.string()),
        "cannot write " + trace_file.string());
    const double traced = median(out.samples("trace.lap_ms"));
    const double untraced = median(out.samples("trace.untraced_lap_ms"));
    const double overhead = traced / untraced;
    out.sample("trace.overhead_ratio", "ratio", overhead);
    // The replay calls the layers the way Session::run does; a lap that
    // takes much longer or shorter than the untraced one no longer does.
    out.operation(overhead >= kMinOverhead && overhead <= kMaxOverhead,
                  "traced lap takes " + std::to_string(overhead) +
                      " x the untraced lap: the replay no longer matches "
                      "Session::run");
    const double attributed = median(out.samples("trace.attributed_ratio"));
    out.operation(attributed >= kMinAttributed,
                  "named spans cover only " + std::to_string(attributed) +
                      " of the traced lap");
    out.sample("xcheck.cells", "count",
               static_cast<double>(workload->cross_checked_cells));
  }
  out.ratio("error_rate", static_cast<double>(out.failed()),
            static_cast<double>(out.attempted()));
  out.print(options.workload, options.seed, options.trace);
  return out.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value != "0";
      } else if (flag == "--work") {
        options.work_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.work_dir.empty()) return usage();
  try {
    fs::create_directories(options.work_dir);
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "advm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
