// Outside-in span recorder for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer's public API in a
// ScopedSpan. Spans land in per-thread buffers (no lock on the hot path;
// a thread takes the registry lock once, on its first span) and are only
// read after every worker has joined, so recording never synchronises
// the threads it observes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = no parent (a lap root)
  const char* name = "";     ///< static string; doubles as the layer name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t lap = 0;
  std::uint32_t thread = 0;  ///< index of the recording thread's buffer
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its id.
  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint32_t lap);
  /// Closes span `id`, which the calling thread opened. `name`, when
  /// non-null, replaces the name given at begin (a cache request is only
  /// known to be a hit or a miss once it returns).
  void end(std::uint32_t id, const char* name = nullptr);

  /// Moves out every span recorded so far. Call only when no thread is
  /// recording; later spans start from empty buffers.
  [[nodiscard]] std::vector<Span> take();

 private:
  [[nodiscard]] static std::int64_t now_ns();

  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices of spans not yet ended
  };
  Buffer& buffer();

  std::atomic<std::uint32_t> next_id_{1};
  /// A thread whose cached buffer is from another epoch registers a new
  /// one; take() starts a new epoch, so no thread keeps a freed buffer.
  std::atomic<std::uint64_t> epoch_{next_epoch()};
  std::mutex mutex_;  ///< guards `buffers_` (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;

  static std::uint64_t next_epoch();
};

/// RAII span. `parent` 0 makes a root.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent,
             std::uint32_t lap)
      : tracer_(tracer), id_(tracer.begin(name, parent, lap)) {}
  ~ScopedSpan() { tracer_.end(id_, rename_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }
  void rename(const char* name) { rename_ = name; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
  const char* rename_ = nullptr;
};

/// Time accounting of one lap's spans.
struct LapProfile {
  double wall_ms = 0;  ///< duration of the lap's root span
  /// Per span name: self time summed over threads (a span's duration
  /// minus the part of it its children cover).
  std::map<std::string, double> self_ms;
  std::map<std::string, std::size_t> count;
  /// Durations (ms) of every span named `sim.run`, for per-test latency.
  std::vector<double> sim_run_ms;
  /// Pool phases: task busy time over wall × workers, and the idle tail
  /// from the first worker's last task end to the phase's last task end.
  double pool_busy_ms = 0;
  double pool_capacity_ms = 0;
  double pool_tail_ms = 0;
};

/// Names the pool phases whose direct children are worker tasks: one per
/// parallel_for the regression runner makes.
inline constexpr const char* kEnvPhase = "regression.env_phase";
inline constexpr const char* kAssemblePhase = "regression.assemble_phase";
inline constexpr const char* kRunPhase = "regression.run_phase";
inline constexpr const char* kLapSpan = "lap";

/// Profiles one lap's spans (its root is the span named kLapSpan);
/// `workers` is the pool size the phases ran on.
[[nodiscard]] LapProfile profile_lap(const std::vector<Span>& spans,
                                     std::size_t workers);

/// Writes spans as Chrome trace-event JSON (`ph:"X"` events), which
/// Perfetto and chrome://tracing load. Returns false on I/O failure.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
