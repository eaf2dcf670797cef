#include "trace.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

struct ThreadSlot {
  std::uint64_t epoch = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

bool is_pool_phase(std::string_view name) {
  return name == kEnvPhase || name == kAssemblePhase || name == kRunPhase;
}

}  // namespace

std::uint64_t Tracer::next_epoch() {
  static std::atomic<std::uint64_t> epochs{1};
  return epochs.fetch_add(1);
}

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Buffer& Tracer::buffer() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (tls_slot.epoch != epoch) {
    auto owned = std::make_unique<Buffer>();
    const std::lock_guard<std::mutex> lock(mutex_);
    owned->thread = static_cast<std::uint32_t>(buffers_.size());
    owned->spans.reserve(1024);
    tls_slot.buffer = owned.get();
    tls_slot.epoch = epoch;
    buffers_.push_back(std::move(owned));
  }
  return *static_cast<Buffer*>(tls_slot.buffer);
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::uint32_t lap) {
  Buffer& buf = buffer();
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.name = name;
  span.lap = lap;
  span.thread = buf.thread;
  buf.open.push_back(buf.spans.size());
  buf.spans.push_back(span);
  buf.spans.back().start_ns = now_ns();
  return span.id;
}

void Tracer::end(std::uint32_t id, const char* name) {
  const std::int64_t t = now_ns();
  Buffer& buf = buffer();
  // Spans are scoped, so the one closing is the innermost open one.
  assert(!buf.open.empty() && buf.spans[buf.open.back()].id == id);
  (void)id;
  Span& span = buf.spans[buf.open.back()];
  buf.open.pop_back();
  span.end_ns = t;
  if (name != nullptr) span.name = name;
}

std::vector<Span> Tracer::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  buffers_.clear();
  epoch_.store(next_epoch(), std::memory_order_relaxed);
  return all;
}

LapProfile profile_lap(const std::vector<Span>& lap, std::size_t workers) {
  LapProfile profile;
  std::vector<const Span*> spans;
  for (const Span& s : lap) spans.push_back(&s);
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i]->id] = i;
  auto parent_of = [&](std::size_t i) -> std::ptrdiff_t {
    auto it = index.find(spans[i]->parent);
    return it == index.end() ? -1 : static_cast<std::ptrdiff_t>(it->second);
  };

  std::vector<std::size_t> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::ptrdiff_t p = parent_of(i); p >= 0;
         p = parent_of(static_cast<std::size_t>(p))) {
      ++depth[i];
    }
    if (std::string_view(spans[i]->name) == kLapSpan) {
      profile.wall_ms =
          static_cast<double>(spans[i]->end_ns - spans[i]->start_ns) / 1e6;
    }
    profile.count[spans[i]->name] += 1;
    if (std::string_view(spans[i]->name) == "sim.run") {
      profile.sim_run_ms.push_back(
          static_cast<double>(spans[i]->end_ns - spans[i]->start_ns) / 1e6);
    }
  }

  // Sweep over start/end events. A span accrues self time while it runs
  // with no running child; at equal timestamps ends go first, parents
  // start before their children and end after them.
  struct Event {
    std::int64_t t;
    bool start;
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    events.push_back({spans[i]->start_ns, true, i});
    events.push_back({spans[i]->end_ns, false, i});
  }
  std::sort(events.begin(), events.end(), [&](const Event& a, const Event& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.start != b.start) return !a.start;
    return a.start ? depth[a.span] < depth[b.span]
                   : depth[a.span] > depth[b.span];
  });

  std::vector<bool> running(spans.size(), false);
  std::vector<std::size_t> running_children(spans.size(), 0);
  std::vector<std::size_t> leaves;
  auto drop_leaf = [&](std::size_t i) {
    auto it = std::find(leaves.begin(), leaves.end(), i);
    if (it != leaves.end()) leaves.erase(it);
  };
  std::int64_t prev = events.empty() ? 0 : events.front().t;
  for (const Event& e : events) {
    const double dt = static_cast<double>(e.t - prev) / 1e6;
    if (dt > 0) {
      for (std::size_t leaf : leaves) profile.self_ms[spans[leaf]->name] += dt;
    }
    prev = e.t;
    const std::ptrdiff_t p = parent_of(e.span);
    if (e.start) {
      running[e.span] = true;
      if (running_children[e.span] == 0) leaves.push_back(e.span);
      if (p >= 0 && running_children[p]++ == 0) drop_leaf(p);
    } else {
      running[e.span] = false;
      drop_leaf(e.span);
      if (p >= 0 && --running_children[p] == 0 && running[p]) {
        leaves.push_back(static_cast<std::size_t>(p));
      }
    }
  }

  // Pool phases: tasks are the phase span's direct children.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!is_pool_phase(spans[i]->name)) continue;
    const Span& phase = *spans[i];
    std::map<std::uint32_t, std::int64_t> last_end;  // per worker thread
    std::size_t tasks = 0;
    std::int64_t busy = 0;
    for (const Span* s : spans) {
      if (s->parent != phase.id) continue;
      ++tasks;
      busy += s->end_ns - s->start_ns;
      auto [it, fresh] = last_end.emplace(s->thread, s->end_ns);
      if (!fresh) it->second = std::max(it->second, s->end_ns);
    }
    if (tasks == 0) continue;
    const auto pool = static_cast<double>(std::min(workers, tasks));
    profile.pool_busy_ms += static_cast<double>(busy) / 1e6;
    profile.pool_capacity_ms +=
        static_cast<double>(phase.end_ns - phase.start_ns) / 1e6 * pool;
    std::int64_t first_idle = phase.start_ns;  // a worker that got no task
    std::int64_t last_done = phase.start_ns;
    if (last_end.size() >= static_cast<std::size_t>(pool)) {
      first_idle = last_end.begin()->second;
      for (const auto& [thread, t] : last_end) {
        first_idle = std::min(first_idle, t);
      }
    }
    for (const auto& [thread, t] : last_end) last_done = std::max(last_done, t);
    profile.pool_tail_ms += static_cast<double>(last_done - first_idle) / 1e6;
  }
  return profile;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
  }
  out << "{\"traceEvents\":[";
  char line[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"lap\":%u}}",
                  i == 0 ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                  s.parent, s.lap);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
