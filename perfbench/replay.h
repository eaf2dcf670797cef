// Traced replay of a regression lap through the public call of every
// layer, and the interpreter cross-check of sampled cells.
//
// replay_matrix does what RegressionRunner::run_matrix does on the thread
// backend — discover, assemble every translation unit once through the
// shared ObjectCache, then link, lease a board, load and run each
// (cell × test) on the same parallel_for pool — but from the benchmark's
// side, with a span around each call. Its reports must equal the untraced
// Session::run outcome cell by cell; the benchmark checks that, so a
// drift between this replay and the runner shows up as a failed run.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "advm/context.h"
#include "advm/regression.h"
#include "trace.h"

namespace perfbench {

/// Work counted by the replay at the layer boundaries.
struct ReplayCounters {
  std::atomic<std::uint64_t> links{0};
  std::atomic<std::uint64_t> dcache_decodes{0};
};

/// Replays one matrix run over the tree at `root` (thread backend
/// semantics, `ctx.jobs` workers). Spans are children of `parent`.
[[nodiscard]] std::vector<advm::core::RegressionReport> replay_matrix(
    const advm::core::SessionContext& ctx, std::string_view root,
    const std::vector<advm::core::MatrixCell>& cells,
    std::uint64_t max_instructions, Tracer& tracer, std::uint32_t parent,
    std::uint32_t lap, ReplayCounters& counters);

/// Re-runs the test behind `fast` (a record of a replayed or Session run
/// of `cell` over `root`) on a fresh board with the decode cache off —
/// the plain fetch/decode/execute interpreter. Returns an empty string
/// when verdict, stop reason, instructions, cycles and state digest all
/// match, else a description of the first difference.
[[nodiscard]] std::string cross_check(const advm::core::SessionContext& ctx,
                                      std::string_view root,
                                      const advm::core::MatrixCell& cell,
                                      const advm::core::TestRunRecord& fast,
                                      std::uint64_t max_instructions);

}  // namespace perfbench
