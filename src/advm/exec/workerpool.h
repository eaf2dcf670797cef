// Persistent worker pool — the process-management substrate of the
// process execution backend.
//
// A WorkerPool posix_spawn(3)s N long-lived `advm worker --serve`
// processes once per orchestration (argv vector, no shell — paths never
// pass through quoting) and speaks the line-delimited JSON serve
// protocol (workplan.h, ServeRequest) over each worker's stdin/stdout
// pipes. One request is outstanding per worker at a time, so a
// write-request/read-response round trip can never deadlock on pipe
// buffers. stderr goes to a per-worker file in the scratch directory for
// post-mortem diagnostics.
//
// Shutdown is EOF-driven: closing a worker's stdin makes its serve loop
// exit 0; the pool then waitpid(2)s every child. A worker that survives
// a grace period after EOF is killed rather than wedging the
// orchestrator.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "advm/session.h"

namespace advm::core::exec {

class WorkerPool {
 public:
  WorkerPool() = default;
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool() { shutdown(); }

  /// Spawns `count` `exe worker --serve` processes. Per-worker stderr
  /// lands in `scratch` as serve-<i>.err.txt. On failure the pool is left
  /// empty (already-spawned workers are reaped).
  [[nodiscard]] Status spawn(const std::string& exe,
                             const std::string& scratch, std::size_t count);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// True while slot `i` holds a live (well, unretired — the process may
  /// have died on its own) worker with open pipes.
  [[nodiscard]] bool alive(std::size_t i) const {
    return i < workers_.size() && workers_[i].pid > 0;
  }

  /// Forcibly ends slot `i`'s worker: SIGKILL, reap, close both pipe
  /// ends. Idempotent, and safe on a worker that already exited (the kill
  /// is a no-op on the zombie; the reap collects it). The stderr capture
  /// file is kept for diagnostics until shutdown() or a respawn truncates
  /// it.
  void retire(std::size_t i);

  /// Replaces slot `i`'s (retired or dead) worker with a freshly spawned
  /// process reusing the slot's stderr path. The new worker is blank — the
  /// caller re-Inits it. On failure the slot stays retired and the rest of
  /// the pool is untouched.
  [[nodiscard]] Status respawn(std::size_t i);

  /// Per-request response deadline for roundtrip(), in milliseconds;
  /// 0 waits forever. Applies to requests issued after the call.
  void set_request_timeout_ms(std::size_t ms) { request_timeout_ms_ = ms; }

  /// Writes one request line to worker `i` and reads one response line
  /// into `response`. Not synchronized: callers drive each worker from
  /// one thread at a time (the dispatch loop owns worker i). A typed
  /// Status — with the tail of the worker's stderr folded in — when the
  /// pipe breaks or the worker exits mid-request. A worker that produces
  /// no response line within the request deadline (a wedged simulated
  /// test, an infinite loop) is SIGKILLed on the spot — shutdown() then
  /// reaps it like any other escalated worker — and the call returns a
  /// typed advm.exec-worker-timeout Status instead of blocking the
  /// orchestrator forever in read(2).
  [[nodiscard]] Status roundtrip(std::size_t i, const std::string& request,
                                 std::string* response);

  /// Closes every worker's stdin (EOF = shutdown) and reaps the
  /// processes, escalating to SIGKILL for a worker that ignores EOF.
  /// Each worker's stderr capture file is removed after its tail is
  /// folded into any diagnostic (kept on ADVM_EXEC_KEEP_SCRATCH=1, with
  /// the rest of the scratch tree). Returns the first nonzero exit
  /// diagnostic, or OK. Idempotent.
  Status shutdown();

  /// Path of worker `i`'s stderr capture file.
  [[nodiscard]] const std::string& stderr_path(std::size_t i) const {
    return workers_[i].stderr_path;
  }

 private:
  struct Worker {
    pid_t pid = -1;
    int stdin_fd = -1;
    int stdout_fd = -1;
    std::string stderr_path;
    std::string read_buffer;  ///< bytes read past the last returned line
  };

  [[nodiscard]] Status spawn_slot(std::size_t i);

  std::vector<Worker> workers_;
  std::string exe_;      ///< remembered by spawn() for respawn()
  std::string scratch_;
  std::size_t request_timeout_ms_ = 600'000;  ///< 0 = no deadline
};

// ------------------------------------------------ process/pipe helpers --
//
// The kill/reap escalation and the poll-deadline line reader are shared
// by WorkerPool (retire/shutdown/roundtrip) and the serve daemon + attach
// client (src/advm/serve/): one escalation policy, one errno-capture
// discipline, instead of three divergent copies.

/// Outcome of kill_and_reap. `error` is the waitpid errno, captured
/// before any cleanup I/O gets a chance to clobber it.
struct ReapOutcome {
  bool reaped = false;     ///< waitpid produced a wait status
  bool escalated = false;  ///< SIGKILL was needed (grace expired, or 0)
  int status = 0;          ///< raw wait status when `reaped`
  int error = 0;           ///< captured waitpid errno when !reaped
};

/// Ends a child process with the pool's escalation policy: poll
/// waitpid(WNOHANG) in 10ms steps for `grace_ms` (a process shutting
/// down on its own — EOF-driven worker exit, a daemon honouring --stop —
/// is reaped without a signal), then SIGKILL and reap unconditionally.
/// `grace_ms` 0 kills immediately (the retire path). EINTR-safe; safe on
/// a process that already exited (the kill hits a zombie, the reap
/// collects it).
ReapOutcome kill_and_reap(pid_t pid, std::size_t grace_ms);

/// The longest line read_line_deadline accepts, newline excluded. A serve
/// worker's reply for one 1500-test cell measures ~316 KB, and an attached
/// daemon's matrix reply holds one such report per cell; the cap sits
/// ~200× above the former, so only a broken or hostile peer reaches it.
inline constexpr std::size_t kMaxReplyLineBytes = std::size_t{64} << 20;

/// What read_line_deadline produced.
enum class LineRead : std::uint8_t {
  Line,     ///< one full line is in *line (newline stripped)
  Eof,      ///< the peer closed before completing a line
  Timeout,  ///< the deadline expired mid-line
  Error,    ///< poll/read failed; errno in *io_errno
  TooLong,  ///< the line outgrew kMaxReplyLineBytes; the stream is unusable
};

/// Reads one '\n'-terminated line from `fd` with a poll(2) deadline —
/// the liveness primitive behind WorkerPool::roundtrip's per-request
/// timeout, reused by the serve daemon/client for attach deadlines.
/// `carry` holds bytes read past the last returned line and must persist
/// across calls on the same stream; `timeout_ms` 0 waits forever. Each
/// read scans only its new bytes for the newline, and a line longer than
/// kMaxReplyLineBytes ends the call with TooLong. On
/// Error the failing errno is captured into *io_errno (when non-null)
/// before returning, so callers can fold it into a diagnostic without
/// racing their own cleanup I/O.
[[nodiscard]] LineRead read_line_deadline(int fd, std::string* carry,
                                          std::string* line,
                                          std::size_t timeout_ms,
                                          int* io_errno = nullptr);

/// write(2)s all of `bytes` to `fd`, with SIGPIPE blocked and swallowed
/// for the duration so a vanished peer surfaces as EPIPE (a typed Status
/// upstream), never a process kill. On failure errno identifies the
/// write error.
[[nodiscard]] bool write_all_fd(int fd, std::string_view bytes);

/// Effective per-worker pool size when `jobs` (0 = one per hardware
/// thread) is divided across `workers` live worker processes:
/// ⌊jobs/workers⌋ floored at 1, so the pool-wide total is at most
/// max(jobs, workers) — never the old jobs×workers — and a worker is
/// never handed a zero-thread pool. (With more shards than jobs the
/// floor wins: the user's explicit --shards bounds the excess.)
[[nodiscard]] std::size_t divide_jobs(std::size_t jobs, std::size_t workers);

}  // namespace advm::core::exec
