#include "advm/exec/workerpool.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

extern char** environ;

namespace advm::core::exec {

namespace {

Status spawn_error(const std::string& detail) {
  return Status::error("advm.exec-spawn-failed", detail);
}

/// Reads the tail of a worker's stderr capture, for folding into
/// pipe-failure diagnostics.
std::string stderr_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  std::string text = os.str();
  if (text.size() > 400) text = text.substr(text.size() - 400);
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

/// Blocks SIGPIPE on the calling thread for the duration of a pipe write
/// and swallows any instance raised by it, so writing to a worker that
/// already died surfaces as EPIPE (a typed Status upstream) instead of
/// killing the whole orchestrator — the process-wide disposition is left
/// alone because this is library code.
class SigPipeGuard {
 public:
  SigPipeGuard() {
    sigemptyset(&pipe_set_);
    sigaddset(&pipe_set_, SIGPIPE);
    blocked_ =
        ::pthread_sigmask(SIG_BLOCK, &pipe_set_, &old_set_) == 0;
  }
  ~SigPipeGuard() {
    if (!blocked_) return;
    // The caller is about to report the write's errno; the sigtimedwait
    // poll below legitimately fails with EAGAIN and must not clobber it.
    const int saved_errno = errno;
    // Consume a SIGPIPE our write raised while blocked; without this it
    // would be delivered the moment the old mask is restored.
    if (!sigismember(&old_set_, SIGPIPE)) {
      struct timespec poll_only = {0, 0};
      while (::sigtimedwait(&pipe_set_, nullptr, &poll_only) >= 0) {
      }
    }
    ::pthread_sigmask(SIG_SETMASK, &old_set_, nullptr);
    errno = saved_errno;
  }

 private:
  sigset_t pipe_set_;
  sigset_t old_set_;
  bool blocked_ = false;
};

/// RAII wrapper so every early return releases the file actions.
struct FileActions {
  posix_spawn_file_actions_t actions;
  FileActions() { posix_spawn_file_actions_init(&actions); }
  ~FileActions() { posix_spawn_file_actions_destroy(&actions); }
};

/// posix_spawn with an argv vector — no shell, no quoting. `actions`
/// already carries the child's fd plumbing.
int spawn_process(const std::string& exe,
                  const std::vector<std::string>& args,
                  posix_spawn_file_actions_t* actions, pid_t* pid) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  return ::posix_spawn(pid, exe.c_str(), actions, nullptr, argv.data(),
                       environ);
}

}  // namespace

bool write_all_fd(int fd, std::string_view bytes) {
  const SigPipeGuard guard;
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

ReapOutcome kill_and_reap(pid_t pid, std::size_t grace_ms) {
  ReapOutcome outcome;
  if (pid <= 0) return outcome;
  int status = 0;
  pid_t reaped = 0;
  // A cooperating process (EOF-driven worker exit, a daemon honouring
  // --stop) exits promptly; poll for the grace window before escalating
  // so it never hangs the caller.
  const std::size_t attempts = grace_ms / 10;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped < 0 && errno == EINTR) {
      reaped = 0;
      continue;
    }
    if (reaped != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped == 0) {
    outcome.escalated = true;
    ::kill(pid, SIGKILL);
    do {
      reaped = ::waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
  }
  if (reaped < 0) {
    // Captured immediately: callers fold this into diagnostics whose
    // construction may itself do file I/O.
    outcome.error = errno;
  } else if (reaped > 0) {
    outcome.reaped = true;
    outcome.status = status;
  }
  return outcome;
}

LineRead read_line_deadline(int fd, std::string* carry, std::string* line,
                            std::size_t timeout_ms, int* io_errno) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::size_t scanned = 0;  // leading carry bytes known to hold no '\n'
  for (;;) {
    const std::size_t newline = carry->find('\n', scanned);
    if (newline != std::string::npos && newline <= kMaxReplyLineBytes) {
      line->assign(*carry, 0, newline);
      carry->erase(0, newline + 1);
      return LineRead::Line;
    }
    // A newline past the cap, or none yet after more than the cap.
    if (newline != std::string::npos || carry->size() > kMaxReplyLineBytes) {
      return LineRead::TooLong;
    }
    scanned = carry->size();
    // Bound each wait with poll(2): 60s chunks re-check the deadline (and
    // keep an infinite wait interruptible at the same cadence).
    int wait_ms = 60'000;
    if (timeout_ms != 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return LineRead::Timeout;
      wait_ms = static_cast<int>(std::min<long long>(remaining, 60'000));
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      const int poll_errno = errno;
      if (poll_errno == EINTR) continue;
      if (io_errno != nullptr) *io_errno = poll_errno;
      return LineRead::Error;
    }
    if (ready == 0) continue;  // re-check the deadline
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      const int read_errno = errno;
      if (read_errno == EINTR) continue;
      if (read_errno == EAGAIN || read_errno == EWOULDBLOCK) continue;
      if (io_errno != nullptr) *io_errno = read_errno;
      return LineRead::Error;
    }
    if (n == 0) return LineRead::Eof;
    carry->append(chunk, static_cast<std::size_t>(n));
  }
}

Status WorkerPool::spawn(const std::string& exe, const std::string& scratch,
                         std::size_t count) {
  shutdown();
  exe_ = exe;
  scratch_ = scratch;
  workers_.assign(count, Worker{});
  for (std::size_t i = 0; i < count; ++i) {
    if (Status status = spawn_slot(i); !status.ok()) {
      shutdown();
      return status;
    }
  }
  return {};
}

Status WorkerPool::spawn_slot(std::size_t i) {
  Worker& worker = workers_[i];
  worker.stderr_path = scratch_ + "/serve-" + std::to_string(i) + ".err.txt";
  worker.read_buffer.clear();

  // O_CLOEXEC everywhere: a later-spawned worker must not inherit an
  // earlier worker's pipe ends, or a surviving copy of a sibling's
  // stdin write end would keep EOF-driven shutdown from ever arriving.
  // The child's own ends survive its exec via the dup2 file actions
  // below (the duplicates to fds 0/1 are not close-on-exec).
  int to_worker[2] = {-1, -1};    // orchestrator writes → worker stdin
  int from_worker[2] = {-1, -1};  // worker stdout → orchestrator reads
  if (::pipe2(to_worker, O_CLOEXEC) != 0 ||
      ::pipe2(from_worker, O_CLOEXEC) != 0) {
    // Captured before ::close below gets a chance to clobber it — the
    // diagnostic must name the pipe2 failure, not a cleanup errno.
    const int pipe_errno = errno;
    if (to_worker[0] != -1) {
      ::close(to_worker[0]);
      ::close(to_worker[1]);
    }
    return spawn_error(std::string("pipe: ") + std::strerror(pipe_errno));
  }

  FileActions fa;
  posix_spawn_file_actions_adddup2(&fa.actions, to_worker[0], 0);
  posix_spawn_file_actions_adddup2(&fa.actions, from_worker[1], 1);
  posix_spawn_file_actions_addopen(&fa.actions, 2,
                                   worker.stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);

  const int rc = spawn_process(exe_, {"worker", "--serve"}, &fa.actions,
                               &worker.pid);
  ::close(to_worker[0]);
  ::close(from_worker[1]);
  if (rc != 0) {
    worker.pid = -1;
    ::close(to_worker[1]);
    ::close(from_worker[0]);
    return spawn_error(std::string("posix_spawn ") + exe_ + ": " +
                       std::strerror(rc));
  }
  worker.stdin_fd = to_worker[1];
  worker.stdout_fd = from_worker[0];
  return {};
}

void WorkerPool::retire(std::size_t i) {
  if (i >= workers_.size()) return;
  Worker& worker = workers_[i];
  if (worker.stdin_fd != -1) ::close(worker.stdin_fd);
  if (worker.stdout_fd != -1) ::close(worker.stdout_fd);
  worker.stdin_fd = worker.stdout_fd = -1;
  worker.read_buffer.clear();
  if (worker.pid > 0) {
    (void)kill_and_reap(worker.pid, 0);  // no grace: retire is forcible
    worker.pid = -1;
  }
}

Status WorkerPool::respawn(std::size_t i) {
  if (exe_.empty() || i >= workers_.size()) {
    return spawn_error("respawn before spawn");
  }
  retire(i);
  return spawn_slot(i);
}

Status WorkerPool::roundtrip(std::size_t i, const std::string& request,
                             std::string* response) {
  Worker& worker = workers_[i];
  const auto fail = [&](const std::string& detail) {
    std::string message =
        "serve worker " + std::to_string(i) + ": " + detail;
    const std::string tail = stderr_tail(worker.stderr_path);
    if (!tail.empty()) message += " [worker stderr: " + tail + "]";
    return Status::error("advm.exec-worker-failed", std::move(message));
  };

  if (worker.pid <= 0 || worker.stdin_fd == -1) {
    return fail("is not running");
  }
  if (!write_all_fd(worker.stdin_fd, request) ||
      !write_all_fd(worker.stdin_fd, "\n")) {
    // Captured immediately: fail() tails the stderr capture file, and
    // that file I/O would otherwise overwrite the write's errno.
    const int write_errno = errno;
    return fail("request write failed (" +
                std::string(std::strerror(write_errno)) + ")");
  }
  // Per-request deadline: a worker wedged mid-response (an infinite loop
  // in the simulated test, a deadlocked child) must surface as a typed
  // Status, never hang the orchestrator in a blocking read(2). On expiry
  // the worker is killed on the spot — the same SIGKILL escalation
  // shutdown() applies to EOF-ignoring workers, which then reaps the
  // corpse.
  int io_errno = 0;
  switch (read_line_deadline(worker.stdout_fd, &worker.read_buffer,
                             response, request_timeout_ms_, &io_errno)) {
    case LineRead::Line:
      return {};
    case LineRead::Eof:
      return fail("exited before answering");
    case LineRead::Timeout: {
      if (worker.pid > 0) ::kill(worker.pid, SIGKILL);
      std::string message = "serve worker " + std::to_string(i) +
                            ": no response within " +
                            std::to_string(request_timeout_ms_) +
                            "ms (worker killed)";
      const std::string tail = stderr_tail(worker.stderr_path);
      if (!tail.empty()) message += " [worker stderr: " + tail + "]";
      return Status::error("advm.exec-worker-timeout", std::move(message));
    }
    case LineRead::Error:
      return fail("response read failed (" +
                  std::string(std::strerror(io_errno)) + ")");
    case LineRead::TooLong: {
      // A broken round trip like any other: the caller retires the
      // worker and requeues its cells.
      Status status = fail("reply line longer than " +
                           std::to_string(kMaxReplyLineBytes) + " bytes");
      status.code = "advm.exec-reply-too-large";
      return status;
    }
  }
  return fail("response read failed");
}

Status WorkerPool::shutdown() {
  Status first_failure;
  for (Worker& worker : workers_) {
    if (worker.stdin_fd != -1) ::close(worker.stdin_fd);
    if (worker.stdout_fd != -1) ::close(worker.stdout_fd);
    worker.stdin_fd = worker.stdout_fd = -1;
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& worker = workers_[i];
    if (worker.pid > 0) {
      // EOF-driven exit is prompt; the shared escalation helper polls for
      // a 2s grace before SIGKILLing, so a wedged worker cannot hang the
      // orchestrator.
      const ReapOutcome outcome = kill_and_reap(worker.pid, 2'000);
      if (!outcome.reaped) {
        if (first_failure.ok()) {
          first_failure = Status::error(
              "advm.exec-worker-failed",
              "serve worker " + std::to_string(i) + ": waitpid failed (" +
                  std::strerror(outcome.error) + ")");
        }
      } else if (!WIFEXITED(outcome.status) ||
                 WEXITSTATUS(outcome.status) != 0) {
        if (first_failure.ok()) {
          std::string message =
              "serve worker " + std::to_string(i) +
              (WIFEXITED(outcome.status)
                   ? ": exit code " +
                         std::to_string(WEXITSTATUS(outcome.status))
                   : ": killed by signal");
          const std::string tail = stderr_tail(worker.stderr_path);
          if (!tail.empty()) message += " [worker stderr: " + tail + "]";
          first_failure =
              Status::error("advm.exec-worker-failed", std::move(message));
        }
      }
      worker.pid = -1;
    }
    // The stderr capture served its purpose (the tail above); without
    // this unlink every successful orchestration leaks one file per
    // worker — including retired slots whose pid is already gone, which
    // is why the unlink sits outside the reap branch.
    // ADVM_EXEC_KEEP_SCRATCH=1 keeps them alongside the rest of the
    // scratch tree for post-mortem debugging.
    const char* keep = std::getenv("ADVM_EXEC_KEEP_SCRATCH");
    if ((keep == nullptr || keep[0] != '1') &&
        !worker.stderr_path.empty()) {
      ::unlink(worker.stderr_path.c_str());
    }
  }
  workers_.clear();
  return first_failure;
}

std::size_t divide_jobs(std::size_t jobs, std::size_t workers) {
  if (workers == 0) workers = 1;
  std::size_t total = jobs == 0
                          ? static_cast<std::size_t>(
                                std::thread::hardware_concurrency())
                          : jobs;
  if (total == 0) total = 1;
  return std::max<std::size_t>(1, total / workers);
}

}  // namespace advm::core::exec
