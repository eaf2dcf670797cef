// advm — command-line driver for the ADVM toolchain.
//
// The workflow a verification team would actually run, against environments
// that live on disk (paper §3 keeps them under revision control):
//
//   advm init  <dir> [--derivative SC88-A] [--tests N] [--backend B]
//                    [--shards N] [--jobs N]             create a system env
//   advm run   <dir> [--derivative D] [--platform P] [--jobs N]
//                    [--backend B] [--cache-dir DIR]     build + regress
//   advm matrix <dir> --derivatives A,B,C --platforms P,Q [--jobs N]
//                    [--backend thread|process] [--shards N]
//                    [--cache-dir DIR]                   derivative × platform
//                                                        cube, one report per
//                                                        cell + roll-up
//   advm port  <dir> --to SC88-C                         retarget in place
//   advm check <dir> [--derivative D]                    violation report
//   advm lint  <dir> [--derivative D] [--jobs N]         binary-level dataflow
//                                                        analysis of every
//                                                        linked test cell
//                                                        (--lint on run/matrix
//                                                        gates execution on a
//                                                        clean lint)
//   advm release <dir> --name R1 [--derivative D] [--platform P] [--jobs N]
//                                                        frozen snapshot +
//                                                        verify + regression
//   advm random <dir> --seed K [--derivative D]          random Globals.inc
//   advm serve --socket <path> [--idle-timeout-ms MS]    resident daemon: one
//                                                        warm Session behind a
//                                                        unix socket; --stats /
//                                                        --stop control a live
//                                                        one
//   advm worker --serve                                  persistent worker:
//                                                        line-delimited JSON
//                                                        requests on stdin
//                                                        (spawned as a pool by
//                                                        the process backend)
//
// Every verb is the same thin adapter: parse arguments into a typed
// request, run it on one advm::Session (which owns the VFS, object cache,
// board pool and worker-pool policy), render the typed result. `--format
// json` (any verb) renders the result as the stable machine-readable
// document from src/advm/report.h instead of the human text.
//
// `--backend process` shards matrix cells across a pool of `advm worker
// --serve` subprocesses — this very binary, re-entered through the worker
// verb. `--cache-dir` points the content-addressed object cache at a
// persistent directory that workers and consecutive invocations share.
// `--attach <socket>` (or ADVM_SOCKET) ships any verb to a resident `advm
// serve` daemon instead — same flags, same documents, same exit codes, but
// a warm shared Session on the far side.
//
// Environments are imported from disk into the session's VFS, transformed,
// and written back — so `port` literally edits only the abstraction layer
// files in your working copy.
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advm/exec/workplan.h"
#include "advm/report.h"
#include "advm/serve/client.h"
#include "advm/serve/daemon.h"
#include "advm/serve/frame.h"
#include "advm/serve/service.h"
#include "advm/session.h"
#include "support/disk.h"
#include "support/text.h"

namespace {

using namespace advm;
using namespace advm::core;

constexpr const char* kVfsRoot = "/SYS";

struct Args {
  std::string command;
  std::string dir;
  std::map<std::string, std::string> options;
  bool json = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string key = arg.substr(2);
      std::string value = i + 1 < argc ? argv[i + 1] : "";
      if (!value.empty() && value.rfind("--", 0) != 0) {
        args.options.insert_or_assign(key, std::move(value));
        ++i;
      } else {
        // insert_or_assign with a sized string: `options[key] = "1"` hits
        // GCC 12's -Wrestrict false positive (PR105651) under -O3 -Werror.
        args.options.insert_or_assign(key, std::string(1, '1'));
      }
    } else if (positional++ == 0) {
      args.dir = arg;
    }
  }
  auto format = args.options.find("format");
  args.json = format != args.options.end() && format->second == "json";
  return args;
}

/// Parses a numeric option strictly: digits only. strtoul would silently
/// accept "-1" (wrapping to ULONG_MAX — i.e. maximum fan-out, the exact
/// accident to prevent), so negative and non-numeric values come back as a
/// typed Status instead. Range validation (0 shards, absurd jobs) is the
/// Session's job — numeric values pass through so the typed error has one
/// home.
Status parse_count(const Args& args, const char* key, const char* code,
                   std::size_t* out) {
  auto it = args.options.find(key);
  if (it == args.options.end()) return {};
  const std::string& value = it->second;
  const bool all_digits =
      !value.empty() &&
      value.find_first_not_of("0123456789") == std::string::npos;
  // 20 digits cannot fit in 64 bits: reject before strtoul saturates.
  if (!all_digits || value.size() > 19) {
    return Status::error(std::string(code),
                         std::string("invalid --") + key + " value '" +
                             value + "' (expected a non-negative number)");
  }
  *out = std::strtoul(value.c_str(), nullptr, 10);
  return {};
}

std::string option_or(const Args& args, const char* key,
                      const char* fallback) {
  auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

/// SessionConfig from the shared execution flags (--jobs, --shards,
/// --backend, --cache-dir). Typed Status on malformed values.
Status config_from_args(const Args& args, SessionConfig* config) {
  if (Status status = parse_count(args, "jobs", "advm.bad-jobs",
                                  &config->jobs);
      !status.ok()) {
    return status;
  }
  if (Status status = parse_count(args, "shards", "advm.bad-shards",
                                  &config->shards);
      !status.ok()) {
    return status;
  }
  const std::string backend = option_or(args, "backend", "thread");
  if (backend == "process") {
    config->backend = ExecBackendKind::Process;
  } else if (backend != "thread") {
    return Status::error("advm.bad-backend",
                         "invalid --backend value '" + backend +
                             "' (expected thread or process)");
  }
  config->cache_dir = option_or(args, "cache-dir", "");
  // --batch-threshold MS|auto|0: tiny-cell batching on the process
  // backend. "auto" (the default) lets the backend pick; 0 disables.
  const std::string batch = option_or(args, "batch-threshold", "auto");
  if (batch != "auto") {
    if (Status status =
            parse_count(args, "batch-threshold",
                        "advm.bad-batch-threshold",
                        &config->batch_threshold_ms);
        !status.ok()) {
      return status;
    }
  }
  // --request-timeout-ms MS: per-request worker deadline on the process
  // backend (0 = wait forever). Range-checked by SessionConfig::validate.
  if (Status status = parse_count(args, "request-timeout-ms",
                                  "advm.bad-timeout",
                                  &config->request_timeout_ms);
      !status.ok()) {
    return status;
  }
  if (Status status = parse_count(args, "max-respawns",
                                  "advm.bad-respawns",
                                  &config->max_respawns);
      !status.ok()) {
    return status;
  }
  // Hidden fault-injection seam (tests, the ci.sh chaos gate): the flag
  // wins over the environment so a wrapper script can still override.
  config->fault_plan = option_or(args, "fault-plan", "");
  if (config->fault_plan.empty()) {
    if (const char* env = std::getenv("ADVM_FAULT_PLAN")) {
      config->fault_plan = env;
    }
  }
  return {};
}

/// Renders a pre-request failure (bad flag value) through the same
/// contract request validation uses: JSON error document on stdout in
/// --format json mode, bare message on stderr otherwise, exit code 2.
int render_status(const Args& args, const char* verb, const Status& status) {
  if (args.json) {
    std::cout << error_to_json(verb, status) << "\n";
  } else {
    std::cerr << status.message << "\n";
  }
  return 2;
}

/// Builds a Session from the shared execution flags, with the tree at
/// `args.dir` imported under kVfsRoot. Null after a diagnostic on a bad
/// flag value. An unreadable disk tree is *not* fatal here: the failure is
/// stashed in `import_error` so that request validation (unknown
/// derivative/platform) still gets to report first — the session then
/// fails root validation and the verb substitutes the disk-level message.
std::unique_ptr<Session> make_session(const Args& args, const char* verb,
                                      std::string* import_error,
                                      bool import = true) {
  SessionConfig config;
  if (Status status = config_from_args(args, &config); !status.ok()) {
    render_status(args, verb, status);
    return nullptr;
  }
  auto session = std::make_unique<Session>(std::move(config));
  if (import) {
    try {
      support::import_from_disk(session->vfs(), args.dir, kVfsRoot);
    } catch (const std::exception& e) {
      if (import_error) *import_error = e.what();
    }
  }
  return session;
}

/// Builds the verb's typed request from its flags — the one place CLI
/// flag names map onto serve::VerbRequest fields, shared verbatim by the
/// local and attached paths (parity by construction: both feed the same
/// request to serve::execute_verb, one directly and one over the socket).
serve::VerbRequest build_verb_request(const Args& args,
                                      const std::string& verb) {
  serve::VerbRequest request;
  request.verb = verb;
  request.dir = args.dir;
  if (verb == "init") {
    request.build.derivative = option_or(args, "derivative", "SC88-A");
    request.build.tests_per_module =
        args.options.count("tests")
            ? std::strtoul(args.options.at("tests").c_str(), nullptr, 10)
            : 5;
  } else if (verb == "run") {
    request.run.derivative = option_or(args, "derivative", "SC88-A");
    request.run.platform = option_or(args, "platform", "golden-model");
    request.lint_gate = args.options.count("lint") != 0;
  } else if (verb == "matrix") {
    const std::string derivatives = option_or(args, "derivatives", "SC88-A");
    const std::string platforms = option_or(args, "platforms", "golden-model");
    request.matrix.derivatives.clear();
    for (std::string_view name : support::split(derivatives, ',')) {
      request.matrix.derivatives.emplace_back(name);
    }
    request.matrix.platforms.clear();
    for (std::string_view name : support::split(platforms, ',')) {
      request.matrix.platforms.emplace_back(name);
    }
    request.lint_gate = args.options.count("lint") != 0;
  } else if (verb == "port") {
    request.port.to = option_or(args, "to", "");
  } else if (verb == "check") {
    request.check.derivative = option_or(args, "derivative", "SC88-A");
  } else if (verb == "lint") {
    request.lint.derivative = option_or(args, "derivative", "SC88-A");
  } else if (verb == "release") {
    request.release.name = option_or(args, "name", "R1");
    request.release.derivative = option_or(args, "derivative", "SC88-A");
    request.release.platform = option_or(args, "platform", "golden-model");
  } else if (verb == "random") {
    request.random.derivative = option_or(args, "derivative", "SC88-A");
    request.random.seed =
        args.options.count("seed")
            ? std::strtoull(args.options.at("seed").c_str(), nullptr, 10)
            : 1;
  }
  return request;
}

/// The shared output contract: JSON document on stdout in --format json
/// mode; otherwise the human text — on stderr when the verb failed
/// before running (exit 2, bare diagnostic), on stdout when it ran.
int print_outcome(const Args& args, int exit_code, const std::string& json,
                  const std::string& text) {
  if (args.json) {
    std::cout << json << "\n";
  } else if (exit_code == 2) {
    std::cerr << text;
  } else {
    std::cout << text;
  }
  return exit_code;
}

/// The socket a verb should attach to: --attach <socket> wins, then the
/// ADVM_SOCKET environment. Empty = run locally in this process.
std::string attach_socket(const Args& args) {
  auto it = args.options.find("attach");
  if (it != args.options.end()) return it->second;
  if (const char* env = std::getenv("ADVM_SOCKET")) return env;
  return "";
}

/// Runs a verb against the resident daemon: marshal the typed request
/// over the socket, print the returned documents exactly as a local run
/// would (the payload IS the local JSON, byte for byte), exit with the
/// daemon-computed code.
int run_attached(const Args& args, const std::string& socket,
                 serve::VerbRequest request) {
  // The daemon's working directory is not the client's: ship an absolute,
  // normalized path so both sides (and the daemon's per-dir VFS roots)
  // agree on which tree this is.
  std::error_code ec;
  const std::filesystem::path absolute =
      std::filesystem::absolute(request.dir, ec);
  if (!ec) request.dir = absolute.lexically_normal().string();

  serve::Frame frame;
  frame.id = 1;
  frame.verb = request.verb;
  frame.payload = serve::to_json(request);
  serve::AttachOptions options;
  options.socket_path = socket;
  serve::Frame response;
  if (Status status = serve::attach_roundtrip(options, frame, &response);
      !status.ok()) {
    return render_status(args, request.verb.c_str(), status);
  }
  return print_outcome(args, response.exit, response.payload, response.text);
}

/// Every verb, one adapter: build the typed request from flags, then
/// either ship it to the daemon (--attach / ADVM_SOCKET) or execute it on
/// a session in this process. Both paths render through print_outcome.
int cmd_verb(const Args& args, const char* verb) {
  serve::VerbRequest request = build_verb_request(args, verb);
  const std::string socket = attach_socket(args);
  if (!socket.empty()) return run_attached(args, socket, std::move(request));

  std::string import_error;
  auto session = make_session(args, verb, &import_error,
                              /*import=*/request.verb != "init");
  if (!session) return 2;
  const serve::VerbOutcome outcome =
      serve::execute_verb(*session, request, kVfsRoot, import_error);
  return print_outcome(args, outcome.exit, outcome.json, outcome.text);
}

/// `advm serve` — the resident daemon (and its control verbs). With
/// --stats or --stop the command is a thin client instead: one control
/// frame to the live daemon, its document printed like any verb.
int cmd_serve(const Args& args) {
  std::string socket = option_or(args, "socket", "");
  if (socket.empty()) {
    if (const char* env = std::getenv("ADVM_SOCKET")) socket = env;
  }
  if (socket.empty()) {
    return render_status(
        args, "serve",
        Status::error("advm.serve-socket-path",
                      "missing --socket <path> (or ADVM_SOCKET)"));
  }

  if (args.options.count("stop") || args.options.count("stats")) {
    serve::Frame frame;
    frame.id = 1;
    frame.verb = args.options.count("stop") ? "shutdown" : "stats";
    frame.payload = "{}";
    serve::AttachOptions options;
    options.socket_path = socket;
    serve::Frame response;
    if (Status status = serve::attach_roundtrip(options, frame, &response);
        !status.ok()) {
      return render_status(args, "serve", status);
    }
    return print_outcome(args, response.exit, response.payload,
                         response.text);
  }

  serve::DaemonConfig config;
  config.socket_path = socket;
  if (Status status = config_from_args(args, &config.session);
      !status.ok()) {
    return render_status(args, "serve", status);
  }
  if (Status status = parse_count(args, "idle-timeout-ms",
                                  "advm.bad-idle-timeout",
                                  &config.idle_timeout_ms);
      !status.ok()) {
    return render_status(args, "serve", status);
  }
  if (Status status = parse_count(args, "serve-threads",
                                  "advm.bad-serve-threads",
                                  &config.executors);
      !status.ok()) {
    return render_status(args, "serve", status);
  }

  serve::Daemon daemon(std::move(config));
  if (Status status = daemon.start(); !status.ok()) {
    return render_status(args, "serve", status);
  }
  // Readiness line on stderr — stdout stays reserved for documents, and
  // wrappers wait on the socket file anyway.
  std::cerr << "advm daemon listening on " << socket << "\n";
  return daemon.serve();
}

/// Runs the planned cells on a resident session and renders the matrix
/// shard document ({"ok":true,"verb":"worker","kind":"matrix","cells":
/// [{"index":N,"micros":U,"report":{...}}]}) — the --serve Run response.
/// `micros` is the cell's measured wall-clock (what the orchestrator's
/// cost model records); an integer so the wire format has no
/// locale/precision pitfalls. nullopt (with the failing Status in
/// `error`) when a cell request fails.
std::optional<std::string> run_cells_document(
    Session& session, const std::vector<exec::PlannedCell>& cells,
    std::uint64_t max_instructions, Status* error) {
  std::ostringstream os;
  os << "{\"ok\":true,\"verb\":\"worker\",\"kind\":\"matrix\",\"cells\":[";
  bool first = true;
  for (const exec::PlannedCell& cell : cells) {
    RunRequest request;
    request.root = kVfsRoot;
    request.derivative = cell.derivative;
    request.platform = cell.platform;
    request.max_instructions = max_instructions;
    const auto started = std::chrono::steady_clock::now();
    RunResult result = session.run(request);
    const auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    if (!result.status.ok()) {
      *error = result.status;
      return std::nullopt;
    }
    if (!first) os << ",";
    first = false;
    os << "{\"index\":" << cell.index << ",\"micros\":" << micros
       << ",\"report\":" << report_to_json(result.report) << "}";
  }
  os << "]}";
  return os.str();
}

/// `advm worker --serve` — the persistent-pool protocol endpoint. Reads
/// line-delimited JSON serve requests (exec::ServeRequest) from stdin and
/// answers each with a single-line JSON document on stdout: an Init
/// constructs the resident Session and imports the exported tree, every
/// Run executes its cells on that same session (warm cache, warm board
/// pool — spawn and import are paid once per worker, not per request), a
/// Shutdown (or EOF on stdin) exits 0. A malformed request or a failed
/// Run answers with the shared error document; the worker stays resident
/// and lets the orchestrator decide.
int cmd_worker_serve() {
  const auto respond = [](const std::string& line) {
    std::cout << line << "\n" << std::flush;
  };
  std::unique_ptr<Session> session;
  // Injected faults (Init's fault_plan; empty in production). A
  // request-count clause matches exactly one value of `run_count`; a
  // cell clause matches every Run request naming its planned index.
  std::vector<exec::FaultClause> faults;
  std::size_t run_count = 0;
  const auto match_fault =
      [&](const std::vector<exec::PlannedCell>& cells)
      -> const exec::FaultClause* {
    for (const exec::FaultClause& fault : faults) {
      if (fault.cell != exec::FaultClause::kNoCell) {
        for (const exec::PlannedCell& cell : cells) {
          if (cell.index == fault.cell) return &fault;
        }
      } else if (fault.request == run_count) {
        return &fault;
      }
    }
    return nullptr;
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string parse_error;
    const auto request = exec::parse_serve_request(line, &parse_error);
    if (!request) {
      respond(error_to_json(
          "worker", Status::error("advm.bad-serve-request", parse_error)));
      continue;
    }
    switch (request->kind) {
      case exec::ServeRequest::Kind::Init: {
        auto parsed = exec::parse_worker_fault_actions(request->fault_plan,
                                                       &parse_error);
        if (!parsed) {
          respond(error_to_json(
              "worker",
              Status::error("advm.bad-serve-request", parse_error)));
          break;
        }
        SessionConfig config;
        config.jobs = request->jobs;
        config.cache_dir = request->cache_dir;
        config.cache_max_bytes = request->cache_max_bytes;
        auto fresh = std::make_unique<Session>(std::move(config));
        try {
          support::import_from_disk(fresh->vfs(), request->tree_dir,
                                    kVfsRoot);
        } catch (const std::exception& e) {
          respond(error_to_json(
              "worker", Status::error("advm.import-failed", e.what())));
          break;
        }
        session = std::move(fresh);
        faults = std::move(*parsed);
        run_count = 0;
        respond("{\"ok\":true,\"verb\":\"worker\",\"kind\":\"serve-init\"}");
        break;
      }
      case exec::ServeRequest::Kind::Run: {
        if (!session) {
          respond(error_to_json(
              "worker", Status::error("advm.bad-serve-request",
                                      "run before init")));
          break;
        }
        run_count += 1;
        if (const exec::FaultClause* fault = match_fault(request->cells)) {
          switch (fault->action) {
            case exec::FaultClause::Action::Crash:
              // Die without a reply — the orchestrator sees EOF
              // mid-request, exactly like a segfaulting simulated test.
              std::raise(SIGKILL);
              break;
            case exec::FaultClause::Action::Exit:
              std::_Exit(3);
              break;
            case exec::FaultClause::Action::Garbage:
              respond("@@fault-injected-garbage@@");
              continue;
            case exec::FaultClause::Action::Wedge:
              // Outlive any sane request deadline; the orchestrator's
              // poll(2) timeout fires and SIGKILLs this process.
              std::this_thread::sleep_for(std::chrono::hours(1));
              break;
          }
        }
        Status error;
        const auto document = run_cells_document(
            *session, request->cells, request->max_instructions, &error);
        if (!document) {
          respond(error_to_json("worker", error));
          break;
        }
        respond(*document);
        break;
      }
      case exec::ServeRequest::Kind::Shutdown:
        respond("{\"ok\":true,\"verb\":\"worker\",\"kind\":\"shutdown\"}");
        return 0;
    }
  }
  return 0;  // EOF on stdin is the orchestrator's shutdown signal.
}

/// `advm worker --serve`, the process backend's pool endpoint. Any other
/// form exits 2 with the shared error document on stdout.
int cmd_worker(const Args& args) {
  if (args.options.count("serve")) return cmd_worker_serve();
  std::cout << error_to_json("worker",
                             Status::error("advm.bad-worker-mode",
                                           "advm worker requires --serve"))
            << "\n";
  return 2;
}

int usage() {
  std::cerr
      << "advm — assembler-driven verification methodology toolchain\n"
         "usage:\n"
         "  advm init  <dir> [--derivative SC88-A] [--tests N]"
         " [--backend B] [--shards N] [--jobs N]\n"
         "  advm run   <dir> [--derivative D] [--platform P] [--jobs N]"
         " [--backend B] [--cache-dir DIR]\n"
         "  advm matrix <dir> [--derivatives A,B,C] [--platforms P,Q]"
         " [--jobs N]\n"
         "             [--backend thread|process] [--shards N]"
         " [--cache-dir DIR]\n"
         "             [--batch-threshold MS|auto]"
         " [--request-timeout-ms MS] [--max-respawns N]\n"
         "  advm port  <dir> --to <derivative>\n"
         "  advm check <dir> [--derivative D]\n"
         "  advm lint  <dir> [--derivative D] [--jobs N]\n"
         "  advm release <dir> [--name R1] [--derivative D] [--platform P]"
         " [--jobs N]\n"
         "  advm random <dir> --seed K [--derivative D]\n"
         "  advm serve --socket <path> [--backend B] [--shards N]"
         " [--jobs N] [--cache-dir DIR]\n"
         "             [--idle-timeout-ms MS] [--serve-threads N]"
         " | --stats | --stop\n"
         "  advm worker --serve\n"
         "options: --format json renders any verb's result as JSON;\n"
         "         --attach <socket> (or ADVM_SOCKET) runs any verb on a"
         " resident daemon;\n"
         "         --lint (run/matrix) lints the tree first and refuses"
         " to execute on findings\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  // The worker verb is addressed by --serve, and serve by --socket — no
  // positional directory for either.
  if (args.dir.empty() && args.command != "worker" &&
      args.command != "serve") {
    return usage();
  }
  // Strict like --jobs: a typo'd --format must not silently feed human
  // text to a JSON consumer.
  auto format = args.options.find("format");
  if (format != args.options.end() && format->second != "json" &&
      format->second != "text") {
    std::cerr << "invalid --format value '" << format->second
              << "' (expected json or text)\n";
    return 2;
  }
  try {
    if (args.command == "worker") return cmd_worker(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "init" || args.command == "run" ||
        args.command == "matrix" || args.command == "port" ||
        args.command == "check" || args.command == "lint" ||
        args.command == "release" || args.command == "random") {
      return cmd_verb(args, args.command.c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
