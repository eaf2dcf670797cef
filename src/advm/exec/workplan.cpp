#include "advm/exec/workplan.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "advm/report.h"
#include "support/json.h"
#include "support/text.h"

namespace advm::core::exec {

MatrixPlan plan_matrix(const MatrixRequest& request, std::size_t shards) {
  MatrixPlan plan;
  plan.root = request.root;
  plan.max_instructions = request.max_instructions;
  std::size_t index = 0;
  for (const std::string& derivative : request.derivatives) {
    for (const std::string& platform : request.platforms) {
      plan.cells.push_back({index++, derivative, platform});
    }
  }
  plan.shards = std::min(std::max<std::size_t>(shards, 1), plan.cells.size());
  return plan;
}

std::string to_json(const ServeRequest& request) {
  std::ostringstream os;
  switch (request.kind) {
    case ServeRequest::Kind::Init:
      os << "{\"cmd\":\"init\",\"tree_dir\":\""
         << json_escape(request.tree_dir) << "\",\"jobs\":" << request.jobs
         << ",\"cache_dir\":\"" << json_escape(request.cache_dir)
         << "\",\"cache_max_bytes\":" << request.cache_max_bytes;
      // Emitted only when armed, so fault-free wire bytes stay what every
      // deployed worker binary already parses.
      if (!request.fault_plan.empty()) {
        os << ",\"fault_plan\":\"" << json_escape(request.fault_plan) << "\"";
      }
      os << "}";
      break;
    case ServeRequest::Kind::Run:
      os << "{\"cmd\":\"run\",\"max_instructions\":"
         << request.max_instructions << ",\"cells\":[";
      for (std::size_t i = 0; i < request.cells.size(); ++i) {
        const PlannedCell& cell = request.cells[i];
        if (i != 0) os << ",";
        os << "{\"index\":" << cell.index << ",\"derivative\":\""
           << json_escape(cell.derivative) << "\",\"platform\":\""
           << json_escape(cell.platform) << "\"}";
      }
      os << "]}";
      break;
    case ServeRequest::Kind::Shutdown:
      os << "{\"cmd\":\"shutdown\"}";
      break;
  }
  return os.str();
}

std::optional<ServeRequest> parse_serve_request(std::string_view text,
                                                std::string* error) {
  const auto fail = [error](std::string what) -> std::optional<ServeRequest> {
    if (error != nullptr) *error = std::move(what);
    return std::nullopt;
  };

  auto doc = support::json::parse(text, error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) return fail("serve request is not a JSON object");

  ServeRequest request;
  const auto* cmd = doc->find("cmd");
  const auto cmd_name = cmd ? cmd->as_string() : std::nullopt;
  if (!cmd_name) return fail("missing serve command");
  if (*cmd_name == "init") {
    request.kind = ServeRequest::Kind::Init;
  } else if (*cmd_name == "run") {
    request.kind = ServeRequest::Kind::Run;
  } else if (*cmd_name == "shutdown") {
    request.kind = ServeRequest::Kind::Shutdown;
  } else {
    return fail("unknown serve command '" + *cmd_name + "'");
  }

  const auto string_field = [&](const char* key, std::string& out) {
    const auto* value = doc->find(key);
    const auto text_value = value ? value->as_string() : std::nullopt;
    if (text_value) out = *text_value;
  };
  const auto uint_field = [&](const char* key, auto& out) {
    const auto* value = doc->find(key);
    const auto number = value ? value->as_uint64() : std::nullopt;
    if (number) out = static_cast<std::decay_t<decltype(out)>>(*number);
  };

  if (request.kind == ServeRequest::Kind::Init) {
    string_field("tree_dir", request.tree_dir);
    uint_field("jobs", request.jobs);
    string_field("cache_dir", request.cache_dir);
    uint_field("cache_max_bytes", request.cache_max_bytes);
    string_field("fault_plan", request.fault_plan);
    if (request.tree_dir.empty()) return fail("init without tree_dir");
    return request;
  }
  if (request.kind == ServeRequest::Kind::Shutdown) return request;

  uint_field("max_instructions", request.max_instructions);
  if (const auto* cells = doc->find("cells"); cells && cells->is_array()) {
    for (const auto& item : cells->items) {
      PlannedCell cell;
      const auto* index = item.find("index");
      const auto* derivative = item.find("derivative");
      const auto* platform = item.find("platform");
      const auto index_value = index ? index->as_uint64() : std::nullopt;
      const auto derivative_name =
          derivative ? derivative->as_string() : std::nullopt;
      const auto platform_name =
          platform ? platform->as_string() : std::nullopt;
      if (!index_value || !derivative_name || !platform_name) {
        return fail("malformed cell in run request");
      }
      cell.index = static_cast<std::size_t>(*index_value);
      cell.derivative = *derivative_name;
      cell.platform = *platform_name;
      request.cells.push_back(std::move(cell));
    }
  }
  if (request.cells.empty()) return fail("run request has no cells");
  return request;
}

namespace {

std::optional<FaultClause::Action> action_from_string(std::string_view name) {
  for (FaultClause::Action action :
       {FaultClause::Action::Crash, FaultClause::Action::Wedge,
        FaultClause::Action::Garbage, FaultClause::Action::Exit}) {
    if (to_string(action) == name) return action;
  }
  return std::nullopt;
}

std::optional<std::size_t> parse_index(std::string_view text) {
  if (text.empty() || text.size() > 9) return std::nullopt;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

std::optional<FaultClause> parse_clause(std::string_view piece,
                                        bool with_worker,
                                        std::string* error) {
  const auto fail = [&](std::string what) -> std::optional<FaultClause> {
    if (error != nullptr) {
      *error = "fault clause '" + std::string(piece) + "': " + std::move(what);
    }
    return std::nullopt;
  };

  FaultClause clause;
  std::string_view rest = piece;
  if (with_worker) {
    const auto colon = rest.find(':');
    if (colon == std::string_view::npos) {
      return fail("expected '<worker|*>:<action>@<trigger>'");
    }
    const std::string_view worker_text = rest.substr(0, colon);
    if (worker_text == "*") {
      clause.worker = FaultClause::kAnyWorker;
    } else if (const auto worker = parse_index(worker_text); worker) {
      clause.worker = *worker;
    } else {
      return fail("bad worker '" + std::string(worker_text) + "'");
    }
    rest = rest.substr(colon + 1);
  }

  const auto at = rest.find('@');
  if (at == std::string_view::npos) return fail("missing '@<trigger>'");
  const auto action = action_from_string(rest.substr(0, at));
  if (!action) {
    return fail("unknown action '" + std::string(rest.substr(0, at)) +
                "' (crash, wedge, garbage, exit)");
  }
  clause.action = *action;

  const std::string_view trigger = rest.substr(at + 1);
  constexpr std::string_view kCellPrefix = "cell=";
  if (trigger.substr(0, kCellPrefix.size()) == kCellPrefix) {
    const auto cell = parse_index(trigger.substr(kCellPrefix.size()));
    if (!cell) {
      return fail("bad cell index '" +
                  std::string(trigger.substr(kCellPrefix.size())) + "'");
    }
    clause.cell = *cell;
  } else {
    const auto request = parse_index(trigger);
    if (!request || *request == 0) {
      return fail("bad request trigger '" + std::string(trigger) +
                  "' (run requests are numbered from 1)");
    }
    clause.request = *request;
  }
  return clause;
}

std::optional<std::vector<FaultClause>> parse_clauses(std::string_view text,
                                                      char separator,
                                                      bool with_worker,
                                                      std::string* error) {
  std::vector<FaultClause> plan;
  for (std::string_view piece : support::split(text, separator)) {
    piece = support::trim(piece);
    if (piece.empty()) continue;
    const auto clause = parse_clause(piece, with_worker, error);
    if (!clause) return std::nullopt;
    plan.push_back(*clause);
  }
  return plan;
}

}  // namespace

std::string_view to_string(FaultClause::Action action) {
  switch (action) {
    case FaultClause::Action::Crash: return "crash";
    case FaultClause::Action::Wedge: return "wedge";
    case FaultClause::Action::Garbage: return "garbage";
    case FaultClause::Action::Exit: return "exit";
  }
  return "crash";
}

std::optional<std::vector<FaultClause>> parse_fault_plan(
    std::string_view text, std::string* error) {
  return parse_clauses(text, ';', /*with_worker=*/true, error);
}

std::string fault_plan_for_worker(const std::vector<FaultClause>& plan,
                                  std::size_t worker,
                                  bool first_incarnation) {
  std::string out;
  for (const FaultClause& clause : plan) {
    if (clause.worker != FaultClause::kAnyWorker && clause.worker != worker) {
      continue;
    }
    const bool cell_triggered = clause.cell != FaultClause::kNoCell;
    if (!cell_triggered && !first_incarnation) continue;
    if (!out.empty()) out += ',';
    out += to_string(clause.action);
    out += '@';
    out += cell_triggered ? "cell=" + std::to_string(clause.cell)
                          : std::to_string(clause.request);
  }
  return out;
}

std::optional<std::vector<FaultClause>> parse_worker_fault_actions(
    std::string_view text, std::string* error) {
  return parse_clauses(text, ',', /*with_worker=*/false, error);
}

}  // namespace advm::core::exec
