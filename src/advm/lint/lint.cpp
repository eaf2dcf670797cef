#include "advm/lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "advm/environment.h"
#include "advm/lint/analyses.h"
#include "advm/lint/cfg.h"
#include "advm/regression.h"
#include "support/text.h"

namespace advm::core {

using support::join_path;

std::size_t LintReport::count(std::string_view code) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const LintFinding& f) { return f.code == code; }));
}

std::map<std::string, std::size_t> LintReport::by_code() const {
  std::map<std::string, std::size_t> out;
  for (const auto& f : findings) ++out[f.code];
  return out;
}

namespace {

LintFinding build_failure(std::string_view env_dir, std::string_view test_id,
                          std::string file, std::string detail) {
  LintFinding f;
  f.code = kLintUnbuildable;
  f.environment = support::base_name(env_dir);
  f.test_id = std::string(test_id);
  f.file = std::move(file);
  f.detail = std::move(detail);
  return f;
}

/// Lints one test cell against its already-prepared environment.
LintReport lint_prepared(const support::VirtualFileSystem& vfs,
                         ObjectCache& cache, std::string_view env_dir,
                         const PreparedEnvironment& env,
                         std::string_view test_id,
                         const soc::DerivativeSpec& spec) {
  LintReport report;
  report.cells = 1;
  const std::string test_path =
      join_path(join_path(env_dir, std::string(test_id)), kTestSourceFile);

  LinkedCell cell = link_cell(vfs, cache, env, test_path, spec);
  if (!cell.image) {
    report.findings.push_back(build_failure(
        env_dir, test_id, std::move(cell.failed_file), std::move(cell.detail)));
    return report;
  }

  const lint::CodeModel model = lint::build_code_model(*cell.image);
  lint::AnalysisConfig config;
  config.rom_base = spec.rom_base;
  config.rom_size = spec.rom_size;
  config.es_rom_base = spec.es_rom_base;
  config.es_rom_size = spec.es_rom_size;
  config.scope_source = test_path;

  for (lint::Finding& f : lint::run_analyses(model, config)) {
    LintFinding out;
    out.code = std::move(f.code);
    out.environment = support::base_name(env_dir);
    out.test_id = std::string(test_id);
    out.file = test_path;
    out.address = f.address;
    out.symbol = std::move(f.symbol);
    out.detail = std::move(f.detail);
    report.findings.push_back(std::move(out));
  }
  return report;
}

}  // namespace

LintReport Linter::lint_cell(std::string_view env_dir,
                             std::string_view global_dir,
                             std::string_view test_id,
                             const soc::DerivativeSpec& spec) {
  const PreparedEnvironment env =
      prepare_environment(vfs_, *cache_, env_dir, global_dir);
  return lint_prepared(vfs_, *cache_, env_dir, env, test_id, spec);
}

LintReport Linter::lint_system(std::string_view system_root,
                               const soc::DerivativeSpec& spec) {
  const std::string global_dir =
      join_path(system_root, kGlobalLibrariesDir);

  // Each environment's shared libraries are fetched from the cache once,
  // on the pool, before any of its cells is linked against them.
  struct Environment {
    std::string dir;
    std::vector<std::string> tests;
    PreparedEnvironment prepared;
  };
  std::vector<Environment> envs;
  for (std::string& dir : discover_environments(vfs_, system_root)) {
    envs.emplace_back().dir = std::move(dir);
  }
  parallel_for(envs.size(), jobs_, [&](std::size_t i) {
    envs[i].tests = discover_tests(vfs_, envs[i].dir);
    envs[i].prepared =
        prepare_environment(vfs_, *cache_, envs[i].dir, global_dir);
  });

  struct Cell {
    const Environment* env = nullptr;
    const std::string* test_id = nullptr;
  };
  std::vector<Cell> cells;
  for (const Environment& env : envs) {
    for (const std::string& test_id : env.tests) {
      cells.push_back({&env, &test_id});
    }
  }

  // Cells are independent (they link the prepared objects by pointer), so
  // fan out and concatenate in discovery order — reports are
  // byte-identical for any pool size.
  std::vector<LintReport> per_cell(cells.size());
  parallel_for(cells.size(), jobs_, [&](std::size_t i) {
    per_cell[i] = lint_prepared(vfs_, *cache_, cells[i].env->dir,
                                cells[i].env->prepared, *cells[i].test_id,
                                spec);
  });

  LintReport report;
  report.cells = cells.size();
  // Report files relative to the system root: the daemon imports each
  // client tree under its own VFS root, and root-relative paths are what
  // keep an attached lint byte-identical to a local one.
  const std::string prefix = std::string(system_root) + "/";
  for (LintReport& cell : per_cell) {
    for (LintFinding& f : cell.findings) {
      if (f.file.rfind(prefix, 0) == 0) f.file.erase(0, prefix.size());
      report.findings.push_back(std::move(f));
    }
  }
  return report;
}

std::string format_lint_report(const LintReport& report) {
  std::string out;
  if (report.clean()) {
    out = "clean: no lint findings across " +
          std::to_string(report.cells) + " cell(s)\n";
    return out;
  }
  for (const LintFinding& f : report.findings) {
    out += f.file;
    if (f.address != 0 || !f.symbol.empty()) {
      char addr[16];
      std::snprintf(addr, sizeof addr, ":0x%08x", f.address);
      out += addr;
    }
    out += ": [" + f.code + "]";
    if (!f.symbol.empty()) out += " (" + f.symbol + ")";
    out += " " + f.detail + "\n";
  }
  out += std::to_string(report.findings.size()) + " finding(s) across " +
         std::to_string(report.cells) + " cell(s)\n";
  for (const auto& [code, n] : report.by_code()) {
    out += "  " + code + ": " + std::to_string(n) + "\n";
  }
  return out;
}

}  // namespace advm::core
