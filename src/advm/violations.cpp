#include "advm/violations.h"

#include <algorithm>

#include "advm/environment.h"
#include "advm/regression.h"
#include "asm/lexer.h"
#include "soc/global_layer.h"
#include "support/diagnostics.h"
#include "support/text.h"

namespace advm::core {

using assembler::Token;
using assembler::TokenKind;
using support::join_path;

std::size_t ViolationReport::count(std::string_view code) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const Violation& v) { return v.code == code; }));
}

std::map<std::string, std::size_t> ViolationReport::by_code() const {
  std::map<std::string, std::size_t> out;
  for (const auto& v : violations) ++out[v.code];
  return out;
}

namespace {

/// Literals below this are treated as structural (loop steps, bit widths);
/// at or above it they are device facts that belong in the globals file.
constexpr std::int64_t kMagicThreshold = 0x10000;

bool is_global_layer_file(std::string_view name) {
  const std::string base = support::base_name(name);
  return base == soc::kRegisterDefsFile ||
         base == soc::kEmbeddedSoftwareFile || base == kTrapLibraryFile ||
         base == soc::kCommonFunctionsFile;
}

/// Token-level scan of one test source for include/magic/field violations.
void scan_source(const std::string& path, const std::string& source,
                 ViolationReport& report) {
  support::DiagnosticEngine scratch;  // lexer errors are not violations
  std::uint32_t line_no = 0;
  for (std::string_view line : support::split_lines(source)) {
    ++line_no;
    std::vector<Token> tokens =
        assembler::lex_line(line, path, line_no, scratch);
    if (tokens.size() <= 1) continue;

    // Direct include of a global-layer file.
    if (tokens[0].is_ident() &&
        support::equals_nocase(tokens[0].text, ".INCLUDE") &&
        tokens.size() > 2 && tokens[1].is_ident() &&
        is_global_layer_file(tokens[1].text)) {
      report.violations.push_back(
          {"advm.global-include", path, tokens[1].loc_in(path),
           "test includes global-layer file '" + tokens[1].text +
               "' directly"});
    }

    // Large literals anywhere on the line.
    for (const Token& tok : tokens) {
      if (tok.kind == TokenKind::Number && tok.value >= kMagicThreshold) {
        report.violations.push_back(
            {"advm.hardwired-magic", path, tok.loc_in(path),
             "hardwired value " + tok.text});
      }
    }

    // INSERT/EXTRACT with a raw numeric bit position. Skip the optional
    // leading label, find the mnemonic, then locate the pos operand
    // (operand index 3 for INSERT, 2 for EXTRACT) by counting commas.
    std::size_t head = 0;
    if (tokens.size() > 2 && tokens[0].is_ident() &&
        tokens[1].is_punct(":")) {
      head = 2;
    }
    if (head < tokens.size() && tokens[head].is_ident()) {
      int pos_operand = -1;
      if (support::equals_nocase(tokens[head].text, "INSERT")) {
        pos_operand = 3;
      } else if (support::equals_nocase(tokens[head].text, "EXTRACT")) {
        pos_operand = 2;
      }
      if (pos_operand > 0) {
        int operand = 0;
        for (std::size_t i = head + 1; i < tokens.size(); ++i) {
          if (tokens[i].is_punct(",")) {
            ++operand;
            continue;
          }
          if (operand == pos_operand &&
              tokens[i].kind == TokenKind::Number) {
            report.violations.push_back(
                {"advm.hardwired-field", path, tokens[i].loc_in(path),
                 "bit position '" + tokens[i].text +
                     "' hardwired instead of a field define"});
            break;
          }
          if (operand > pos_operand) break;
        }
      }
    }
  }
}

/// Builds a file-level violation (no source location). Field-by-field
/// assignment instead of a braced temporary: the `{}` SourceLoc member in a
/// pushed-back aggregate trips GCC 12's -Wmaybe-uninitialized false
/// positive under -O3, and the tree builds -Werror.
Violation file_violation(std::string code, std::string file,
                         std::string detail) {
  Violation v;
  v.code = std::move(code);
  v.file = std::move(file);
  v.detail = std::move(detail);
  return v;
}

/// Link-level check: does the test reference symbols defined in the global
/// layer? Requires a successful build of the full cell. The shared
/// environment libraries come prepared — fetched from the cache once per
/// environment, not once per test cell — and link by pointer; the test
/// object comes from the same cache.
void check_linkage(const support::VirtualFileSystem& vfs,
                   const PreparedEnvironment& env,
                   const std::string& test_path,
                   const soc::DerivativeSpec& spec, ObjectCache& cache,
                   ViolationReport& report) {
  LinkedCell cell = link_cell(vfs, cache, env, test_path, spec);
  if (!cell.image) {
    report.violations.push_back(file_violation(
        "advm.unbuildable", std::move(cell.failed_file),
        std::move(cell.detail)));
    return;
  }

  const assembler::Image& image = *cell.image;
  for (const assembler::LinkedSymbol& symbol : image.symbols()) {
    const std::string_view defined_in = image.object_name(symbol.defined_in);
    if (!is_global_layer_file(defined_in)) continue;
    for (const assembler::SymbolRef& ref : image.referrers(symbol)) {
      if (image.object_name(ref.object) == test_path) {
        report.violations.push_back(file_violation(
            "advm.global-call", test_path,
            "test calls global-layer symbol '" +
                std::string(image.name(symbol)) + "' (defined in " +
                support::base_name(defined_in) +
                ") without a Base_ wrapper"));
      }
    }
  }
}

void check_environment_name(std::string_view env_dir,
                            ViolationReport& report) {
  const std::string name = support::base_name(env_dir);
  const std::string upper = support::to_upper(name);
  for (const soc::DerivativeSpec* d : soc::all_derivatives()) {
    std::string marker = support::to_upper(d->name);
    // Both "SC88-A" and the family name "SC88" taint an environment name.
    if (upper.find(marker) != std::string::npos ||
        upper.find("SC88") != std::string::npos) {
      report.violations.push_back(file_violation(
          "advm.derivative-name", std::string(env_dir),
          "environment name '" + name +
              "' is derivative specific (paper §2 forbids this)"));
      return;
    }
  }
}

}  // namespace

ViolationReport ViolationChecker::check_environment(
    std::string_view env_dir, std::string_view global_dir,
    const soc::DerivativeSpec& spec) {
  ViolationReport report;
  check_environment_name(env_dir, report);

  const PreparedEnvironment env =
      prepare_environment(vfs_, *cache_, env_dir, global_dir);
  for (const std::string& entry : vfs_.list_dir(env_dir)) {
    if (entry.empty() || entry.back() != '/') continue;
    const std::string name = entry.substr(0, entry.size() - 1);
    if (name == kAbstractionLayerDir) continue;
    const std::string test_path =
        join_path(join_path(env_dir, name), kTestSourceFile);
    auto source = vfs_.read(test_path);
    if (!source) continue;

    scan_source(test_path, *source, report);
    check_linkage(vfs_, env, test_path, spec, *cache_, report);
  }
  return report;
}

ViolationReport ViolationChecker::check_system(
    std::string_view system_root, const soc::DerivativeSpec& spec) {
  ViolationReport report;
  const std::string global_dir =
      join_path(system_root, kGlobalLibrariesDir);
  for (const std::string& entry : vfs_.list_dir(system_root)) {
    if (entry.empty() || entry.back() != '/') continue;
    const std::string name = entry.substr(0, entry.size() - 1);
    if (name == kGlobalLibrariesDir) continue;
    const std::string env_dir = join_path(system_root, name);
    if (!vfs_.exists(join_path(env_dir, kTestplanFile))) continue;
    ViolationReport env_report =
        check_environment(env_dir, global_dir, spec);
    for (auto& v : env_report.violations) {
      report.violations.push_back(std::move(v));
    }
  }
  return report;
}

}  // namespace advm::core
