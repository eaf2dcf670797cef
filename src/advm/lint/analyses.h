// The lint analyses — small dataflow passes over a CodeModel.
//
// Every finding carries one of the stable typed codes below; the codes are
// a contract (the --format json document, CI gates, the fixture tests in
// tests/lint_test.cpp), so renaming one is a breaking change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advm/lint/cfg.h"

namespace advm::lint {

// Stable finding codes.
inline constexpr const char* kUndefReg = "advm.lint-undef-reg";
inline constexpr const char* kDeadStore = "advm.lint-dead-store";
inline constexpr const char* kUnreachable = "advm.lint-unreachable";
inline constexpr const char* kRomWrite = "advm.lint-rom-write";
inline constexpr const char* kSmc = "advm.lint-smc";
inline constexpr const char* kStackImbalance = "advm.lint-stack-imbalance";
inline constexpr const char* kIllReachable = "advm.lint-ill-reachable";

struct Finding {
  std::string code;
  std::uint32_t address = 0;  ///< instruction (or dead-run start) address
  std::string symbol;         ///< nearest preceding code symbol; may be ""
  std::string detail;
};

struct AnalysisConfig {
  /// ROM windows of the target derivative (store-to-ROM detection).
  std::uint32_t rom_base = 0;
  std::uint32_t rom_size = 0;
  std::uint32_t es_rom_base = 0;
  std::uint32_t es_rom_size = 0;
  /// Report only findings anchored in segments emitted by this object
  /// (the cell's own test source) — shared library code is linked into
  /// every cell and would repeat its findings once per cell. The passes
  /// skip every function with no slot in the scope and every region of
  /// another object, which is exact: those could only report outside it.
  /// Empty = report everywhere (whole-image mode, used by the unit tests).
  std::string scope_source;
};

/// Runs every analysis over the model. Findings come back deduplicated,
/// filtered to `scope_source`, attributed to the nearest preceding symbol,
/// and sorted by (address, code, detail) — deterministic output is part of
/// the report contract.
[[nodiscard]] std::vector<Finding> run_analyses(const CodeModel& model,
                                                const AnalysisConfig& config);

}  // namespace advm::lint
