// Random atomic-program generation for the differential conformance harness.
//
// A generated program is an explicit per-core script of single-shot
// operations over LOAD/STORE/SWP/TAS/FAA/CAS — the six primitives whose
// one-acquisition semantics the sequential oracle can replay from the sim's
// completion order (CASLOOP is excluded on purpose: its hidden retries make
// the observed order under-determined). Generation is pure: the same
// (seed, GenConfig) pair always yields the same program, which is what makes
// `--replay-seed=<s>` a complete one-line repro.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "atomics/primitives.hpp"
#include "sim/program.hpp"
#include "sim/types.hpp"

namespace am::conformance {

/// Version of the program derivation (op draws, value overrides, line
/// pools). A replay line is only a faithful repro when the generator that
/// re-expands the seed matches the one that found the failure, so failure
/// reports carry this number and conformance_fuzz --gen-version hard-errors
/// on mismatch instead of silently regenerating a different program.
inline constexpr int kGeneratorVersion = 1;

/// How a generated op picks its target line.
enum class SharingPattern : std::uint8_t {
  kSingleLine,  ///< every op on line 0 — maximum contention
  kPrivate,     ///< core c only touches its own line — no sharing at all
  kUniform,     ///< uniform over the shared pool
  kZipf,        ///< Zipf over the shared pool — hot set plus cold tail
  kMixed,       ///< per-op mix of hot line / Zipf pool / private line
};

const char* to_string(SharingPattern p) noexcept;
std::optional<SharingPattern> parse_pattern(const std::string& name) noexcept;

struct GenConfig {
  sim::CoreId cores = 4;
  std::uint32_t ops_per_core = 48;
  std::uint32_t lines = 6;     ///< shared line pool size (>= 1)
  double zipf_s = 1.1;         ///< skew of the kZipf / kMixed pool draw
  SharingPattern pattern = SharingPattern::kMixed;
  double load_fraction = 0.35;   ///< P(op is LOAD) — loads create S copies
  double store_fraction = 0.10;  ///< P(op is STORE); rest split over RMWs
  sim::Cycles max_work = 32;     ///< work_before drawn uniform in [0, max]
  /// Fraction of STORE/SWP/CAS ops that carry explicit value overrides
  /// (random store_value / cas_expected / cas_desired) instead of relying on
  /// the per-core running context.
  double explicit_value_fraction = 0.25;
};

/// An explicit multi-core program: per_core[c] is core c's op script.
struct GeneratedProgram {
  std::vector<std::vector<sim::IssueRequest>> per_core;

  sim::CoreId cores() const noexcept {
    return static_cast<sim::CoreId>(per_core.size());
  }
  std::size_t total_ops() const noexcept;
  /// Distinct lines referenced, ascending.
  std::vector<sim::LineId> lines() const;
  /// Compact text dump (one line per core) for failure reports.
  std::string describe() const;
};

/// Deterministically generates a program from @p seed.
GeneratedProgram generate(std::uint64_t seed, const GenConfig& cfg);

/// ThreadProgram view over a GeneratedProgram that also records every
/// per-core OpResult the machine reports — one half of the evidence the
/// sequential oracle cross-checks (the other half is the completion order
/// captured by conformance::CompletionRecorder).
class MultiScriptProgram final : public sim::ThreadProgram {
 public:
  explicit MultiScriptProgram(const GeneratedProgram& program)
      : program_(&program),
        next_(program.per_core.size(), 0),
        results_(program.per_core.size()) {}
  // Holds a pointer to the program; a temporary would dangle.
  explicit MultiScriptProgram(GeneratedProgram&&) = delete;

  std::optional<sim::IssueRequest> next_op(sim::CoreId core,
                                           Xoshiro256&) override {
    if (core >= program_->per_core.size()) return std::nullopt;
    const auto& script = program_->per_core[core];
    if (next_[core] >= script.size()) return std::nullopt;
    return script[next_[core]++];
  }

  void on_result(sim::CoreId core, const OpResult& result) override {
    if (core < results_.size()) results_[core].push_back(result);
  }

  /// Per-core OpResults in completion order (== program order per core).
  const std::vector<std::vector<OpResult>>& results() const noexcept {
    return results_;
  }

 private:
  const GeneratedProgram* program_;
  std::vector<std::size_t> next_;
  std::vector<std::vector<OpResult>> results_;
};

}  // namespace am::conformance
