#include "conformance/generator.hpp"

#include <algorithm>
#include <sstream>

#include "common/random.hpp"

namespace am::conformance {

namespace {

/// Base id of the per-core private lines; far above any shared-pool id so
/// the two ranges never collide.
constexpr sim::LineId kPrivateBase = 1u << 16;

Primitive pick_prim(Xoshiro256& rng, const GenConfig& cfg) {
  const double roll = rng.next_double();
  if (roll < cfg.load_fraction) return Primitive::kLoad;
  if (roll < cfg.load_fraction + cfg.store_fraction) return Primitive::kStore;
  // Remaining mass split evenly over the single-shot RMWs.
  static constexpr Primitive kRmws[] = {Primitive::kSwap, Primitive::kTas,
                                        Primitive::kFaa, Primitive::kCas};
  return kRmws[rng.next_below(4)];
}

}  // namespace

const char* to_string(SharingPattern p) noexcept {
  switch (p) {
    case SharingPattern::kSingleLine: return "single";
    case SharingPattern::kPrivate: return "private";
    case SharingPattern::kUniform: return "uniform";
    case SharingPattern::kZipf: return "zipf";
    case SharingPattern::kMixed: return "mixed";
  }
  return "?";
}

std::optional<SharingPattern> parse_pattern(const std::string& name) noexcept {
  if (name == "single") return SharingPattern::kSingleLine;
  if (name == "private") return SharingPattern::kPrivate;
  if (name == "uniform") return SharingPattern::kUniform;
  if (name == "zipf") return SharingPattern::kZipf;
  if (name == "mixed") return SharingPattern::kMixed;
  return std::nullopt;
}

std::size_t GeneratedProgram::total_ops() const noexcept {
  std::size_t n = 0;
  for (const auto& script : per_core) n += script.size();
  return n;
}

std::vector<sim::LineId> GeneratedProgram::lines() const {
  std::vector<sim::LineId> ids;
  for (const auto& script : per_core) {
    for (const auto& op : script) ids.push_back(op.line);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::string GeneratedProgram::describe() const {
  std::ostringstream os;
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    os << "core" << c << ":";
    for (const auto& op : per_core[c]) {
      os << ' ' << to_string(op.prim) << '@' << op.line;
      if (op.work_before > 0) os << "/w" << op.work_before;
      if (op.store_value) os << "/v" << *op.store_value;
      if (op.cas_expected) os << "/e" << *op.cas_expected;
      if (op.cas_desired) os << "/d" << *op.cas_desired;
    }
    os << '\n';
  }
  return os.str();
}

GeneratedProgram generate(std::uint64_t seed, const GenConfig& cfg) {
  GeneratedProgram prog;
  const sim::CoreId cores = std::max<sim::CoreId>(1, cfg.cores);
  const std::uint32_t pool = std::max<std::uint32_t>(1, cfg.lines);
  prog.per_core.resize(cores);

  // One independent stream per core (derived splitmix64-style like the sweep
  // engine's per-point seeds) so dropping a core during shrinking does not
  // reshuffle the others.
  SplitMix64 sm(seed);
  const std::uint64_t zipf_seed = sm.next();
  for (sim::CoreId c = 0; c < cores; ++c) {
    Xoshiro256 rng(sm.next());
    ZipfSampler zipf(pool, cfg.zipf_s);
    Xoshiro256 zipf_rng(zipf_seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)));
    auto& script = prog.per_core[c];
    script.reserve(cfg.ops_per_core);
    for (std::uint32_t i = 0; i < cfg.ops_per_core; ++i) {
      sim::IssueRequest op;
      op.prim = pick_prim(rng, cfg);
      switch (cfg.pattern) {
        case SharingPattern::kSingleLine:
          op.line = 0;
          break;
        case SharingPattern::kPrivate:
          op.line = kPrivateBase + c;
          break;
        case SharingPattern::kUniform:
          op.line = rng.next_below(pool);
          break;
        case SharingPattern::kZipf:
          op.line = zipf.sample(zipf_rng);
          break;
        case SharingPattern::kMixed: {
          const double where = rng.next_double();
          if (where < 0.5) {
            op.line = 0;  // hot line
          } else if (where < 0.8) {
            op.line = zipf.sample(zipf_rng);
          } else {
            op.line = kPrivateBase + c;
          }
          break;
        }
      }
      if (cfg.max_work > 0) op.work_before = rng.next_below(cfg.max_work + 1);
      const bool explicit_vals =
          rng.next_double() < cfg.explicit_value_fraction;
      if (explicit_vals) {
        switch (op.prim) {
          case Primitive::kStore:
          case Primitive::kSwap:
            op.store_value = rng.next_below(1u << 16);
            break;
          case Primitive::kCas:
            op.cas_expected = rng.next_below(8);  // small: some succeed
            op.cas_desired = rng.next_below(1u << 16);
            break;
          default:
            break;
        }
      }
      script.push_back(op);
    }
  }
  return prog;
}

}  // namespace am::conformance
