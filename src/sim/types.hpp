// Fundamental identifiers and enums of the coherence simulator.
#pragma once

#include <cstdint>

namespace am::sim {

using CoreId = std::uint32_t;
using LineId = std::uint64_t;
using Cycles = std::uint64_t;

inline constexpr CoreId kNoCore = ~CoreId{0};

/// MESI line states as seen by one core's private cache. The simulator
/// additionally distinguishes Exclusive-clean (E) from Modified (M) only for
/// state-priming experiments; both satisfy an RMW locally.
enum class Mesi : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

/// Where the data supplying a request came from — the latency/energy class
/// of a line transfer. The model's t_* parameters correspond 1:1 to these.
enum class Supply : std::uint8_t {
  kLocalHit,    ///< requester already held a sufficient copy (L1 hit)
  kNear,        ///< cache-to-cache within a socket / few mesh hops
  kFar,         ///< cache-to-cache across the QPI link / many mesh hops
  kMemory,      ///< no cached copy anywhere: DRAM / MCDRAM fill
};

const char* to_string(Supply s) noexcept;

inline constexpr int kSupplyClasses = 4;

/// Directory arbitration policy: who gets a contended line next.
enum class Arbitration : std::uint8_t {
  kFifo,             ///< grant in arrival order (fair queue)
  kNearestFirst,     ///< deterministically grant the requester closest to the
                     ///< current owner (with aging as anti-starvation) —
                     ///< ablation extreme of locality bias
  kProximityBiased,  ///< grant requester c with probability proportional to
                     ///< exp(-distance(owner,c)/bias) — the statistical
                     ///< locality bias real coherence fabrics show, and the
                     ///< mechanism behind the paper's fairness results
};

const char* to_string(Arbitration a) noexcept;

}  // namespace am::sim
