// Analytical treatment of CAS success/failure under contention.
//
// A failed CAS is not free: `lock cmpxchg` issues a read-for-ownership and
// drags the whole cache line to the failing core, so a CAS attempt costs the
// same line acquisition a successful one does. The model below quantifies
// how often attempts fail and what that does to the useful throughput of
// the canonical CAS retry loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace am::model {

/// Success probability of a CAS attempt under maximal contention when the
/// hand-off order is deterministic (a fair queue visits all N requesters in
/// a fixed rotation): exactly one requester per rotation holds a fresh
/// expectation, so the aggregate success rate is 1/N.
double cas_success_deterministic(std::uint32_t threads);

/// Share-aware success model: when arbitration skews grant shares q_i
/// (proximity bias), frequent winners see fewer intervening grants between
/// their attempts and succeed more often. With mean success rate s, core i
/// sees ~(1/q_i - 1) intervening grants, so
///     s_i = (1 - s)^(1/q_i - 1),   s = sum_i q_i * s_i,
/// solved by bisection (the right side is decreasing in s). For uniform
/// shares this reduces to (1-s)^(N-1) = s — the discrete analogue of the
/// Poisson fixed point s = exp(-s (N-1)).
struct SharesSuccess {
  double mean_success = 1.0;           ///< attempt-weighted success rate
  std::vector<double> per_core_success;///< s_i per core (same order as q)
};
SharesSuccess cas_success_from_shares(std::span<const double> grant_shares);

}  // namespace am::model
