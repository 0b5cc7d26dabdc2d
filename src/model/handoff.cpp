#include "model/handoff.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/random.hpp"

namespace am::model {

namespace {
// Proximity bias is anchored at the line's home agent (core 0 for the
// canonical single-line workload), matching Machine::arbitrate.
double bias_weight(const ModelParams& p, std::uint32_t home, std::uint32_t c) {
  return std::exp(-p.distance_between(home, c) / p.arbitration_bias);
}
constexpr std::uint32_t kHome = 0;
}  // namespace

HandoffEstimate round_robin_handoff(const ModelParams& p, std::uint32_t n) {
  HandoffEstimate e;
  e.grant_shares.assign(n, n > 0 ? 1.0 / n : 0.0);
  if (n < 2) return e;  // a single core never transfers
  double t = 0.0;
  double h = 0.0;
  double far = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t j = (i + 1) % n;
    t += p.transfer_between(i, j);
    h += p.hops_between(i, j);
    far += p.far_between(i, j) ? 1.0 : 0.0;
  }
  e.mean_transfer_cycles = t / n;
  e.mean_hops = h / n;
  e.far_fraction = far / n;
  return e;
}

HandoffEstimate simulate_handoff(const ModelParams& p, std::uint32_t n,
                                 double hold_cycles, std::size_t steps) {
  if (n == 0 || n > p.cores) {
    throw std::invalid_argument("simulate_handoff: bad core count");
  }
  HandoffEstimate e;
  e.grant_shares.assign(n, 0.0);
  if (n < 2) {
    e.grant_shares.assign(n, 1.0);
    return e;
  }

  // State: token owner + each core's request arrival time. Every core
  // re-requests immediately after its grant completes, so the waiters are
  // exactly the cores other than the owner.
  Xoshiro256 rng(0x9d2c5680);  // same arbitration seed family as the machine
  std::uint32_t owner = 0;
  double now = 0.0;
  std::vector<double> arrival(n, 0.0);

  // The proximity-biased race weighs each waiter by its fixed distance to
  // the home agent, so the weights are computed once, not per waiter per
  // step. Sums below still run in core order, keeping every output bitwise
  // unchanged.
  std::vector<double> weight;
  if (p.arbitration == sim::Arbitration::kProximityBiased) {
    weight.resize(n);
    for (std::uint32_t c = 0; c < n; ++c) weight[c] = bias_weight(p, kHome, c);
  }

  double sum_t = 0.0;
  double sum_hops = 0.0;
  double far = 0.0;
  std::size_t counted = 0;
  const std::size_t warmup = n;  // one full pass before counting

  for (std::size_t step = 0; step < steps + warmup; ++step) {
    // Pick the next grantee among waiters.
    std::uint32_t next = n;
    double oldest = std::numeric_limits<double>::infinity();
    std::uint32_t oldest_core = n;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (c != owner && arrival[c] < oldest) {
        oldest = arrival[c];
        oldest_core = c;
      }
    }
    if (oldest_core == n) break;  // nobody waiting (cannot happen for n >= 2)

    if (p.arbitration == sim::Arbitration::kFifo) {
      next = oldest_core;
    } else if (p.arbitration == sim::Arbitration::kNearestFirst) {
      if (p.aging_limit > 0 && now - oldest > p.aging_limit) {
        next = oldest_core;
      } else {
        next = oldest_core;
        double best_d = std::numeric_limits<double>::infinity();
        for (std::uint32_t c = 0; c < n; ++c) {
          if (c == owner) continue;
          const double d = p.distance_between(owner, c);
          // Tie-break by age so equal-distance cores rotate.
          if (d < best_d || (d == best_d && arrival[c] < arrival[next])) {
            best_d = d;
            next = c;
          }
        }
      }
    } else {
      // Proximity-biased race anchored at the home agent, mirroring
      // Machine::arbitrate.
      double total = 0.0;
      for (std::uint32_t c = 0; c < n; ++c) {
        if (c != owner) total += weight[c];
      }
      double pick = rng.next_double() * total;
      next = oldest_core;
      for (std::uint32_t c = 0; c < n; ++c) {
        if (c == owner) continue;
        pick -= weight[c];
        if (pick <= 0.0) {
          next = c;
          break;
        }
      }
    }

    const double t = p.transfer_between(owner, next);
    if (step >= warmup) {
      sum_t += t;
      sum_hops += p.hops_between(owner, next);
      far += p.far_between(owner, next) ? 1.0 : 0.0;
      e.grant_shares[next] += 1.0;
      ++counted;
    }
    now += t + hold_cycles;
    arrival[owner] = now;  // previous owner re-requests after its grant
    owner = next;
  }

  if (counted > 0) {
    e.mean_transfer_cycles = sum_t / static_cast<double>(counted);
    e.mean_hops = sum_hops / static_cast<double>(counted);
    e.far_fraction = far / static_cast<double>(counted);
    for (auto& s : e.grant_shares) s /= static_cast<double>(counted);
  }
  return e;
}

HandoffEstimate estimate_handoff(const ModelParams& p, std::uint32_t n,
                                 double hold_cycles) {
  if (p.arbitration == sim::Arbitration::kFifo) {
    return round_robin_handoff(p, n);
  }
  return simulate_handoff(p, n, hold_cycles);
}

}  // namespace am::model
