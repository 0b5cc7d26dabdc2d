#include "fleet/ring.hpp"

#include <algorithm>

#include "service/protocol.hpp"

namespace am::fleet {

namespace {

/// Ring point for worker @p w's virtual node @p v: the same
/// splitmix64-chained mix the request cache keys use, salted so vnode
/// points are independent of request hashes.
std::uint64_t vnode_point(std::size_t w, std::size_t v) {
  const std::string material =
      "vnode|" + std::to_string(w) + "|" + std::to_string(v);
  return service::chain_hash(material, 0x9e3779b97f4a7c15ULL);
}

}  // namespace

HashRing::HashRing(std::size_t workers, std::size_t vnodes)
    : workers_(workers == 0 ? 1 : workers) {
  if (vnodes == 0) vnodes = 1;
  slots_.reserve(workers_ * vnodes);
  for (std::size_t w = 0; w < workers_; ++w) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      slots_.push_back({vnode_point(w, v), static_cast<std::uint32_t>(w)});
    }
  }
  std::sort(slots_.begin(), slots_.end(),
            [](const Slot& a, const Slot& b) {
              return a.point != b.point ? a.point < b.point
                                        : a.worker < b.worker;
            });
}

std::size_t HashRing::first_slot(std::string_view key) const {
  const std::uint64_t h = service::chain_hash(key, 0);
  const auto it = std::lower_bound(
      slots_.begin(), slots_.end(), h,
      [](const Slot& s, std::uint64_t point) { return s.point < point; });
  return it == slots_.end() ? 0 : static_cast<std::size_t>(it - slots_.begin());
}

std::vector<std::size_t> HashRing::route_order(std::string_view key) const {
  std::vector<std::size_t> order;
  order.reserve(workers_);
  std::vector<bool> seen(workers_, false);
  const std::size_t start = first_slot(key);
  for (std::size_t i = 0; i < slots_.size() && order.size() < workers_; ++i) {
    const std::uint32_t w = slots_[(start + i) % slots_.size()].worker;
    if (!seen[w]) {
      seen[w] = true;
      order.push_back(w);
    }
  }
  return order;
}

std::vector<double> HashRing::ownership() const {
  std::vector<double> share(workers_, 0.0);
  constexpr double kRange = 18446744073709551616.0;  // 2^64
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t prev =
        i == 0 ? slots_.back().point : slots_[i - 1].point;
    // Arc ending at this slot belongs to its worker; the wrap arc is the
    // i==0 case (prev = last point).
    const std::uint64_t arc = s.point - prev;  // mod 2^64 wraps correctly
    share[s.worker] += static_cast<double>(arc) / kRange;
  }
  return share;
}

}  // namespace am::fleet
