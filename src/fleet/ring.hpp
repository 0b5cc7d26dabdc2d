// Consistent-hash ring over worker indices.
//
// Each worker owns `vnodes` points on a 64-bit ring; a request key routes
// to the worker owning the first point at or after the key's hash. Workers
// keep their ring slots across restarts (slots are a pure function of
// worker index), so a restarted worker resumes exactly its old shard and
// its repopulating LRU stays hot on the keys it will see again. route_order
// yields the owner followed by the distinct successor workers — the
// bounded-retry hand-off order when the owner is down.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace am::fleet {

class HashRing {
 public:
  /// @p workers >= 1; @p vnodes points per worker (more = smoother shard
  /// balance, linearly more ring memory).
  explicit HashRing(std::size_t workers, std::size_t vnodes = 64);

  std::size_t worker_count() const noexcept { return workers_; }

  /// Every worker, the owner of @p key first, then successors in ring
  /// order (each worker once). Size == worker_count().
  std::vector<std::size_t> route_order(std::string_view key) const;

  /// Fraction of a uniform keyspace each worker owns (diagnostics; sums
  /// to ~1).
  std::vector<double> ownership() const;

 private:
  struct Slot {
    std::uint64_t point;
    std::uint32_t worker;
  };

  std::size_t first_slot(std::string_view key) const;

  std::vector<Slot> slots_;  ///< sorted by point
  std::size_t workers_;
};

}  // namespace am::fleet
