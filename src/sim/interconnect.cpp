#include "sim/interconnect.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace am::sim {

const char* to_string(Supply s) noexcept {
  switch (s) {
    case Supply::kLocalHit: return "local-hit";
    case Supply::kNear: return "near";
    case Supply::kFar: return "far";
    case Supply::kMemory: return "memory";
  }
  return "?";
}

const char* to_string(Arbitration a) noexcept {
  switch (a) {
    case Arbitration::kFifo: return "fifo";
    case Arbitration::kNearestFirst: return "nearest-first";
    case Arbitration::kProximityBiased: return "proximity-biased";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TwoSocketInterconnect
// ---------------------------------------------------------------------------

TwoSocketInterconnect::TwoSocketInterconnect(CoreId cores_per_socket,
                                             Cycles same_socket,
                                             Cycles cross_socket)
    : per_socket_(cores_per_socket),
      same_socket_(same_socket),
      cross_socket_(cross_socket) {
  if (cores_per_socket == 0) {
    throw std::invalid_argument("TwoSocketInterconnect: empty socket");
  }
}

Cycles TwoSocketInterconnect::transfer_cycles(CoreId from, CoreId to) const {
  if (from == to) return 0;
  return socket_of(from) == socket_of(to) ? same_socket_ : cross_socket_;
}

Supply TwoSocketInterconnect::supply_class(CoreId from, CoreId to) const {
  if (from == to) return Supply::kLocalHit;
  return socket_of(from) == socket_of(to) ? Supply::kNear : Supply::kFar;
}

std::uint32_t TwoSocketInterconnect::distance(CoreId from, CoreId to) const {
  if (from == to) return 0;
  return socket_of(from) == socket_of(to) ? 1 : 2;
}

std::uint32_t TwoSocketInterconnect::hops(CoreId from, CoreId to) const {
  if (from == to) return 0;
  return socket_of(from) == socket_of(to) ? 1 : 3;  // ring hop vs ring+QPI+ring
}

std::string TwoSocketInterconnect::describe() const {
  std::ostringstream os;
  os << "2-socket x " << per_socket_ << " cores (intra " << same_socket_
     << "cy, inter " << cross_socket_ << "cy)";
  return os.str();
}

std::string TwoSocketInterconnect::identity() const {
  std::ostringstream os;
  os << "2socket:" << per_socket_ << ':' << same_socket_ << ':'
     << cross_socket_;
  return os.str();
}

// ---------------------------------------------------------------------------
// MeshInterconnect
// ---------------------------------------------------------------------------

MeshInterconnect::MeshInterconnect(std::uint32_t width, std::uint32_t height,
                                   Cycles base, Cycles per_hop,
                                   std::uint32_t near_hops)
    : width_(width),
      height_(height),
      base_(base),
      per_hop_(per_hop),
      near_hops_(near_hops) {
  if (width == 0 || height == 0) {
    throw std::invalid_argument("MeshInterconnect: empty mesh");
  }
}

std::uint32_t MeshInterconnect::manhattan(CoreId from, CoreId to) const noexcept {
  const auto fx = static_cast<int>(from % width_);
  const auto fy = static_cast<int>(from / width_);
  const auto tx = static_cast<int>(to % width_);
  const auto ty = static_cast<int>(to / width_);
  return static_cast<std::uint32_t>(std::abs(fx - tx) + std::abs(fy - ty));
}

Cycles MeshInterconnect::transfer_cycles(CoreId from, CoreId to) const {
  if (from == to) return 0;
  return base_ + per_hop_ * manhattan(from, to);
}

Supply MeshInterconnect::supply_class(CoreId from, CoreId to) const {
  if (from == to) return Supply::kLocalHit;
  return manhattan(from, to) <= near_hops_ ? Supply::kNear : Supply::kFar;
}

std::uint32_t MeshInterconnect::distance(CoreId from, CoreId to) const {
  return manhattan(from, to);
}

std::uint32_t MeshInterconnect::hops(CoreId from, CoreId to) const {
  return manhattan(from, to);
}

std::string MeshInterconnect::describe() const {
  std::ostringstream os;
  os << width_ << "x" << height_ << " mesh (base " << base_ << "cy + "
     << per_hop_ << "cy/hop)";
  return os.str();
}

std::string MeshInterconnect::identity() const {
  std::ostringstream os;
  os << "mesh:" << width_ << ':' << height_ << ':' << base_ << ':' << per_hop_
     << ':' << near_hops_;
  return os.str();
}

// ---------------------------------------------------------------------------
// PermutedInterconnect
// ---------------------------------------------------------------------------

PermutedInterconnect::PermutedInterconnect(std::unique_ptr<Interconnect> inner,
                                           std::vector<CoreId> perm)
    : inner_(std::move(inner)), perm_(std::move(perm)) {
  if (!inner_) {
    throw std::invalid_argument("PermutedInterconnect: null inner");
  }
  for (CoreId p : perm_) {
    if (p >= inner_->core_count()) {
      throw std::invalid_argument("PermutedInterconnect: perm out of range");
    }
  }
}

Cycles PermutedInterconnect::transfer_cycles(CoreId from, CoreId to) const {
  return inner_->transfer_cycles(map(from), map(to));
}

Supply PermutedInterconnect::supply_class(CoreId from, CoreId to) const {
  return inner_->supply_class(map(from), map(to));
}

std::uint32_t PermutedInterconnect::distance(CoreId from, CoreId to) const {
  return inner_->distance(map(from), map(to));
}

std::uint32_t PermutedInterconnect::hops(CoreId from, CoreId to) const {
  return inner_->hops(map(from), map(to));
}

CoreId PermutedInterconnect::core_count() const { return inner_->core_count(); }

std::string PermutedInterconnect::describe() const {
  return inner_->describe() + " (permuted placement)";
}

std::string PermutedInterconnect::identity() const {
  // The inner topology must expose an identity too; otherwise this wrapper
  // opts out of sharing as well.
  const std::string inner = inner_->identity();
  if (inner.empty()) return std::string();
  std::ostringstream os;
  os << "perm[";
  for (std::size_t i = 0; i < perm_.size(); ++i) {
    if (i != 0) os << ',';
    os << perm_[i];
  }
  os << "]:" << inner;
  return os.str();
}

// ---------------------------------------------------------------------------
// UniformInterconnect
// ---------------------------------------------------------------------------

UniformInterconnect::UniformInterconnect(CoreId cores, Cycles latency)
    : cores_(cores), latency_(latency) {
  if (cores == 0) throw std::invalid_argument("UniformInterconnect: no cores");
}

Cycles UniformInterconnect::transfer_cycles(CoreId from, CoreId to) const {
  return from == to ? 0 : latency_;
}

Supply UniformInterconnect::supply_class(CoreId from, CoreId to) const {
  return from == to ? Supply::kLocalHit : Supply::kNear;
}

std::uint32_t UniformInterconnect::distance(CoreId from, CoreId to) const {
  return from == to ? 0 : 1;
}

std::uint32_t UniformInterconnect::hops(CoreId from, CoreId to) const {
  return from == to ? 0 : 1;
}

std::string UniformInterconnect::describe() const {
  std::ostringstream os;
  os << cores_ << " cores, uniform " << latency_ << "cy";
  return os.str();
}

std::string UniformInterconnect::identity() const {
  std::ostringstream os;
  os << "uniform:" << cores_ << ':' << latency_;
  return os.str();
}

}  // namespace am::sim
