#include "model/params_io.hpp"

#include <fstream>
#include <iomanip>

namespace am::model {

namespace {

constexpr const char* kMagic = "amp1";

void write_vector(std::ostream& out, const char* name,
                  const std::vector<double>& v) {
  out << name << ' ' << v.size();
  for (double x : v) out << ' ' << x;
  out << '\n';
}

}  // namespace

void save_params(const ModelParams& p, std::ostream& out) {
  out << kMagic << '\n';
  out << std::setprecision(17);
  out << "machine " << p.machine << '\n';
  out << "freq_ghz " << p.freq_ghz << '\n';
  out << "cores " << p.cores << '\n';
  out << "l1_hit " << p.l1_hit << '\n';
  out << "exec_cost";
  for (double c : p.exec_cost) out << ' ' << c;
  out << '\n';
  out << "memory_fill " << p.memory_fill << '\n';
  out << "shared_supply " << p.shared_supply << '\n';
  out << "arbitration " << static_cast<int>(p.arbitration) << '\n';
  out << "aging_limit " << p.aging_limit << '\n';
  out << "arbitration_bias " << p.arbitration_bias << '\n';
  write_vector(out, "transfer", p.transfer);
  write_vector(out, "hops", p.hops);
  out << "is_far " << p.is_far.size();
  for (auto b : p.is_far) out << ' ' << static_cast<int>(b);
  out << '\n';
  write_vector(out, "distance", p.distance);
  out << "energy " << p.energy.core_active_watts << ' '
      << p.energy.core_spin_watts << ' ' << p.energy.uncore_base_watts << ' '
      << p.energy.transfer_nj_per_hop << ' ' << p.energy.transfer_nj_base
      << ' ' << p.energy.cross_link_nj << ' ' << p.energy.directory_nj << ' '
      << p.energy.memory_nj << ' ' << p.energy.freq_ghz << '\n';
}

bool save_params_file(const ModelParams& params, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  save_params(params, out);
  return static_cast<bool>(out);
}

}  // namespace am::model
