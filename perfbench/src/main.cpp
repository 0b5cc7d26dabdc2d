// perfbench: the benchmark's measuring binary. run.py builds and drives it.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//             --worker-binary PATH --runtime-dir DIR --out FILE [--spans FILE]
//   perfbench bless serve|batch                 golden digests, one per line
//   perfbench inputs --workload W --seed N --seconds S   input digest
//   perfbench mape-selftest                     batch MAPE vs model::validate
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "measure.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench run|bless|inputs|mape-selftest [--flag value]...\n";
  return 2;
}

bool write_result(const std::string& path, const perfbench::Options& o,
                  const perfbench::Result& r) {
  std::ostringstream os;
  am::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.kv("workload", o.workload);
  w.kv("seed", o.seed);
  w.kv("trace", o.trace);
  w.kv("attempted", r.attempted);
  w.kv("failed", r.failed);
  w.kv("golden", r.golden);
  w.key("digests").begin_object();
  for (const auto& [variant, d] : r.digests) w.kv(std::to_string(variant), d);
  w.end_object();
  w.key("errors").begin_array();
  for (const std::string& e : r.errors) w.value(e);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, value] : r.metrics) w.kv(name, value);
  w.end_object();
  w.end_object();
  std::ofstream out(path);
  out << os.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  // bless takes one positional argument before its flags.
  for (int i = command == "bless" ? 3 : 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  auto flag = [&](const std::string& k, const std::string& def) {
    const auto it = flags.find(k);
    return it == flags.end() ? def : it->second;
  };

  perfbench::Options o;
  o.workload = flag("workload", "");
  o.seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);
  o.seconds = std::strtod(flag("seconds", "10").c_str(), nullptr);
  o.trace = flag("trace", "0") == "1";
  o.worker_binary = flag("worker-binary", "");
  o.runtime_dir = flag("runtime-dir", ".");
  o.spans_path = flag("spans", "");

  if (command == "bless") {
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    const std::string which = argc > 2 ? argv[2] : "";
    std::map<std::uint32_t, std::string> digests;
    if (which == "serve") {
      digests = perfbench::bless_serve(threads);
    } else if (which == "batch") {
      digests = perfbench::bless_batch(threads);
    } else {
      return usage();
    }
    for (const auto& [variant, d] : digests) std::cout << variant << " " << d << "\n";
    return 0;
  }
  if (command == "mape-selftest") {
    for (const char* machine : {"xeon", "knl"}) {
      const auto [ours, reference] = perfbench::mape_selftest(machine);
      std::cout.precision(17);
      std::cout << machine << " " << ours << " " << reference << "\n";
    }
    return 0;
  }

  const bool serve = o.workload == "serve_cold" || o.workload == "serve_warm_fleet";
  if (!serve && o.workload != "batch_sim") {
    std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
    return 2;
  }
  if (command == "inputs") {
    std::cout << (serve ? perfbench::serve_inputs_digest(o)
                        : perfbench::batch_inputs_digest(o))
              << "\n";
    return 0;
  }
  if (command != "run") return usage();
  const std::string out_path = flag("out", "");
  if (out_path.empty()) return usage();

  perfbench::Result r;
  if (o.workload == "serve_cold") {
    r = perfbench::run_serve_cold(o);
  } else if (o.workload == "serve_warm_fleet") {
    r = perfbench::run_serve_warm_fleet(o);
  } else {
    r = perfbench::run_batch_sim(o);
  }
  for (const std::string& e : r.errors) std::cerr << "perfbench: " << e << "\n";
  if (!write_result(out_path, o, r)) {
    std::cerr << "perfbench: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
