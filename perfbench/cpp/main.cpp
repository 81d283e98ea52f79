// dv_perfbench: the benchmark binary behind perfbench/run.py.
//
//   dv_perfbench fixtures --fixtures DIR
//   dv_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                    --fixtures DIR --out DIR [--perturb CHECK]
//
// `run` prints `# key: value` diagnostic lines and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. See
// perfbench/README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"
#include "util/strong_lru.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const run_result& r) {
  for (const auto& [key, value] : r.notes) {
    std::cout << "# " << key << ": " << value << "\n";
  }
  for (const auto& [name, m] : r.metrics) {
    std::cout << "# metric " << name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream line;
  line << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    line << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

int usage() {
  std::cerr << "usage: dv_perfbench fixtures --fixtures DIR\n"
               "       dv_perfbench run --workload NAME --seed N --seconds S"
               " --trace 0|1 --fixtures DIR --out DIR [--perturb CHECK]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  options opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--fixtures") {
      opt.fixtures = value;
    } else if (key == "--out") {
      opt.out_dir = value;
    } else if (key == "--perturb") {
      opt.perturb = value;
    } else {
      return usage();
    }
  }
  if (opt.fixtures.empty()) return usage();
  try {
    if (command == "fixtures") return make_fixtures(opt.fixtures);
    if (command != "run" || opt.seconds <= 0.0) return usage();
    set_log_level(log_level::warn);
    const fixture_paths fx{opt.fixtures};
    fx.require();

    run_result result;
    if (opt.workload == "drift_stream") {
      result = run_stream(opt, fx, /*parked=*/false);
    } else if (opt.workload == "parked_camera") {
      result = run_stream(opt, fx, /*parked=*/true);
    } else if (opt.workload == "offline_audit") {
      result = run_offline_audit(opt, fx);
    } else if (opt.workload == "bank_refit") {
      result = run_bank_refit(opt, fx);
    } else {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    result.note("workload", opt.workload);
    result.note("seed", std::to_string(opt.seed));
    result.note("trace", opt.trace ? "1" : "0");
    result.note("DV_THREADS", env_or("DV_THREADS", "unset") + " (pool " +
                                  std::to_string(thread_count()) + ")");
    result.note("DV_SIMD", env_or("DV_SIMD", "auto") + " (active " +
                               std::string{simd_level_name(
                                   active_simd_level())} +
                               ")");
    result.note("DV_CACHE", env_or("DV_CACHE", "default") + " (" +
                                (cache_enabled() ? "on" : "off") +
                                ", capacity " +
                                std::to_string(cache_capacity()) + ")");
    result.note("fail_ratio",
                json_number(static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted)));
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "dv_perfbench: " << e.what() << "\n";
    return 1;
  }
}
