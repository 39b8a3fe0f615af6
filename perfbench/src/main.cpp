// perfbench: drives one benchmark workload through the libraries'
// public API and prints its metrics. Usually started through run.py:
//
//   perfbench --workload train_mnist --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer instead, prints the
// per-layer metrics and writes the spans to <out-dir>/trace-*.json.
// The last line of output is the JSON result; the exit code is 0 only
// when every correctness check passed.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload <name> [--seed N] [--seconds S]"
               " [--trace 0|1] [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  const std::map<std::string, void (*)(const Options&, Outcome&)> workloads = {
      {"train_mnist", perfbench::run_train_mnist},
      {"train_cifar_dp", perfbench::run_train_cifar_dp},
      {"serve_mnist", perfbench::run_serve_mnist},
      {"craft_mnist", perfbench::run_craft_mnist},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage("unknown workload");

  // A stray knob would silently change the workload; refuse to run.
  const auto bad = perfbench::forbidden_env();
  if (!bad.empty()) {
    for (const auto& name : bad)
      std::cerr << "perfbench: refusing to run with " << name << " set\n";
    return 2;
  }

  std::filesystem::create_directories(options.out_dir);
  std::cout << "fingerprint " << perfbench::fingerprint_json() << "\n";

  Outcome out;
  try {
    it->second(options, out);
  } catch (const std::exception& e) {
    out.check(false, std::string("workload threw: ") + e.what());
  }
  out.print();
  return out.correct() ? 0 : 1;
}
