// bench_util.hpp — shared configuration for the experiment-reproduction
// benches. Every bench prints the paper's rows/series at two scales:
//  * cost-model numbers are computed at PAPER scale (1024 points, k = 20,
//    40 classes) so latencies/memory line up with Table II / Fig. 1;
//  * anything requiring actual training (accuracy, search, predictor fit)
//    runs at CPU scale (32-64 points, 10 synthetic classes) — see
//    EXPERIMENTS.md for the mapping.
//
// The figure benches reproduce everything through hg::api::Engine — no
// module header (hgnas/, hw/, predictor/, baselines/) is included here or
// in any figure bench; devices and baselines are iterated by registry name.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "json_common.hpp"

namespace hg::bench {

/// Wall-clock stopwatch for bench measurements.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable bench output: collects (name, wall_ms, problem, value)
/// records and writes BENCH_<bench>.json into the working directory on
/// destruction (or an explicit write()). Each record also captures the pool
/// width at the time of the measurement and the file carries the git rev
/// and the kernel body the run-time-dispatched kernels ran
/// (simd::kernel_isa()), giving the repo a perf trajectory that CI can
/// archive per commit.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench) : bench_(std::move(bench)) {}
  ~JsonReporter() { write(); }
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

  /// `threads` < 0 records the current pool width; pass it explicitly when
  /// the measurement ran under a different width than the caller's.
  void add(const std::string& name, double wall_ms,
           const std::string& problem, double value = 0.0,
           const std::string& unit = "", std::int64_t threads = -1) {
    records_.push_back({name, problem, unit, wall_ms, value,
                        threads < 0 ? core::num_threads() : threads});
  }

  std::string path() const { return "BENCH_" + bench_ + ".json"; }

  void write() {
    if (written_ || records_.empty()) return;
    written_ = true;
    std::FILE* f = std::fopen(path().c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path().c_str());
      return;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n  \"git_rev\": \"%s\",\n"
                 "  \"kernel_isa\": \"%s\",\n",
                 json_escape(bench_).c_str(), git_rev(), simd::kernel_isa());
    std::fprintf(f, "  \"records\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"wall_ms\": %.6f, "
                   "\"threads\": %lld, \"problem\": \"%s\", "
                   "\"value\": %.6f, \"unit\": \"%s\"}%s\n",
                   json_escape(r.name).c_str(), r.wall_ms,
                   static_cast<long long>(r.threads),
                   json_escape(r.problem).c_str(), r.value,
                   json_escape(r.unit).c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path().c_str(), records_.size());
  }

 private:
  struct Record {
    std::string name, problem, unit;
    double wall_ms = 0.0;
    double value = 0.0;
    std::int64_t threads = 1;
  };

  std::string bench_;
  std::vector<Record> records_;
  bool written_ = false;
};

/// Facade-level counterpart of default_search_config: the same paper-scale
/// deployment workload and CPU-scale search knobs, expressed as one
/// declarative EngineConfig for the benches that drive hg::api::Engine.
inline api::EngineConfig default_engine_config(const std::string& device) {
  api::EngineConfig cfg;
  cfg.device = device;
  cfg.num_points = 1024;  // paper workload
  cfg.k = 20;
  cfg.num_classes = 40;
  cfg.num_positions = 12;
  cfg.samples_per_class = 8;
  cfg.train_points = 32;
  cfg.train_k = 6;
  cfg.supernet_hidden = 24;
  cfg.supernet_head_hidden = 48;
  cfg.population = 16;
  cfg.parents = 8;
  cfg.iterations = 12;
  cfg.eval_val_samples = 40;
  cfg.function_paths_per_eval = 3;
  cfg.stage1_epochs = 2;
  cfg.stage2_epochs = 4;
  // Simulated wall-clock constants expressed at paper scale (ModelNet40 on
  // a V100), as in default_search_config below.
  cfg.sim_train_s_per_sample = 0.5;
  cfg.sim_eval_s_per_sample = 0.05;
  return cfg;
}

/// Paper-scale workload used for all cost-model evaluations.
inline api::Workload paper_workload() {
  api::Workload w;
  w.num_points = 1024;
  w.k = 20;
  w.num_classes = 40;
  return w;
}

inline void print_header(const std::string& title) {
  std::printf("\n===== %s =====\n", title.c_str());
}

/// Compact display label for a canonical registry device name.
inline const char* short_device_name(const std::string& registry_name) {
  if (registry_name == "rtx3080") return "RTX3080";
  if (registry_name == "i7-8700k") return "i7-8700K";
  if (registry_name == "jetson-tx2") return "JetsonTX2";
  if (registry_name == "raspberry-pi-3b") return "RaspberryPi";
  return registry_name.c_str();
}

/// Registry name of the zoo's Fig. 10 Device_Fast design for a device.
inline const char* fast_baseline_for(const std::string& registry_name) {
  if (registry_name == "rtx3080") return "rtx-fast";
  if (registry_name == "i7-8700k") return "i7-fast";
  if (registry_name == "jetson-tx2") return "tx2-fast";
  if (registry_name == "raspberry-pi-3b") return "pi-fast";
  return "dgcnn";
}

/// Exit-on-error unwrap for bench code: benches have no recovery path, so
/// a Status failure prints and aborts the run.
template <typename T>
T unwrap(api::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace hg::bench
