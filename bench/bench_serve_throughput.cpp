// bench_serve_throughput — the serving layer's two headline numbers:
//
//  1. Batched predictor inference: N latency queries answered by ONE
//     Engine::predict_batch call (per-graph tape-free forwards split across
//     the pool) vs N serial predict_latency calls. Answers are bit-identical
//     (asserted in tests/test_predictor.cpp); the speedup is per-call
//     overhead amortisation plus, for the pooled record, the graph split.
//  2. Service throughput: requests/sec of a mixed pure load (predictions +
//     deployment profiles) through serve::Service at 1 / 2 / 4 workers,
//     one shared EvalContext, num_threads pinned to 1 so worker scaling is
//     request-level concurrency, not kernel parallelism.
//
// Results are printed and written to BENCH_serve_throughput.json; CI's
// smoke-perf job gates the --quick run against
// bench/baseline/BENCH_serve_throughput.json.
//
// Usage: bench_serve_throughput [--quick]
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/service.hpp"

namespace {

using namespace hg;

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::JsonReporter json("serve_throughput");
  bench::print_header(std::string("serve throughput") +
                      (quick ? " (quick mode)" : ""));

  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.device = "jetson-tx2";
  cfg.evaluator = "predictor";
  cfg.predictor_samples = quick ? 60 : 200;
  cfg.predictor_epochs = quick ? 8 : 20;
  // Pin the kernel pool to one thread: the numbers below then isolate
  // request-level effects (coalescing, worker concurrency) and stay
  // comparable across differently-sized machines.
  cfg.num_threads = 1;

  bench::Timer startup;
  api::Result<std::shared_ptr<api::EvalContext>> ctx =
      api::EvalContext::create(cfg);
  if (!ctx.ok()) {
    std::fprintf(stderr, "context: %s\n", ctx.status().to_string().c_str());
    return 1;
  }
  std::printf("context ready (predictor fitted) in %.0f ms\n", startup.ms());

  api::Engine engine =
      bench::unwrap(api::Engine::create(cfg, ctx.value()), "engine");
  // Quick mode still uses enough architectures that the gated records sit
  // well above check_perf_regression.py's 5 ms noise floor.
  const std::int64_t n_archs = quick ? 128 : 256;
  std::vector<api::Arch> archs;
  archs.reserve(static_cast<std::size_t>(n_archs));
  for (std::int64_t i = 0; i < n_archs; ++i)
    archs.push_back(engine.sample_arch());

  // ---- batched vs serial predictor inference -------------------------------
  {
    const int reps = quick ? 5 : 8;
    // Warm both paths (allocator, caches) before timing.
    for (const api::Arch& a : archs) (void)engine.predict_latency(a);
    (void)engine.predict_batch(archs);
    double serial_ms = 1e300, batch_ms = 1e300;
    for (int r = 0; r < reps; ++r) {
      bench::Timer t;
      for (const api::Arch& a : archs) (void)engine.predict_latency(a);
      serial_ms = std::min(serial_ms, t.ms());
    }
    for (int r = 0; r < reps; ++r) {
      bench::Timer t;
      (void)engine.predict_batch(archs);
      batch_ms = std::min(batch_ms, t.ms());
    }
    const double speedup = batch_ms > 0.0 ? serial_ms / batch_ms : 0.0;
    const std::string problem = std::to_string(n_archs) + " archs";
    std::printf("predict serial  %-12s %9.2f ms\n", problem.c_str(),
                serial_ms);
    std::printf("predict batched %-12s %9.2f ms   %.2fx\n", problem.c_str(),
                batch_ms, speedup);
    json.add("predict/serial", serial_ms, problem);
    json.add("predict/batched", batch_ms, problem, speedup, "x");

    // The deployment configuration: a batch splits its graphs across the
    // pool where a lone query runs on one thread — so batching is also
    // what unlocks parallelism. (Identical numbers to the pool-of-1
    // records on a single-core host.)
    const std::int64_t hw = core::hardware_threads();
    core::ScopedNumThreads pooled(hw);
    double pooled_ms = 1e300;
    (void)engine.predict_batch(archs);
    for (int r = 0; r < reps; ++r) {
      bench::Timer t;
      (void)engine.predict_batch(archs);
      pooled_ms = std::min(pooled_ms, t.ms());
    }
    const double pooled_speedup =
        pooled_ms > 0.0 ? serial_ms / pooled_ms : 0.0;
    std::printf("predict batched %-12s %9.2f ms   %.2fx (%lld threads)\n",
                problem.c_str(), pooled_ms, pooled_speedup,
                static_cast<long long>(hw));
    json.add("predict/batched_pool", pooled_ms, problem, pooled_speedup, "x",
             hw);
  }

  // ---- service throughput vs worker count ----------------------------------
  const std::int64_t rounds = quick ? 4 : 16;
  for (const std::int64_t workers : {1, 2, 4}) {
    serve::ServiceConfig scfg;
    scfg.num_workers = workers;
    api::Result<std::shared_ptr<serve::Service>> service =
        serve::Service::create(cfg, ctx.value(), scfg);
    if (!service.ok()) {
      std::fprintf(stderr, "service: %s\n",
                   service.status().to_string().c_str());
      return 1;
    }
    bench::Timer t;
    std::vector<std::future<api::Result<api::LatencyReport>>> lat;
    std::vector<std::future<api::Result<api::ProfileReport>>> prof;
    for (std::int64_t round = 0; round < rounds; ++round) {
      for (const api::Arch& a : archs) {
        lat.push_back(service.value()->submit(serve::PredictLatencyRequest{a}));
        prof.push_back(service.value()->submit(serve::ProfileRequest{a}));
      }
    }
    for (auto& f : lat)
      if (!f.get().ok()) return 1;
    for (auto& f : prof)
      if (!f.get().ok()) return 1;
    const double wall_ms = t.ms();
    service.value()->shutdown();
    const auto total =
        static_cast<double>(2 * rounds * n_archs);
    const double rps = wall_ms > 0.0 ? total / (wall_ms / 1e3) : 0.0;
    const std::string problem =
        std::to_string(static_cast<long long>(total)) + " mixed requests";
    std::printf("service %lld worker%s  %-22s %9.2f ms   %8.0f req/s\n",
                static_cast<long long>(workers), workers == 1 ? " " : "s",
                problem.c_str(), wall_ms, rps);
    json.add("serve/workers=" + std::to_string(workers), wall_ms, problem,
             rps, "req/s", workers);
  }

  json.write();
  return 0;
}
