// hgbench — the repository benchmark: remote predict, bulk scoring and
// search under probe load, end to end and layer by layer.
//
//   hgbench --workload <predict_open|predict_bulk|search_mixed>
//           --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Every run starts in-process net::Servers on loopback (evaluator
// "predictor", EngineConfig::tiny(), device jetson-tx2) and drives them from
// this thread through net::Client. --trace 0 measures the end-to-end
// metrics; --trace 1 runs the per-layer passes instead. Each run prints one
// "metric <name> <value> <unit>" line per metric and, last, one JSON object
// with the keys correct / attempted / failed / metrics. It exits non-zero
// when any remote answer differs from the in-process answer.
// perfbench/README.md describes the workloads and every metric.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "attribution.hpp"
#include "core/parallel.hpp"
#include "gnn/gnn.hpp"
#include "graph/graph.hpp"
#include "loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "pointcloud/pointcloud.hpp"
#include "predictor/predictor.hpp"
#include "stats.hpp"
#include "tensor/optim.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {
namespace {

namespace api = hg::api;
namespace net = hg::net;

// ---- the fixed load shape ----------------------------------------------------
constexpr double kLightRps = 2000.0;  // ~15% of pipelined capacity
constexpr double kHeavyRps = 8000.0;  // ~55% of pipelined capacity
constexpr double kProbeRps = 500.0;   // search_mixed probe rate
// A capacity trial passes when its p99 (from due time) stays under this
// without a growing backlog (see capacity_trial). Well above the 10-20 ms
// stalls a shared host inflicts, so the limit tests the service's backlog,
// not the host's scheduling.
constexpr double kCapacityP99LimitMs = 50.0;
constexpr int kCapacityBisectSteps = 6;
constexpr double kCapacityTrialS = 0.4;
// Open-loop windows hold 1000 light or 2000 heavy requests: enough for a
// p99 of each window (stats.hpp).
constexpr std::size_t kP99Window = 1000;
constexpr std::size_t kBulkFrame = 128;
constexpr int kBulkWindowFrames = 30;
constexpr std::int64_t kSearchIterations = 40;
constexpr std::int64_t kSliceMs = 5;
constexpr std::size_t kOpenPool = 256;
constexpr std::size_t kBulkPool = 512;
constexpr std::size_t kProbePool = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  // Chrome trace of the traced net pass, if set
};

/// Engine config of every server: the tiny preset on jetson-tx2 with the
/// learned predictor, at the given kernel-pool width.
api::EngineConfig engine_config(std::int64_t pool_width) {
  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.device = "jetson-tx2";
  cfg.evaluator = "predictor";
  cfg.num_threads = pool_width;
  return cfg;
}

/// search_mixed's server: pool width 2, a search long enough (~0.3 s) for
/// ~150 probes to contend with it.
api::EngineConfig search_config() {
  api::EngineConfig cfg = engine_config(2);
  cfg.iterations = kSearchIterations;
  return cfg;
}

// ---- run bookkeeping --------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Run {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<double> setup_s;  // one sample per timed server start
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
    std::printf("metric %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
    std::fflush(stdout);
  }
  /// Printed with its sample count, not in the JSON (README.md, "Ungated").
  void ungated(const std::string& name, double value, const std::string& unit,
               std::int64_t samples) {
    std::printf("ungated %-33s %14.6f %-5s (%" PRId64 " samples)\n",
                name.c_str(), value, unit.c_str(), samples);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void absorb(const OpenLoopStats& s, const std::string& what) {
    std::printf("  requests %-22s attempted %7" PRId64 "  failed %" PRId64
                "  wrong %" PRId64 "\n",
                what.c_str(), s.attempted, s.failed, s.mismatched);
    attempted += s.attempted;
    failed += s.failed + s.mismatched;
    check(s.mismatched == 0, what + ": " + std::to_string(s.mismatched) +
                                 " remote answers differ from in-process");
    check(s.failed == 0, what + ": " + std::to_string(s.failed) +
                             " requests failed or were refused");
  }
};

template <typename T>
T unwrap(api::Result<T> r, const std::string& what) {
  if (!r.ok()) throw std::runtime_error(what + ": " + r.status().to_string());
  return std::move(r).value();
}

double seconds_since(Clock::time_point t) { return ms_between(t, Clock::now()) / 1e3; }

std::shared_ptr<net::Server> start_server(const api::EngineConfig& cfg,
                                          const net::ServerConfig& sc,
                                          Run* run) {
  const Clock::time_point t = Clock::now();
  std::shared_ptr<net::Server> server =
      unwrap(net::Server::create(cfg, sc), "server start");
  run->setup_s.push_back(seconds_since(t));
  return server;
}

/// `count` distinct architectures: sample_arch() draws of an engine whose
/// master seed is the benchmark seed. That engine is a throwaway oracle
/// engine, so the servers under test never see the seed — only the archs.
std::vector<api::Arch> draw_archs(std::uint64_t seed, std::size_t count) {
  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.device = "jetson-tx2";
  cfg.evaluator = "oracle";
  cfg.seed = seed;
  cfg.num_threads = 1;
  api::Engine gen = unwrap(api::Engine::create(cfg), "arch generator");
  std::vector<api::Arch> out;
  std::set<std::string> seen;
  while (out.size() < count) {
    api::Arch a = gen.sample_arch();
    if (seen.insert(unwrap(gen.export_arch(a), "export arch")).second)
      out.push_back(std::move(a));
  }
  return out;
}

/// The archs with their in-process answers on `ctx` (one packed forward).
ArchPool make_pool(const std::shared_ptr<api::EvalContext>& ctx,
                   const api::EngineConfig& cfg, std::vector<api::Arch> archs) {
  api::Engine engine = unwrap(api::Engine::create(cfg, ctx), "engine");
  ArchPool pool;
  pool.ref = unwrap(engine.predict_batch(archs), "in-process predict_batch");
  pool.archs = std::move(archs);
  return pool;
}

std::string search_bytes(const api::SearchReport& r) {
  net::Writer w;
  net::encode_search_report(r, &w);
  return w.take();
}

/// CPU time of the whole process (every thread), as the guest kernel
/// accounts it: time the host takes a vCPU away is booked as steal.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- predict_open -----------------------------------------------------------

/// Fixed-step capacity search, advanced one trial rate at a time so its
/// trials interleave with the other windows of a run: double from the heavy
/// rate until a rate fails, then kCapacityBisectSteps bisection steps. The
/// result is the highest rate that passed. When the heavy rate itself fails
/// (a machine that has lost most of its cores), the search brackets down
/// to half the heavy rate and reports that floor if nothing passes, so a
/// degraded run costs a few seconds, not minutes of slow low-rate trials.
class CapacitySearch {
 public:
  bool done() const { return !doubling_ && steps_ >= kCapacityBisectSteps; }
  double next_rate() const { return doubling_ ? hi_ : 0.5 * (lo_ + hi_); }
  void record(bool pass) {
    ++trials_;
    const double rate = next_rate();
    if (doubling_) {
      if (!pass) {
        doubling_ = false;
        if (lo_ == 0.0) lo_ = 0.5 * kHeavyRps;
        return;
      }
      lo_ = hi_;
      hi_ *= 2.0;
      if (hi_ > 1e6) throw std::runtime_error("capacity above 1M req/s");
      return;
    }
    (pass ? lo_ : hi_) = rate;
    ++steps_;
  }
  double result() const { return lo_; }
  int trials() const { return trials_; }

 private:
  double lo_ = 0.0;
  double hi_ = kHeavyRps;
  bool doubling_ = true;
  int steps_ = 0;
  int trials_ = 0;
};

/// One capacity trial at `rate`, of at least five p99 windows: it passes
/// when the median of the windows' p99s (from due time) stays under
/// kCapacityP99LimitMs. A growing backlog fails it early: the trial stops
/// once more requests are outstanding than the rate sustains at the limit
/// (Little's law) or than 512. The window median keeps a stall of the machine
/// shorter than half the trial from deciding the result.
bool capacity_trial(Conn& conn, const ArchPool& pool, double rate,
                    std::uint64_t seed, Run* run) {
  OpenLoopStats s;
  const auto n = std::max<std::int64_t>(
      5 * kP99Window, static_cast<std::int64_t>(rate * kCapacityTrialS));
  // Capped well below the server's queue bound (1024), which would start
  // refusing requests.
  const auto backlog = std::min<std::int64_t>(
      512, static_cast<std::int64_t>(rate * kCapacityP99LimitMs / 1e3));
  const bool kept_up = run_open_loop(conn, pool, rate, n, backlog, seed, &s);
  run->absorb(s, "capacity trial");
  const bool pass =
      kept_up &&
      windowed_quantile(s.latency_ms, 0.99, s.latency_ms.size() / 5,
                        "capacity trial") <= kCapacityP99LimitMs;
  std::printf("  capacity trial %8.0f req/s: %s\n", rate, pass ? "pass" : "fail");
  return pass;
}

// ---- search_mixed -----------------------------------------------------------

struct MixedSearch {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU from send to reply
  std::string report;  // wire bytes of the SearchReport
  OpenLoopStats probes;
  hg::obs::Snapshot snapshot;
};

/// One remote search on a fresh server, with open-loop probes on a second
/// connection for as long as the search runs.
MixedSearch mixed_search(std::uint64_t seed, const std::vector<api::Arch>& archs,
                         Run* run) {
  const api::EngineConfig cfg = search_config();
  net::ServerConfig sc;
  sc.service.num_workers = 1;
  sc.service.exclusive_slice_ms = kSliceMs;
  std::shared_ptr<net::Server> server = start_server(cfg, sc, run);
  const ArchPool pool = make_pool(server->service()->context(), cfg, archs);
  Conn a = connect(server->port());
  Conn b = connect(server->port());

  MixedSearch out;
  const double cpu0 = process_cpu_s();
  const std::uint64_t id = unwrap(a.client.send_search(), "send search");
  const Clock::time_point start = Clock::now();
  ++run->attempted;
  ProbeStream probes(b, pool, kProbeRps, seed, start);
  std::vector<Arrival> arrived;
  for (;;) {
    probes.send_due();
    wait_readable({a.pump->fd(), b.pump->fd()}, probes.next_due());
    probes.collect();
    arrived.clear();
    if (!a.pump->pump(&arrived))
      throw std::runtime_error("search connection closed by the server");
    if (!arrived.empty()) {
      out.wall_s = ms_between(start, arrived.front().at) / 1e3;
      out.cpu_s = process_cpu_s() - cpu0;
      break;
    }
  }
  api::Result<api::SearchReport> report = a.client.wait_search(id);
  if (!report.ok()) {
    ++run->failed;
    run->check(false, "remote search failed: " + report.status().to_string());
  } else {
    out.report = search_bytes(report.value());
  }
  if (!probes.drain(10.0)) throw std::runtime_error("probe replies lost");
  out.probes = probes.stats;
  out.snapshot = server->service()->metrics_snapshot();
  return out;
}

/// The reference every remote search must equal: an in-process
/// Engine::search on a fresh context with the identical config.
std::string reference_search() {
  const api::EngineConfig cfg = search_config();
  api::Engine engine = unwrap(api::Engine::create(cfg), "reference engine");
  return search_bytes(unwrap(engine.search(), "in-process search"));
}

// ---- end-to-end run ---------------------------------------------------------

/// Per-window samples of one metric, printed for inspection.
void print_windows(const char* name, const std::vector<double>& v) {
  std::printf("  windows %-22s", name);
  for (const double x : v) std::printf(" %.4g", x);
  std::printf("\n");
}

/// The end-to-end run. Every workload's run reports every end-to-end
/// metric, and a shared host may lose cores for seconds at a time, so the
/// three load shapes are not measured one after the other: every round runs
/// one window of each (a light and a heavy predict_open window, up to two
/// trials of each of the two capacity searches, a predict_bulk window and
/// one search_mixed search), so a noisy stretch lands on every metric alike.
/// Rounds repeat until --seconds have passed and every metric has its
/// minimum sample count. The named workload runs its window twice per
/// round.
void end_to_end(const Args& args, Run* run) {
  const std::vector<api::Arch> archs =
      draw_archs(args.seed, kOpenPool + kBulkPool + kProbePool);
  const std::vector<api::Arch> open_archs(archs.begin(),
                                          archs.begin() + kOpenPool);
  const std::vector<api::Arch> bulk_archs(
      archs.begin() + kOpenPool, archs.begin() + kOpenPool + kBulkPool);
  const std::vector<api::Arch> probe_archs(
      archs.begin() + kOpenPool + kBulkPool, archs.end());
  const int open_reps = args.workload == "predict_open" ? 2 : 1;
  const int bulk_reps = args.workload == "predict_bulk" ? 2 : 1;
  const int mixed_reps = args.workload == "search_mixed" ? 2 : 1;

  // predict_open: pool width 1, two workers.
  const api::EngineConfig open_cfg = engine_config(1);
  net::ServerConfig open_sc;
  open_sc.service.num_workers = 2;
  std::shared_ptr<net::Server> open_server = start_server(open_cfg, open_sc, run);
  const ArchPool open_pool =
      make_pool(open_server->service()->context(), open_cfg, open_archs);
  Conn open_conn = connect(open_server->port());
  // predict_bulk: pool width 2, one worker.
  const api::EngineConfig bulk_cfg = engine_config(2);
  net::ServerConfig bulk_sc;
  bulk_sc.service.num_workers = 1;
  std::shared_ptr<net::Server> bulk_server = start_server(bulk_cfg, bulk_sc, run);
  const ArchPool bulk_pool =
      make_pool(bulk_server->service()->context(), bulk_cfg, bulk_archs);
  Conn bulk_conn = connect(bulk_server->port());
  const std::string ref_search = reference_search();

  // Process CPU per request of each light [0] and heavy [1] window. The
  // kernel pool is process-wide, so each window sets the width its server
  // was configured with (no request is in flight between windows).
  std::vector<double> open_cpu_us[2];
  auto open_window = [&](double rate, std::size_t n, std::uint64_t seed,
                         OpenLoopStats* out) {
    hg::core::set_num_threads(open_cfg.num_threads);
    const double cpu0 = process_cpu_s();
    run_open_loop(open_conn, open_pool, rate, static_cast<std::int64_t>(n),
                  1 << 20, seed, out);
    open_cpu_us[rate == kHeavyRps].push_back((process_cpu_s() - cpu0) * 1e6 /
                                             static_cast<double>(n));
  };
  OpenLoopStats warm;
  open_window(kLightRps, 500, args.seed ^ 0x11, &warm);
  run->absorb(warm, "predict_open warm-up");

  OpenLoopStats light, heavy, probes;
  // Two independent capacity searches, their trials interleaved; the
  // reported capacity is the better of the two, so a stretch of lost cores
  // during one search does not set the figure.
  CapacitySearch capacity[2];
  std::vector<double> bulk_frame_ms, bulk_window_rate, search_walls, search_cpu;
  std::int64_t bulk_frames = 0, bulk_bad = 0, search_bad = 0;
  SplitMix bulk_rng(args.seed ^ 0x55);
  std::vector<std::size_t> order(bulk_pool.archs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> bulk_cpu_us_per_arch;  // process CPU per scored arch
  auto bulk_window = [&](int frames) {
    hg::core::set_num_threads(bulk_cfg.num_threads);
    std::vector<double> ms;
    const double cpu0 = process_cpu_s();
    for (int f = 0; f < frames; ++f) {
      // Partial Fisher-Yates: kBulkFrame distinct archs per frame.
      for (std::size_t i = 0; i < kBulkFrame; ++i)
        std::swap(order[i], order[i + bulk_rng.below(order.size() - i)]);
      std::vector<api::Arch> batch;
      for (std::size_t i = 0; i < kBulkFrame; ++i)
        batch.push_back(bulk_pool.archs[order[i]]);
      const Clock::time_point t = Clock::now();
      api::Result<std::vector<api::LatencyReport>> r =
          bulk_conn.client.predict_batch(batch);
      ms.push_back(ms_between(t, Clock::now()));
      ++run->attempted;
      std::int64_t bad = 0;
      if (r.ok() && r.value().size() == kBulkFrame) {
        for (std::size_t i = 0; i < kBulkFrame; ++i)
          bad += report_bytes(r.value()[i]) !=
                 report_bytes(bulk_pool.ref[order[i]]);
      } else {
        bad = 1;
      }
      if (bad > 0) ++run->failed;
      run->check(bad == 0, "bulk frame differs from in-process predict_batch");
      ++bulk_frames;
      bulk_bad += bad > 0;
    }
    bulk_cpu_us_per_arch.push_back((process_cpu_s() - cpu0) * 1e6 /
                                   (frames * static_cast<double>(kBulkFrame)));
    return ms;
  };
  (void)bulk_window(5);  // warm-up

  const Clock::time_point begin = Clock::now();
  for (std::uint64_t round = 0;; ++round) {
    const std::uint64_t rs = args.seed * 1000 + round;
    for (int i = 0; i < open_reps; ++i) {
      open_window(kLightRps, kP99Window, rs ^ (0x100 + i), &light);
      open_window(kHeavyRps, 2 * kP99Window, rs ^ (0x200 + i), &heavy);
    }
    for (int i = 0; i < 4; ++i) {
      CapacitySearch& c = capacity[i % 2];
      if (c.done()) continue;
      hg::core::set_num_threads(open_cfg.num_threads);
      c.record(capacity_trial(open_conn, open_pool, c.next_rate(),
                              rs ^ (0x300 + i), run));
    }
    for (int i = 0; i < bulk_reps; ++i) {
      const std::vector<double> ms = bulk_window(kBulkWindowFrames);
      bulk_frame_ms.insert(bulk_frame_ms.end(), ms.begin(), ms.end());
      bulk_window_rate.push_back(static_cast<double>(kBulkFrame) /
                                 (median(ms) / 1e3));
    }
    for (int i = 0; i < mixed_reps; ++i) {
      MixedSearch m = mixed_search(rs ^ (0x400 + i), probe_archs, run);
      run->check(m.report == ref_search,
                 "remote SearchReport differs from in-process Engine::search");
      search_bad += m.report != ref_search;
      search_walls.push_back(m.wall_s);
      search_cpu.push_back(m.cpu_s);
      probes.merge(m.probes);
    }
    if (seconds_since(begin) >= args.seconds && capacity[0].done() &&
        capacity[1].done() &&
        probes.latency_ms.size() >= kP99Window && search_walls.size() >= 5)
      break;
  }
  run->absorb(light, "predict_open light");
  run->absorb(heavy, "predict_open heavy");
  run->absorb(probes, "search_mixed probes");
  std::printf("  requests %-22s attempted %7" PRId64 "  failed %" PRId64 "\n",
              "predict_bulk frames", bulk_frames, bulk_bad);
  std::printf("  requests %-22s attempted %7zu  failed %" PRId64 "\n",
              "search_mixed searches", search_walls.size(), search_bad);

  const std::vector<double> light_p50 =
      window_quantiles(light.latency_ms, kP99Window, 0.5);
  const std::vector<double> light_p99 =
      window_quantiles(light.latency_ms, kP99Window, 0.99, "light window");
  const std::vector<double> heavy_p90 =
      window_quantiles(heavy.latency_ms, 2 * kP99Window, 0.9);
  const std::vector<double> heavy_p99 =
      window_quantiles(heavy.latency_ms, 2 * kP99Window, 0.99, "heavy window");
  print_windows("predict_p50_ms.light", light_p50);
  print_windows("predict_p90_ms.heavy", heavy_p90);
  print_windows("predict_p99_ms.light", light_p99);
  print_windows("predict_p99_ms.heavy", heavy_p99);
  print_windows("bulk_archs_per_s", bulk_window_rate);
  print_windows("search_wall_s", search_walls);
  print_windows("setup_s", run->setup_s);


  std::printf("  capacity searches: %.0f and %.0f req/s\n",
              capacity[0].result(), capacity[1].result());
  run->add("setup_s", median(run->setup_s), "s");
  run->add("peak_rss_mb", peak_rss_mb(), "MB");
  print_windows("predict_cpu_us.light", open_cpu_us[0]);
  print_windows("predict_cpu_us.heavy", open_cpu_us[1]);
  print_windows("bulk_cpu_us_per_arch", bulk_cpu_us_per_arch);
  print_windows("search_cpu_s", search_cpu);
  run->add("predict_cpu_us.light", median(open_cpu_us[0]), "us");
  run->add("predict_cpu_us.heavy", median(open_cpu_us[1]), "us");
  run->add("bulk_cpu_us_per_arch", median(bulk_cpu_us_per_arch), "us");
  run->add("search_cpu_s", median(search_cpu), "s");

  // Measured and printed with their sample counts, but not in the JSON:
  // on a shared host these wall-clock figures move with the host's
  // scheduling far more than with the program (README.md, "Ungated").
  OpenLoopStats lag = light;
  lag.merge(heavy);
  const std::int64_t n_light = static_cast<std::int64_t>(light.latency_ms.size());
  const std::int64_t n_heavy = static_cast<std::int64_t>(heavy.latency_ms.size());
  const std::int64_t n_probes = static_cast<std::int64_t>(probes.latency_ms.size());
  run->ungated("predict_capacity_rps",
               std::max(capacity[0].result(), capacity[1].result()), "1/s",
               static_cast<std::int64_t>(capacity[0].trials() +
                                         capacity[1].trials()));
  run->ungated("predict_p50_ms.light", median(light_p50), "ms", n_light);
  run->ungated("predict_p99_ms.light", median(light_p99), "ms", n_light);
  run->ungated("predict_p90_ms.heavy", median(heavy_p90), "ms", n_heavy);
  run->ungated("predict_p99_ms.heavy", median(heavy_p99), "ms", n_heavy);
  run->ungated("bulk_archs_per_s", median(bulk_window_rate), "1/s", bulk_frames);
  run->ungated("bulk_frame_p90_ms",
               quantile(bulk_frame_ms, 0.9, "bulk frames"), "ms",
               static_cast<std::int64_t>(bulk_frame_ms.size()));
  run->ungated("search_wall_s", median(search_walls), "s",
               static_cast<std::int64_t>(search_walls.size()));
  run->ungated("mixed_predict_p50_ms", median(probes.latency_ms), "ms", n_probes);
  run->ungated("mixed_predict_p99_ms",
               quantile(probes.latency_ms, 0.99, "mixed probes"), "ms", n_probes);
  run->ungated("failed_frac",
               static_cast<double>(run->failed) /
                   static_cast<double>(run->attempted),
               "ratio", run->attempted);
  run->ungated("gen_lag_ms.p99", quantile(lag.lag_ms, 0.99, "generator lag"),
               "ms", static_cast<std::int64_t>(lag.lag_ms.size()));
}

// ---- per-layer run ----------------------------------------------------------

/// Median wall time (us) of `fn` over `reps` calls.
double time_us(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t = Clock::now();
    fn();
    us.push_back(ms_between(t, Clock::now()) * 1e3);
  }
  return median(us);
}

/// Effective parallel capacity of this runner: 4 threads spinning a fixed
/// loop vs one thread spinning it.
double parallel_capacity() {
  auto spin = [] {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) x = x + i;
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t = Clock::now();
    spin();
    const double one = ms_between(t, Clock::now());
    t = Clock::now();
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) threads.emplace_back(spin);
    for (std::thread& th : threads) th.join();
    const double four = ms_between(t, Clock::now());
    ratios.push_back(4.0 * one / four);
  }
  return median(ratios);
}

/// Pipelined predict throughput: 64 requests kept in flight for `seconds`
/// on one connection.
double pipelined_rps(Conn& conn, const ArchPool& pool, double seconds,
                     Run* run) {
  std::map<std::uint64_t, std::size_t> inflight;
  SplitMix rng(7);
  std::int64_t done = 0;
  constexpr std::size_t kWindow = 64;
  std::vector<Arrival> arrived;
  const Clock::time_point begin = Clock::now();
  Clock::time_point end = begin;
  for (;;) {
    const bool sending = seconds_since(begin) < seconds;
    while (sending && inflight.size() < kWindow) {
      const std::size_t i = rng.below(pool.archs.size());
      inflight[unwrap(conn.client.send_predict_latency(pool.archs[i]),
                      "send predict")] = i;
    }
    if (!sending && inflight.empty()) break;
    wait_readable({conn.pump->fd()}, Clock::now() + std::chrono::milliseconds(5));
    arrived.clear();
    if (!conn.pump->pump(&arrived)) throw std::runtime_error("connection lost");
    for (const Arrival& a : arrived) {
      api::Result<api::LatencyReport> r = conn.client.wait_predict_latency(a.id);
      ++run->attempted;
      const bool ok =
          r.ok() && report_bytes(r.value()) == report_bytes(pool.ref[inflight[a.id]]);
      if (!ok) ++run->failed;
      run->check(ok, "pipelined predict differs from in-process");
      inflight.erase(a.id);
      if (sending) {
        ++done;
        end = a.at;
      }
    }
  }
  return static_cast<double>(done) / (ms_between(begin, end) / 1e3);
}

std::int64_t snap(const hg::obs::Snapshot& s, const std::string& key) {
  const auto it = s.find(key);
  if (it == s.end()) throw std::runtime_error("missing metric " + key);
  return it->second;
}

void net_and_serve_layers(const Args& args, const std::vector<api::Arch>& archs,
                          Run* run) {
  const api::EngineConfig cfg = engine_config(1);
  net::ServerConfig sc;
  sc.service.num_workers = 2;
  std::shared_ptr<net::Server> server = start_server(cfg, sc, run);
  const std::shared_ptr<api::EvalContext> ctx = server->service()->context();
  const ArchPool pool = make_pool(ctx, cfg, archs);

  // One request in flight: untraced, then traced, closed loop.
  const auto n = std::max<std::int64_t>(
      2000, static_cast<std::int64_t>(args.seconds * 200));
  Conn conn = connect(server->port());
  auto closed_loop = [&](std::map<std::uint64_t, double>* rtt_by_id) {
    std::vector<double> rtt;
    SplitMix rng(args.seed ^ 0x77);
    for (std::int64_t i = 0; i < n; ++i) {
      const std::size_t k = rng.below(pool.archs.size());
      const Clock::time_point t = Clock::now();
      const std::uint64_t id =
          unwrap(conn.client.send_predict_latency(pool.archs[k]), "send");
      api::Result<api::LatencyReport> r = conn.client.wait_predict_latency(id);
      const double us = ms_between(t, Clock::now()) * 1e3;
      ++run->attempted;
      const bool ok = r.ok() && report_bytes(r.value()) == report_bytes(pool.ref[k]);
      if (!ok) ++run->failed;
      run->check(ok, "closed-loop predict differs from in-process");
      rtt.push_back(us);
      if (rtt_by_id != nullptr) (*rtt_by_id)[id] = us;
    }
    return rtt;
  };
  (void)closed_loop(nullptr);  // warm-up
  const std::vector<double> untraced = closed_loop(nullptr);
  hg::obs::TraceCollector& tc = hg::obs::TraceCollector::global();
  tc.start(1 << 17);
  std::map<std::uint64_t, double> rtt_by_id;
  const std::vector<double> traced = closed_loop(&rtt_by_id);
  const std::vector<hg::obs::TraceEvent> events = tc.events();
  if (!args.trace_file.empty() && !tc.write_json(args.trace_file))
    std::fprintf(stderr, "warning: cannot write %s\n", args.trace_file.c_str());
  tc.stop();

  const std::vector<RequestSpans> joined = join_spans(events, rtt_by_id);
  if (joined.size() < 1000)
    throw std::runtime_error("only " + std::to_string(joined.size()) +
                             " requests joined with their spans");
  const Attribution attr = attribute(joined);
  std::vector<double> request_us, wire_us;
  for (const RequestSpans& r : joined) {
    request_us.push_back(r.request_us);
    wire_us.push_back(r.rtt_us - r.request_us);
  }
  std::printf("  round-trip attribution (median band, %" PRId64
              " of %" PRId64 " requests):\n",
              attr.band_requests, attr.requests);
  for (const AttributionRow& row : attr.rows)
    std::printf("    %-22s %9.2f us\n", row.name.c_str(), row.us);
  std::printf("    %-22s %9.2f us  (p50 rtt %.2f us, residual %.2f%%, "
              "tolerance %.0f%%)\n",
              "sum", attr.rows_sum_us, attr.rtt_p50_us,
              100.0 * attr.residual_frac, 100.0 * kAttributionTolerance);
  if (!attr.within_tolerance())
    std::fprintf(stderr, "warning: attribution rows miss p50 rtt by %.1f%%\n",
                 100.0 * attr.residual_frac);

  const double rtt_p50 = quantile(traced, 0.5);
  run->add("net.rtt_us.p50", rtt_p50, "us");
  run->add("net.rtt_us.p99", quantile(traced, 0.99, "traced rtt"), "us");
  run->add("net.request_us.p50", median(request_us), "us");
  run->add("net.wire_us.p50", median(wire_us), "us");
  run->add("attr.client_wire_us", attr.rows[0].us, "us");
  run->add("attr.request_self_us", attr.rows[1].us, "us");
  run->add("attr.queue_wait_us", attr.rows[2].us, "us");
  run->add("attr.predict_batch_us", attr.rows[3].us, "us");
  run->add("attr.flush_us", attr.rows[4].us, "us");
  run->add("attr.residual_frac", attr.residual_frac, "ratio");
  run->add("trace.overhead_frac", rtt_p50 / quantile(untraced, 0.5) - 1.0,
           "ratio");
  conn.client.close();

  // Open-loop heavy pass on a fresh service (fresh serve.* instruments).
  {
    std::shared_ptr<net::Server> heavy_server = unwrap(
        net::Server::create(cfg, ctx, sc), "heavy server");
    Conn c = connect(heavy_server->port());
    OpenLoopStats heavy;
    run_open_loop(c, pool, kHeavyRps,
                  std::max<std::int64_t>(
                      4 * kP99Window,
                      static_cast<std::int64_t>(kHeavyRps * 0.1 * args.seconds)),
                  1 << 20, args.seed ^ 0x88, &heavy);
    run->absorb(heavy, "heavy pass");
    const hg::obs::Snapshot s = heavy_server->service()->metrics_snapshot();
    run->add("serve.pure_queue_wait_us.p50",
             snap(s, "serve.pure_queue_wait_us.p50_us"), "us");
    run->add("serve.pure_queue_wait_us.p99",
             snap(s, "serve.pure_queue_wait_us.p99_us"), "us");
    run->add("serve.pure_service_time_us.p50",
             snap(s, "serve.pure_service_time_us.p50_us"), "us");
    run->add("serve.coalesce_ratio",
             static_cast<double>(snap(s, "serve.predict_requests")) /
                 static_cast<double>(snap(s, "serve.predict_batches")),
             "ratio");
    run->add("gen_lag_ms.p99", quantile(heavy.lag_ms, 0.99, "generator lag"),
             "ms");
  }

  // Worker scaling: pipelined capacity with 2 workers over 1 worker.
  std::map<std::int64_t, double> rps;
  for (const std::int64_t workers : {1, 2}) {
    net::ServerConfig wsc;
    wsc.service.num_workers = workers;
    std::shared_ptr<net::Server> s =
        unwrap(net::Server::create(cfg, ctx, wsc), "scaling server");
    Conn c = connect(s->port());
    rps[workers] = pipelined_rps(c, pool, std::max(0.3, 0.05 * args.seconds), run);
  }
  run->add("serve.pipelined_rps.w1", rps[1], "1/s");
  run->add("serve.pipelined_rps.w2", rps[2], "1/s");
  run->add("serve.worker_scaling", rps[2] / rps[1], "ratio");

  // Predictor forward, in process, on the same archs.
  api::Engine engine = unwrap(api::Engine::create(cfg, ctx), "engine");
  auto forward = [&](std::size_t b) {
    const std::span<const api::Arch> batch(pool.archs.data(), b);
    return [&engine, batch] {
      unwrap(engine.predict_batch(batch), "predict_batch");
    };
  };
  run->add("predictor.forward_us.b1", time_us(400, forward(1)), "us");
  run->add("predictor.forward_us.b16", time_us(60, forward(16)), "us");
  const double b128_pool1 = time_us(11, forward(128));
  double b128_pool2 = 0.0;
  {
    hg::core::ScopedNumThreads width(2);
    b128_pool2 = time_us(11, forward(128));
  }
  run->add("predictor.forward_us.b128", b128_pool2, "us");
  run->add("predictor.pool_speedup.b128", b128_pool1 / b128_pool2, "ratio");
  std::size_t next = 0;
  run->add("predictor.arch_to_graph_us", time_us(2000, [&] {
             (void)hg::predictor::arch_to_graph(
                 pool.archs[next++ % pool.archs.size()], ctx->deploy_workload());
           }),
           "us");
}

void setup_layers(Run* run) {
  const api::EngineConfig cfg = engine_config(1);
  std::shared_ptr<api::EvalContext> ctx =
      unwrap(api::EvalContext::create(cfg), "context");
  hg::hgnas::SpaceConfig space;
  space.num_positions = cfg.num_positions;
  std::vector<double> collect_ms, fit_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t = Clock::now();
    const std::vector<hg::predictor::LabeledArch> labeled =
        hg::predictor::collect_labeled_archs(ctx->device(), space,
                                             ctx->deploy_workload(),
                                             cfg.predictor_samples, cfg.seed);
    collect_ms.push_back(ms_between(t, Clock::now()));
    hg::predictor::PredictorConfig pcfg;
    pcfg.epochs = cfg.predictor_epochs;
    hg::Rng rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    t = Clock::now();
    hg::predictor::LatencyPredictor p(pcfg, ctx->deploy_workload(), rng);
    (void)p.fit(labeled, rng);
    fit_ms.push_back(ms_between(t, Clock::now()));
  }
  run->add("setup.labeled_archs_ms", median(collect_ms), "ms");
  run->add("setup.predictor_fit_ms", median(fit_ms), "ms");
}

/// In-process search stepped by hand, timed by phase; then the supernet
/// verbs and kernels at the supernet's training shapes. Returns the stepped
/// search's report bytes (the search_mixed reference).
std::string search_layers(Run* run) {
  const api::EngineConfig cfg = search_config();
  std::shared_ptr<api::EvalContext> ctx =
      unwrap(api::EvalContext::create(cfg), "context");
  api::Engine engine = unwrap(api::Engine::create(cfg, ctx), "engine");
  std::unique_ptr<api::SearchRun> search =
      unwrap(engine.begin_search(), "begin_search");
  using Phase = hg::hgnas::SearchProgress::Phase;
  std::map<Phase, double> phase_ms;
  std::vector<double> gen_ms;
  for (;;) {
    const Clock::time_point t = Clock::now();
    const bool more = search->step();
    const double ms = ms_between(t, Clock::now());
    Phase phase = search->progress().phase;
    if (phase == Phase::kDone) phase = Phase::kStage2;  // the final generation
    phase_ms[phase] += ms;
    if (phase == Phase::kStage1 || phase == Phase::kStage2) gen_ms.push_back(ms);
    if (!more) break;
  }
  const api::SearchReport report = unwrap(search->take_report(), "stepped search");
  run->add("search.warmup_ms", phase_ms[Phase::kWarmup], "ms");
  run->add("search.stage1_ms", phase_ms[Phase::kStage1], "ms");
  run->add("search.pretrain_ms", phase_ms[Phase::kPretrain], "ms");
  run->add("search.stage2_ms", phase_ms[Phase::kStage2], "ms");
  run->add("search.gen_ms.p50", median(gen_ms), "ms");
  const double hits = static_cast<double>(report.result.eval_cache_hits);
  const double misses = static_cast<double>(report.result.eval_cache_misses);
  run->add("search.cache_hit_ratio", hits / (hits + misses), "ratio");

  // Supernet verbs on the searched context.
  hg::hgnas::SuperNet& supernet = ctx->supernet();
  const auto& data = ctx->data();
  hg::Rng rng(11);
  const api::Arch arch = report.result.best_arch;
  run->add("supernet.evaluate_ms", time_us(20, [&] {
             (void)supernet.evaluate(arch, data.test(), cfg.eval_val_samples, rng);
           }) / 1e3,
           "ms");
  hg::hgnas::SpaceConfig space;
  space.num_positions = cfg.num_positions;
  hg::Adam opt(supernet.parameters(), 1e-3f);
  auto sampler = [&space](hg::Rng& r) { return hg::hgnas::random_arch(space, r); };
  run->add("supernet.train_epoch_ms", time_us(3, [&] {
             (void)supernet.train_epoch(data.train(), sampler, opt,
                                        hg::hgnas::SearchConfig{}.batch_size, rng);
           }) / 1e3,
           "ms");

  // Kernels at the training shapes: train_points points, train_k
  // neighbours, supernet_hidden channels, a TargetRel message (2H wide)
  // aligned back to H by a Linear — the supernet's Aggregate + align.
  const std::int64_t n = cfg.train_points;
  const std::int64_t k = cfg.train_k;
  const std::int64_t h = cfg.supernet_hidden;
  const std::int64_t md = 2 * h;
  hg::NoGradGuard no_grad;
  const hg::Tensor pts = hg::pointcloud::Dataset::to_tensor(data.train().front());
  const std::span<const float> pspan = pts.data();
  const hg::graph::EdgeList g = hg::graph::knn_graph(pspan, n, k);
  const hg::Tensor x = hg::Tensor::randn({n, h}, rng);
  const hg::Tensor msg = hg::Tensor::randn({n, md}, rng);
  const hg::Tensor w = hg::Tensor::randn({md, h}, rng);
  const double e = static_cast<double>(g.num_edges());
  struct Kernel {
    const char* name;
    double us, flop, bytes;
  };
  const Kernel kernels[] = {
      {"tensor.matmul",
       time_us(5000, [&] { (void)hg::matmul(msg, w); }),
       2.0 * n * md * h, 4.0 * (n * md + md * h + n * h)},
      {"gnn.aggregate",
       time_us(2000, [&] {
         (void)hg::gnn::aggregate(x, g, hg::gnn::MessageType::TargetRel,
                                  hg::Reduce::Max);
       }),
       // per edge: one subtraction per channel, one max per message channel
       e * (h + md), 4.0 * (n * h + n * md) + 16.0 * e},
      {"graph.knn",
       time_us(2000, [&] { (void)hg::graph::knn_graph(pspan, n, k); }),
       // all-pairs squared distances: 3 sub + 3 mul + 2 add
       8.0 * n * n, 4.0 * 3 * n + 16.0 * n * k},
  };
  for (const Kernel& kn : kernels) {
    std::printf("  %-14s %8.2f us  %8.0f flop  %8.0f bytes  %7.3f GFLOP/s  "
                "%7.3f GB/s\n",
                kn.name, kn.us, kn.flop, kn.bytes, kn.flop / kn.us / 1e3,
                kn.bytes / kn.us / 1e3);
    run->add(std::string(kn.name) + "_us", kn.us, "us");
    run->add(std::string(kn.name) + "_gflops", kn.flop / kn.us / 1e3, "GFLOP/s");
  }
  return search_bytes(report);
}

void per_layer(const Args& args, Run* run) {
  const std::vector<api::Arch> archs =
      draw_archs(args.seed, kOpenPool + kProbePool);
  const std::vector<api::Arch> open_archs(archs.begin(),
                                          archs.begin() + kOpenPool);
  const std::vector<api::Arch> probe_archs(archs.begin() + kOpenPool,
                                           archs.end());
  std::printf("[runner]\n");
  run->add("runner.parallel_capacity", parallel_capacity(), "cores");
  std::printf("[setup]\n");
  setup_layers(run);
  std::printf("[net, serve, predictor: predict_open]\n");
  net_and_serve_layers(args, open_archs, run);
  std::printf("[hgnas, kernels]\n");
  const std::string stepped = search_layers(run);
  std::printf("[serve: search_mixed]\n");
  MixedSearch m = mixed_search(args.seed ^ 0x99, probe_archs, run);
  run->check(m.report == stepped,
             "remote SearchReport differs from the in-process stepped search");
  run->absorb(m.probes, "search_mixed probes");
  run->add("serve.exclusive_preemptions",
           snap(m.snapshot, "serve.exclusive_preemptions"), "count");
  run->add("serve.exclusive_queue_wait_us.p99",
           snap(m.snapshot, "serve.exclusive_queue_wait_us.p99_us"), "us");
}

// ---- entry ------------------------------------------------------------------

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-file") a.trace_file = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload != "predict_open" && a.workload != "predict_bulk" &&
      a.workload != "search_mixed")
    throw std::runtime_error("--workload must be predict_open, predict_bulk "
                             "or search_mixed");
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

void print_json(const Run& run) {
  std::string out = "{\"correct\": ";
  out += run.check_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", run.metrics[i].value);
    out += (i ? ", \"" : "\"") + run.metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + run.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse(argc, argv);
    // The generator sleeps in ppoll until each due time; the default 50 us
    // timer slack would make every send that late.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::printf("hgbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0);
    Run run;
    if (args.trace)
      per_layer(args, &run);
    else
      end_to_end(args, &run);
    print_json(run);
    return run.check_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hgbench: %s\n", e.what());
    return 2;
  }
}
