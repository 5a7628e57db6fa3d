// serve_demo — the long-lived NAS service loop against a device fleet.
//
// Two serve::Services (Jetson TX2 and RTX3080), each owning one shared
// EvalContext with a fitted GNN latency predictor. Startup routes both
// devices' labelled-architecture collection — the dominant predictor cost —
// through ONE pooled measurement queue (EvalContext::create_many), then a
// mixed request load hits both services concurrently: searches (exclusive,
// FIFO), latency predictions (coalesced into batched GCN forwards) and
// deployment profiles (pure, parallel).
#include <cstdio>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "serve/service.hpp"

int main() {
  using namespace hg;

  const std::vector<std::string> devices = {"jetson-tx2", "rtx3080"};
  std::vector<api::EngineConfig> cfgs;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    api::EngineConfig cfg;
    cfg.device = devices[i];
    cfg.evaluator = "predictor";
    cfg.strategy = "multistage";
    cfg.num_positions = 8;
    cfg.samples_per_class = 6;
    cfg.population = 10;
    cfg.parents = 5;
    cfg.iterations = 4;
    cfg.eval_val_samples = 10;
    cfg.predictor_samples = 200;
    cfg.predictor_epochs = 24;
    cfg.seed = 300 + static_cast<std::uint64_t>(i);  // per-device labels
    cfg.constrain_to_reference = true;
    cfgs.push_back(cfg);
  }

  std::printf("== fleet startup: shared label collection, one fit per device ==\n");
  api::Result<std::vector<std::shared_ptr<api::EvalContext>>> contexts =
      api::EvalContext::create_many(cfgs);
  if (!contexts.ok()) {
    std::fprintf(stderr, "%s\n", contexts.status().to_string().c_str());
    return 1;
  }

  serve::ServiceConfig scfg;
  scfg.num_workers = 3;
  // Generation-sliced scheduling: searches yield every 5 ms so the small
  // predict/profile queries interleave instead of waiting out a search.
  scfg.exclusive_slice_ms = 5;
  std::vector<std::shared_ptr<serve::Service>> services;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    api::Result<std::shared_ptr<serve::Service>> service =
        serve::Service::create(cfgs[i], contexts.value()[i], scfg);
    if (!service.ok()) {
      std::fprintf(stderr, "%s: %s\n", devices[i].c_str(),
                   service.status().to_string().c_str());
      return 1;
    }
    services.push_back(std::move(service).value());
    std::printf("  %-16s service up (%lld workers, evaluator builds: %lld)\n",
                devices[i].c_str(),
                static_cast<long long>(scfg.num_workers),
                static_cast<long long>(
                    contexts.value()[i]->evaluator_builds()));
  }

  // Sample query architectures once (shared across both services).
  api::Result<api::Engine> probe =
      api::Engine::create(cfgs[0], contexts.value()[0]);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().to_string().c_str());
    return 1;
  }
  std::vector<api::Arch> archs;
  for (int i = 0; i < 12; ++i) archs.push_back(probe.value().sample_arch());

  // Mixed load, both services at once: one search each, a burst of
  // predictions (coalesced), profiles and a baseline reference.
  std::printf("\n== mixed concurrent load ==\n");
  std::vector<std::future<api::Result<api::SearchReport>>> searches;
  std::vector<std::vector<std::future<api::Result<api::LatencyReport>>>>
      predictions(services.size());
  std::vector<std::vector<std::future<api::Result<api::ProfileReport>>>>
      profiles(services.size());
  std::vector<std::future<api::Result<api::ProfileReport>>> references;
  for (std::size_t s = 0; s < services.size(); ++s) {
    searches.push_back(services[s]->submit(serve::SearchRequest{}));
    for (const api::Arch& a : archs) {
      predictions[s].push_back(
          services[s]->submit(serve::PredictLatencyRequest{a}));
      profiles[s].push_back(services[s]->submit(serve::ProfileRequest{a}));
    }
    references.push_back(
        services[s]->submit(serve::ProfileBaselineRequest{"dgcnn", {}}));
  }

  for (std::size_t s = 0; s < services.size(); ++s) {
    api::Result<api::SearchReport> report = searches[s].get();
    if (!report.ok()) {
      std::fprintf(stderr, "search on %s: %s\n", devices[s].c_str(),
                   report.status().to_string().c_str());
      return 1;
    }
    api::Result<api::ProfileReport> reference = references[s].get();
    std::printf("\n-- %s --\n", devices[s].c_str());
    std::printf("search winner: objective %.3f, predicted %.1f ms "
                "(DGCNN reference %.1f ms)\n",
                report.value().result.best_objective,
                report.value().result.best_latency_ms,
                reference.ok() ? reference.value().latency_ms : 0.0);
    std::printf("%5s %15s %15s\n", "arch", "predicted_ms", "profiled_ms");
    for (std::size_t i = 0; i < archs.size(); ++i) {
      api::Result<api::LatencyReport> lat = predictions[s][i].get();
      api::Result<api::ProfileReport> prof = profiles[s][i].get();
      if (!lat.ok() || !prof.ok()) {
        std::fprintf(stderr, "request failed on %s\n", devices[s].c_str());
        return 1;
      }
      std::printf("%5zu %15.2f %15.2f\n", i, lat.value().latency_ms,
                  prof.value().latency_ms);
    }
    // Full registry snapshot for this service (histograms report
    // .p50_us/.p99_us/.count; slicing runs with exclusive_slice_ms from
    // scfg). Rendering is shared with net_server_demo.
    std::printf("metrics (slice %lld ms):\n",
                static_cast<long long>(scfg.exclusive_slice_ms));
    std::fputs(obs::render_snapshot(services[s]->metrics_snapshot()).c_str(),
               stdout);
  }

  // Graceful half of shutdown first: drain() stops admissions while the
  // workers finish what is queued, then shutdown() joins them.
  for (auto& service : services) service->drain();
  for (auto& service : services) service->shutdown();
  std::printf("\nservices drained and shut down.\n");
  return 0;
}
