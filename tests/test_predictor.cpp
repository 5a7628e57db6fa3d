// Latency predictor: graph abstraction, feature encoding, training,
// ranking power, evaluator wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "predictor/predictor.hpp"

namespace hg::predictor {
namespace {

hgnas::Workload test_workload() {
  hgnas::Workload w;
  w.num_points = 512;
  w.k = 10;
  w.num_classes = 10;
  return w;
}

hgnas::SpaceConfig test_space() {
  hgnas::SpaceConfig s;
  s.num_positions = 6;
  return s;
}

PredictorConfig tiny_predictor_config() {
  PredictorConfig c;
  c.gcn_dims = {24, 32};
  c.mlp_dims = {16, 1};
  c.epochs = 30;
  c.lr = 5e-3f;
  return c;
}

TEST(ArchToGraph, NodeAndFeatureLayout) {
  Rng rng(1);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  // input + 6 positions + output + global = 9 nodes.
  EXPECT_EQ(g.edges.num_nodes, 9);
  EXPECT_EQ(g.features.shape(), (Shape{9, kFeatureDim}));
}

TEST(ArchToGraph, GlobalNodeConnectedToAll) {
  Rng rng(2);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  const std::int64_t global = g.edges.num_nodes - 1;
  std::set<std::int64_t> reached;
  for (std::size_t e = 0; e < g.edges.src.size(); ++e)
    if (g.edges.src[e] == global) reached.insert(g.edges.dst[e]);
  EXPECT_EQ(reached.size(), static_cast<std::size_t>(global));
}

TEST(ArchToGraph, ChainEdgesBothDirections) {
  Rng rng(3);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  auto has_edge = [&](std::int64_t s, std::int64_t d) {
    for (std::size_t e = 0; e < g.edges.src.size(); ++e)
      if (g.edges.src[e] == s && g.edges.dst[e] == d) return true;
    return false;
  };
  EXPECT_TRUE(has_edge(0, 1));
  EXPECT_TRUE(has_edge(1, 0));
  EXPECT_TRUE(has_edge(6, 7));  // last position -> output
}

TEST(ArchToGraph, NodeTypeOneHotIsExclusive) {
  Rng rng(4);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  for (std::int64_t node = 0; node < g.edges.num_nodes; ++node) {
    float sum = 0.f;
    for (std::int64_t d = 0; d < kNodeTypeDim; ++d)
      sum += g.features.at({node, d});
    EXPECT_FLOAT_EQ(sum, 1.f) << "node " << node;
  }
}

TEST(ArchToGraph, FunctionOneHotOnlyOnPositions) {
  Rng rng(5);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  ArchGraph g = arch_to_graph(a, test_workload());
  auto fn_sum = [&](std::int64_t node) {
    float s = 0.f;
    for (std::int64_t d = kNodeTypeDim; d < kNodeTypeDim + kFunctionDim; ++d)
      s += g.features.at({node, d});
    return s;
  };
  EXPECT_FLOAT_EQ(fn_sum(0), 0.f);                        // input
  EXPECT_FLOAT_EQ(fn_sum(g.edges.num_nodes - 2), 0.f);    // output
  for (std::int64_t p = 1; p <= 6; ++p) EXPECT_FLOAT_EQ(fn_sum(p), 1.f);
}

TEST(ArchToGraph, GlobalFeaturesEncodeWorkload) {
  Rng rng(6);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  hgnas::Workload w1 = test_workload();
  hgnas::Workload w2 = test_workload();
  w2.num_points = 2048;
  ArchGraph g1 = arch_to_graph(a, w1);
  ArchGraph g2 = arch_to_graph(a, w2);
  const std::int64_t global = g1.edges.num_nodes - 1;
  bool differs = false;
  for (std::int64_t d = 0; d < kFeatureDim; ++d)
    if (g1.features.at({global, d}) != g2.features.at({global, d}))
      differs = true;
  EXPECT_TRUE(differs);
}

TEST(CollectLabeled, ProducesPositiveLabels) {
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto set = collect_labeled_archs(dev, test_space(), test_workload(), 50, 3);
  EXPECT_EQ(set.size(), 50u);
  for (const auto& s : set) EXPECT_GT(s.latency_ms, 0.0);
}

TEST(CollectLabeled, DeterministicForSeed) {
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto a = collect_labeled_archs(dev, test_space(), test_workload(), 10, 5);
  auto b = collect_labeled_archs(dev, test_space(), test_workload(), 10, 5);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arch, b[i].arch);
    EXPECT_DOUBLE_EQ(a[i].latency_ms, b[i].latency_ms);
  }
}

TEST(Predictor, FitReducesTrainingMape) {
  Rng rng(7);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto train = collect_labeled_archs(dev, test_space(), test_workload(),
                                     120, 11);
  LatencyPredictor pred(tiny_predictor_config(), test_workload(), rng);
  const PredictorMetrics before = pred.evaluate(train);
  pred.fit(train, rng);
  const PredictorMetrics after = pred.evaluate(train);
  EXPECT_LT(after.mape, before.mape);
  EXPECT_LT(after.mape, 0.5);
}

TEST(Predictor, GeneralisesAndRanks) {
  // The real requirement for NAS: the predictor must *order* candidates by
  // latency well on unseen architectures (Spearman-style check).
  Rng rng(8);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto train = collect_labeled_archs(dev, test_space(), test_workload(),
                                     250, 13);
  auto test = collect_labeled_archs(dev, test_space(), test_workload(),
                                    60, 14);
  PredictorConfig cfg = tiny_predictor_config();
  cfg.epochs = 50;
  LatencyPredictor pred(cfg, test_workload(), rng);
  pred.fit(train, rng);

  // Count correctly-ordered pairs.
  std::int64_t concordant = 0, total = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    for (std::size_t j = i + 1; j < test.size(); ++j) {
      const double dy = test[i].latency_ms - test[j].latency_ms;
      if (std::fabs(dy) < 1e-9) continue;
      const double dp =
          pred.predict_ms(test[i].arch) - pred.predict_ms(test[j].arch);
      ++total;
      if (dy * dp > 0) ++concordant;
    }
  }
  EXPECT_GT(static_cast<double>(concordant) / static_cast<double>(total),
            0.75);
}

TEST(Predictor, PredictBatchEqualsSerialForwardsExactly) {
  // The serving layer coalesces queued queries into one predict_batch_ms
  // call; that is only sound if batching can never change an answer.
  // Exact equality, not tolerance: each graph's forward must replay the
  // very same arithmetic as a lone query.
  Rng rng(21);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto train = collect_labeled_archs(dev, test_space(), test_workload(),
                                     80, 17);
  LatencyPredictor pred(tiny_predictor_config(), test_workload(), rng);
  pred.fit(train, rng);

  std::vector<hgnas::Arch> archs;
  for (int i = 0; i < 10; ++i)
    archs.push_back(hgnas::random_arch(test_space(), rng));

  std::vector<double> serial;
  for (const auto& a : archs) serial.push_back(pred.predict_ms(a));

  const std::vector<double> whole = pred.predict_batch_ms(archs);
  ASSERT_EQ(whole.size(), archs.size());
  for (std::size_t i = 0; i < archs.size(); ++i)
    EXPECT_DOUBLE_EQ(whole[i], serial[i]) << "arch " << i;

  // Batch composition must not matter either: any split gives the same
  // numbers.
  const std::vector<double> head = pred.predict_batch_ms(
      std::span<const hgnas::Arch>(archs.data(), 3));
  const std::vector<double> tail = pred.predict_batch_ms(
      std::span<const hgnas::Arch>(archs.data() + 3, archs.size() - 3));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(head[i], serial[i]);
  for (std::size_t i = 3; i < archs.size(); ++i)
    EXPECT_DOUBLE_EQ(tail[i - 3], serial[i]);

  EXPECT_TRUE(pred.predict_batch_ms({}).empty());
}

TEST(Predictor, PredictBatchExactForMeanPoolHeadToo) {
  // Same exactness for the non-default global-mean-pool head (the readout
  // means the node rows, then runs the MLP on the pooled row).
  Rng rng(22);
  PredictorConfig cfg = tiny_predictor_config();
  cfg.log_space_output = false;
  LatencyPredictor pred(cfg, test_workload(), rng);
  std::vector<hgnas::Arch> archs;
  for (int i = 0; i < 6; ++i)
    archs.push_back(hgnas::random_arch(test_space(), rng));
  const std::vector<double> batch = pred.predict_batch_ms(archs);
  for (std::size_t i = 0; i < archs.size(); ++i)
    EXPECT_DOUBLE_EQ(batch[i], pred.predict_ms(archs[i])) << "arch " << i;
}

// Widths off every vector and column-block multiple exercise both the
// full blocks and the remainder lanes of the inference kernels; three MLP
// layers exercise the hidden activations.
PredictorConfig odd_predictor_config(bool log_space_output) {
  PredictorConfig c;
  c.gcn_dims = {37, 13};
  c.mlp_dims = {40, 5, 1};
  c.epochs = 4;
  c.log_space_output = log_space_output;
  return c;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Predictor, TapeFreeInferenceByteEqualToTapeForward) {
  // predict_batch_ms runs its own forward without the autograd tape; every
  // answer must be byte-equal to the tape forward fit() trains through, for
  // both heads, at every pool width, and still after a refit (the weights
  // are read in place, so nothing can go stale). That holds for the body
  // this CPU selects and for every compiled body it can run: the baseline
  // always, the AVX2 body when the CPU has AVX2.
  std::vector<std::pair<const char*, detail::GraphScoreFn>> bodies = {
      {"baseline", detail::graph_score_baseline}};
  if (simd::cpu_has_avx2())
    bodies.emplace_back("avx2", detail::graph_score_avx2);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const auto train =
      collect_labeled_archs(dev, test_space(), test_workload(), 40, 31);
  for (const bool log_space : {true, false}) {
    Rng rng(log_space ? 41 : 42);
    LatencyPredictor pred(odd_predictor_config(log_space), test_workload(),
                          rng);
    std::vector<hgnas::Arch> archs;
    for (int i = 0; i < 256; ++i)
      archs.push_back(hgnas::random_arch(test_space(), rng));
    for (int round = 0; round < 2; ++round) {
      pred.fit(train, rng);
      std::vector<double> reference;
      for (const auto& a : archs)
        reference.push_back(pred.predict_ms_reference(a));
      for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{3}}) {
        core::ScopedNumThreads scoped(threads);
        EXPECT_TRUE(bytes_equal(pred.predict_batch_ms(archs), reference))
            << "log_space " << log_space << " fit " << round + 1
            << " threads " << threads;
        for (const auto& [name, body] : bodies)
          EXPECT_TRUE(
              bytes_equal(pred.predict_batch_ms(archs, body), reference))
              << name << " log_space " << log_space << " fit " << round + 1
              << " threads " << threads;
      }
    }
  }
}

TEST(Predictor, ConcurrentBatchesOnSharedPredictorMatchSerial) {
  // Several callers share one fitted predictor (the service's workers do);
  // concurrent calls on a width-2 pool must all see the serial answers.
  Rng rng(43);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const auto train =
      collect_labeled_archs(dev, test_space(), test_workload(), 40, 33);
  LatencyPredictor pred(odd_predictor_config(true), test_workload(), rng);
  pred.fit(train, rng);
  std::vector<hgnas::Arch> archs;
  for (int i = 0; i < 48; ++i)
    archs.push_back(hgnas::random_arch(test_space(), rng));
  std::vector<double> serial;
  {
    core::ScopedNumThreads scoped(1);
    serial = pred.predict_batch_ms(archs);
  }
  core::ScopedNumThreads scoped(2);
  std::vector<std::vector<std::vector<double>>> got(4);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < got.size(); ++t)
    callers.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep)
        got[t].push_back(pred.predict_batch_ms(archs));
    });
  for (auto& c : callers) c.join();
  for (std::size_t t = 0; t < got.size(); ++t)
    for (const auto& r : got[t])
      EXPECT_TRUE(bytes_equal(r, serial)) << "caller " << t;
}

TEST(Predictor, NonFiniteScoreIsAnErrorInBothHeads) {
  // A NaN score is not a latency: the mean-pool head used to clamp it to a
  // plausible 0 ms. Both heads must refuse it.
  for (const bool log_space : {true, false}) {
    Rng rng(44);
    LatencyPredictor pred(odd_predictor_config(log_space), test_workload(),
                          rng);
    const hgnas::Arch a = hgnas::random_arch(test_space(), rng);
    ASSERT_TRUE(std::isfinite(pred.predict_ms(a)));
    Tensor final_bias = pred.parameters().back();
    ASSERT_EQ(final_bias.numel(), 1);
    final_bias.data()[0] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_THROW(pred.predict_ms(a), std::runtime_error)
        << "log_space " << log_space;
    const std::vector<hgnas::Arch> batch = {a, a};
    EXPECT_THROW(pred.predict_batch_ms(batch), std::runtime_error)
        << "log_space " << log_space;
  }
}

TEST(CollectLabeled, MultiDeviceShardingMatchesPerDeviceCollection) {
  // Fleet collection through one pooled queue must hand every device the
  // exact labelled set a lone collection would have produced, at any pool
  // width.
  hw::Device rtx = hw::make_device(hw::DeviceKind::Rtx3080);
  hw::Device i7 = hw::make_device(hw::DeviceKind::IntelI7_8700K);
  const CollectSpec specs[] = {{&rtx, 20, 5}, {&i7, 15, 9}};

  for (const std::int64_t threads : {std::int64_t{1}, std::int64_t{3}}) {
    core::ScopedNumThreads scoped(threads);
    const auto multi =
        collect_labeled_archs_multi(specs, test_space(), test_workload());
    ASSERT_EQ(multi.size(), 2u);
    for (std::size_t d = 0; d < 2; ++d) {
      const auto solo =
          collect_labeled_archs(*specs[d].device, test_space(),
                                test_workload(), specs[d].count,
                                specs[d].seed);
      ASSERT_EQ(multi[d].size(), solo.size()) << "threads " << threads;
      for (std::size_t i = 0; i < solo.size(); ++i) {
        EXPECT_EQ(multi[d][i].arch, solo[i].arch);
        EXPECT_DOUBLE_EQ(multi[d][i].latency_ms, solo[i].latency_ms);
      }
    }
  }
}

TEST(Predictor, PredictionNeverNegative) {
  Rng rng(9);
  LatencyPredictor pred(tiny_predictor_config(), test_workload(), rng);
  for (int i = 0; i < 20; ++i) {
    hgnas::Arch a = hgnas::random_arch(test_space(), rng);
    EXPECT_GE(pred.predict_ms(a), 0.0);
  }
}

TEST(Predictor, RejectsBadConfigAndInputs) {
  Rng rng(10);
  PredictorConfig bad = tiny_predictor_config();
  bad.mlp_dims = {16, 2};  // must end in scalar
  EXPECT_THROW(LatencyPredictor(bad, test_workload(), rng),
               std::invalid_argument);
  LatencyPredictor ok(tiny_predictor_config(), test_workload(), rng);
  std::vector<LabeledArch> empty;
  EXPECT_THROW(ok.fit(empty, rng), std::invalid_argument);
  EXPECT_THROW(ok.evaluate(empty), std::invalid_argument);
  std::vector<LabeledArch> bad_label(1);
  bad_label[0].arch = hgnas::random_arch(test_space(), rng);
  bad_label[0].latency_ms = 0.0;
  EXPECT_THROW(ok.fit(bad_label, rng), std::invalid_argument);
}

TEST(PredictorEvaluator, WrapsQueriesWithCost) {
  Rng rng(11);
  auto pred = std::make_shared<LatencyPredictor>(tiny_predictor_config(),
                                                 test_workload(), rng);
  auto fn = make_predictor_evaluator(pred, 0.005);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  const hgnas::LatencyEval e = fn(a);
  EXPECT_DOUBLE_EQ(e.cost_s, 0.005);
  EXPECT_FALSE(e.oom);
  EXPECT_THROW(make_predictor_evaluator(nullptr), std::invalid_argument);
}

TEST(PredictorEvaluator, QueryIsFastInRealTime) {
  // §III-D: prediction takes milliseconds. Generous CI bound: < 50 ms.
  Rng rng(12);
  auto pred = std::make_shared<LatencyPredictor>(tiny_predictor_config(),
                                                 test_workload(), rng);
  hgnas::Arch a = hgnas::random_arch(test_space(), rng);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) pred->predict_ms(a);
  const auto dt = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_LT(dt / 10.0, 50.0);
}

}  // namespace
}  // namespace hg::predictor
