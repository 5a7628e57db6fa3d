#include "predictor/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "pointcloud/pointcloud.hpp"
#include "tensor/optim.hpp"

namespace hg::predictor {

namespace {

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("predictor: " + msg);
}

// Literal messages only: the success path builds no string.
void check(bool cond, const char* msg) {
  if (!cond) fail(msg);
}

// Node-type slots of the 7-dim one-hot.
enum NodeType : std::int64_t {
  kInput = 0,
  kOutput,
  kGlobal,
  kConnect,
  kAggregate,
  kCombine,
  kSample,
};

// Function slots of the 9-dim one-hot.
enum FunctionSlot : std::int64_t {
  kFnSkip = 0,
  kFnIdentity,
  kFnKnn,
  kFnRandom,
  kFnSum,
  kFnMin,
  kFnMax,
  kFnMean,
  kFnNone,
};

std::int64_t function_slot(const hgnas::PositionGene& g) {
  switch (g.op) {
    case hgnas::OpType::Connect:
      return g.fn.connect == hgnas::ConnectFunc::SkipConnect ? kFnSkip
                                                             : kFnIdentity;
    case hgnas::OpType::Sample:
      return g.fn.sample == hgnas::SampleFunc::Knn ? kFnKnn : kFnRandom;
    case hgnas::OpType::Aggregate:
      switch (g.fn.aggr) {
        case hgnas::AggrType::Sum: return kFnSum;
        case hgnas::AggrType::Min: return kFnMin;
        case hgnas::AggrType::Max: return kFnMax;
        case hgnas::AggrType::Mean: return kFnMean;
      }
      return kFnNone;
    case hgnas::OpType::Combine:
      return kFnNone;  // the dimension is carried by the channel scalars
  }
  return kFnNone;
}

std::int64_t node_type_of(const hgnas::PositionGene& g) {
  switch (g.op) {
    case hgnas::OpType::Connect: return kConnect;
    case hgnas::OpType::Aggregate: return kAggregate;
    case hgnas::OpType::Combine: return kCombine;
    case hgnas::OpType::Sample: return kSample;
  }
  return kConnect;
}

float log_channel(std::int64_t c) {
  return std::log2(static_cast<float>(std::max<std::int64_t>(c, 1))) / 8.f;
}

}  // namespace

ArchGraph arch_to_graph(const hgnas::Arch& arch, const hgnas::Workload& w,
                        int device_slot) {
  check(!arch.genes.empty(), "arch_to_graph: empty architecture");
  check(device_slot >= -1 && device_slot < hw::kNumDevices,
        "arch_to_graph: device_slot out of range");
  const std::int64_t P = arch.num_positions();
  // Node ids: 0 input, 1..P positions, P+1 output, P+2 global.
  const std::int64_t n_nodes = P + 3;
  const std::int64_t out_node = P + 1;
  const std::int64_t global_node = P + 2;

  graph::EdgeList e;
  e.num_nodes = n_nodes;
  auto bi_edge = [&e](std::int64_t a, std::int64_t b) {
    e.add_edge(a, b);
    e.add_edge(b, a);
  };
  // Dataflow chain (plus reverse edges so GCN messages flow both ways).
  for (std::int64_t i = 0; i <= P; ++i) bi_edge(i, i + 1);
  // Skip-connect edges: from the previous Connect checkpoint (or input).
  std::int64_t checkpoint = 0;
  for (std::int64_t i = 0; i < P; ++i) {
    const auto& g = arch.genes[static_cast<std::size_t>(i)];
    if (g.op == hgnas::OpType::Connect) {
      if (g.fn.connect == hgnas::ConnectFunc::SkipConnect &&
          checkpoint != i)  // the chain edge already exists for i-1 -> i
        bi_edge(checkpoint, i + 1);
      checkpoint = i + 1;
    }
  }
  // Global node star (improves connectivity; carries data properties).
  for (std::int64_t i = 0; i < global_node; ++i) bi_edge(i, global_node);

  // ---- features -------------------------------------------------------------
  const auto flow = channel_flow(arch, w);
  std::vector<float> feat(
      static_cast<std::size_t>(n_nodes * kFeatureDim), 0.f);
  auto at = [&feat](std::int64_t node, std::int64_t dim) -> float& {
    return feat[static_cast<std::size_t>(node * kFeatureDim + dim)];
  };
  const std::int64_t fn_off = kNodeTypeDim;
  const std::int64_t msg_off = fn_off + kFunctionDim;
  const std::int64_t ch_off = msg_off + kMessageDim;
  const std::int64_t exec_off = ch_off + kChannelDim;
  const std::int64_t glob_off = exec_off + kExecDim;
  const hgnas::ExecMarks marks = hgnas::compute_exec_marks(arch);

  at(0, kInput) = 1.f;
  at(0, ch_off + 1) = log_channel(w.in_dim);
  at(out_node, kOutput) = 1.f;
  at(out_node, ch_off) = log_channel(flow.back());

  for (std::int64_t i = 0; i < P; ++i) {
    const auto& g = arch.genes[static_cast<std::size_t>(i)];
    const std::int64_t node = i + 1;
    at(node, node_type_of(g)) = 1.f;
    at(node, fn_off + function_slot(g)) = 1.f;
    if (g.op == hgnas::OpType::Aggregate)
      at(node, msg_off + static_cast<std::int64_t>(g.fn.msg)) = 1.f;
    at(node, ch_off) = log_channel(flow[static_cast<std::size_t>(i)]);
    at(node, ch_off + 1) = log_channel(flow[static_cast<std::size_t>(i + 1)]);
    if (marks.sample_executes[static_cast<std::size_t>(i)])
      at(node, exec_off) = 1.f;
    if (marks.implicit_initial_knn[static_cast<std::size_t>(i)])
      at(node, exec_off + 1) = 1.f;
  }

  // Global node: 16-dim data-property encoding (paper: "number of nodes,
  // density, etc."). Unused slots stay zero for forward compatibility.
  at(global_node, kGlobal) = 1.f;
  const std::int64_t kk = std::min<std::int64_t>(w.k, w.num_points - 1);
  const double edges_d =
      static_cast<double>(w.num_points) * static_cast<double>(kk);
  at(global_node, glob_off + 0) =
      std::log2(static_cast<float>(w.num_points)) / 16.f;
  at(global_node, glob_off + 1) =
      std::log2(static_cast<float>(edges_d) + 1.f) / 24.f;
  at(global_node, glob_off + 2) = static_cast<float>(
      edges_d / (static_cast<double>(w.num_points) *
                 std::max<double>(1.0, static_cast<double>(w.num_points - 1))));
  at(global_node, glob_off + 3) = static_cast<float>(kk) / 64.f;
  at(global_node, glob_off + 4) = static_cast<float>(w.in_dim) / 8.f;
  at(global_node, glob_off + 5) = static_cast<float>(w.num_classes) / 64.f;
  at(global_node, glob_off + 6) =
      static_cast<float>(P) / 16.f;  // positions in the chain
  // Slots 8..11: target-device one-hot ("information on the target
  // device", §III-D) for the shared cross-device predictor.
  if (device_slot >= 0) at(global_node, glob_off + 8 + device_slot) = 1.f;

  ArchGraph ag;
  ag.edges = std::move(e);
  ag.features = Tensor::from_vector({n_nodes, kFeatureDim}, std::move(feat));
  return ag;
}

LatencyPredictor::LatencyPredictor(const PredictorConfig& cfg,
                                   const hgnas::Workload& w, Rng& rng)
    : cfg_(cfg), workload_(w) {
  check(!cfg_.gcn_dims.empty(), "need at least one GCN layer");
  check(cfg_.mlp_dims.size() >= 2 && cfg_.mlp_dims.back() == 1,
        "MLP must end in a single scalar output");
  std::int64_t d = kFeatureDim;
  for (auto h : cfg_.gcn_dims) {
    gcn_.push_back(std::make_unique<gnn::GcnLayer>(d, h, rng, Reduce::Sum));
    d = h;
  }
  std::vector<std::int64_t> mlp_dims = cfg_.mlp_dims;
  mlp_dims.insert(mlp_dims.begin(), d);
  mlp_ = std::make_unique<nn::Mlp>(
      mlp_dims, rng, nn::Activation::Relu,
      cfg_.log_space_output ? nn::Activation::None
                            : nn::Activation::LeakyRelu,
      /*batch_norm=*/false, cfg_.leaky_slope);
}

Tensor LatencyPredictor::forward(const ArchGraph& g) {
  Tensor h = g.features;
  for (auto& layer : gcn_) h = relu(layer->forward(h, g.edges));
  if (!cfg_.log_space_output) {
    Tensor pooled = gnn::global_mean_pool(h);  // [1, d]
    return mlp_->forward(pooled);              // [1, 1]
  }
  // Additive head: total latency is a sum of per-operation costs, so the
  // MLP scores every node and the readout sums positive per-node
  // contributions. softplus keeps contributions positive without the
  // gradient saturation a hard clamp would cause:
  //   softplus(z) = relu(z) + log(1 + exp(-|z|))   (numerically stable).
  Tensor z = mlp_->forward(h);  // [N, 1]
  Tensor contrib =
      add(relu(z), log_op(add(exp_op(neg(abs_op(z))), 1.f)));
  Tensor total = sum_all(contrib);
  return reshape(total, {1, 1});
}

double LatencyPredictor::predict_ms(const hgnas::Arch& arch) {
  return predict_batch_ms(std::span<const hgnas::Arch>(&arch, 1))[0];
}

double LatencyPredictor::predict_ms_reference(const hgnas::Arch& arch) {
  NoGradGuard ng;
  return score_to_ms(
      forward(arch_to_graph(arch, workload_, cfg_.device_slot)).item());
}

double LatencyPredictor::score_to_ms(float score) const {
  if (!std::isfinite(score))
    throw std::runtime_error("predictor: non-finite score " +
                             std::to_string(score));
  return std::max(0.0, static_cast<double>(score) * scale_ms_);
}

// ---- tape-free inference ----------------------------------------------------
//
// Every step below performs the float operations of the tape op it
// replaces, in the same order, so the result is byte-equal to forward():
// the linears run the tape's own forward matmul kernel
// (detail::matmul_rows, zero-skip on) and then add the bias, scatter_reduce
// sums each destination's edges in ascending edge order, and the unary
// lambdas are spelled exactly as in tensor.cpp. The top-level
// -ffp-contract=off keeps the compiler from fusing a mul+add the tape
// rounds twice. No Tensor is built, so no autograd node either.

namespace detail {

/// One nn::Linear, read in place from its parameter tensors.
struct Dense {
  const float* w = nullptr;  // [in, out]
  const float* b = nullptr;  // [out]
  std::int64_t in = 0, out = 0;
};

/// What a per-graph forward reads: the predictor's linears and head.
struct ForwardPlan {
  std::span<const Dense> gcn, mlp;
  std::int64_t width = 0;  // widest row any step writes
  bool log_space_output = true;
  float leaky_slope = 0.f;
};

/// Per-thread buffers, reused across the graphs of one pool chunk.
struct ForwardScratch {
  std::vector<float> x, h, inv_sqrt;
};

}  // namespace detail

namespace {

using detail::Dense;
using detail::ForwardPlan;
using detail::ForwardScratch;
using MatmulRowsFn = decltype(&hg::detail::matmul_rows);

/// The predictor's linears in parameters() order: each nn::Linear yields
/// weight [in, out] then bias [out].
std::vector<Dense> dense_layers(const std::vector<Tensor>& params) {
  check(params.size() % 2 == 0, "inference: unpaired linear parameters");
  std::vector<Dense> layers;
  for (std::size_t i = 0; i < params.size(); i += 2) {
    const Tensor& w = params[i];
    const Tensor& b = params[i + 1];
    check(w.dim() == 2 && b.dim() == 1 && b.shape()[0] == w.shape()[1],
          "inference: expected linear weight/bias pairs");
    layers.push_back(
        Dense{w.data().data(), b.data().data(), w.shape()[0], w.shape()[1]});
  }
  return layers;
}

/// y[rows, out] = x[rows, in] @ w + b: the tape's forward matmul kernel
/// (serial — the pool splits graphs, not rows), then the bias in a
/// separate pass, exactly the tape's matmul then add.
template <MatmulRowsFn MatmulRows>
HG_ALWAYS_INLINE void apply_linear(const Dense& l, const float* x,
                                   std::int64_t rows, float* y) {
  MatmulRows(x, l.w, y, l.in, l.out, 0, rows, /*skip_zeros=*/true);
  for (std::int64_t i = 0; i < rows; ++i) {
    float* yr = y + i * l.out;
    for (std::int64_t j = 0; j < l.out; ++j) yr[j] += l.b[j];
  }
}

HG_ALWAYS_INLINE void relu_inplace(float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] = x[i] > 0.f ? x[i] : 0.f;
}

/// Runs the MLP over `rows` rows held in s.x; the output lands in s.x.
template <MatmulRowsFn MatmulRows>
HG_ALWAYS_INLINE void run_mlp(const ForwardPlan& plan, ForwardScratch& s,
                              std::int64_t rows) {
  for (std::size_t li = 0; li < plan.mlp.size(); ++li) {
    const Dense& l = plan.mlp[li];
    apply_linear<MatmulRows>(l, s.x.data(), rows, s.h.data());
    const std::int64_t n = rows * l.out;
    if (li + 1 < plan.mlp.size()) {
      relu_inplace(s.h.data(), n);
    } else if (!plan.log_space_output) {
      const float slope = plan.leaky_slope;
      for (std::int64_t i = 0; i < n; ++i)
        s.h[i] = s.h[i] > 0.f ? s.h[i] : slope * s.h[i];
    }
    std::swap(s.x, s.h);
  }
}

/// One graph's forward: the GCN layers (linear, symmetric-normalised sum
/// over incoming edges then the self-loop term, ReLU), then the head.
/// Compiled once per matmul entry, for that entry's target.
template <MatmulRowsFn MatmulRows>
HG_ALWAYS_INLINE float graph_score_body(const ForwardPlan& plan,
                                        const ArchGraph& g,
                                        ForwardScratch& s) {
  const std::int64_t n = g.edges.num_nodes;
  const std::size_t cap = static_cast<std::size_t>(n * plan.width);
  if (s.x.size() < cap) s.x.resize(cap);
  if (s.h.size() < cap) s.h.resize(cap);
  const auto feat = g.features.data();
  std::copy(feat.begin(), feat.end(), s.x.begin());

  s.inv_sqrt.assign(static_cast<std::size_t>(n), 1.f);
  for (const std::int64_t d : g.edges.dst)
    s.inv_sqrt[static_cast<std::size_t>(d)] += 1.f;
  for (float& v : s.inv_sqrt) v = 1.f / std::sqrt(v);
  const float* inv = s.inv_sqrt.data();

  for (const Dense& l : plan.gcn) {
    const std::int64_t c = l.out;
    apply_linear<MatmulRows>(l, s.x.data(), n, s.h.data());
    float* out = s.x.data();
    const float* h = s.h.data();
    std::fill(out, out + n * c, 0.f);
    for (std::size_t e = 0; e < g.edges.src.size(); ++e) {
      const std::int64_t u = g.edges.src[e], v = g.edges.dst[e];
      simd::axpy(out + v * c, inv[u] * inv[v], h + u * c, c);
    }
    for (std::int64_t v = 0; v < n; ++v)
      simd::axpy(out + v * c, inv[v] * inv[v], h + v * c, c);
    relu_inplace(out, n * c);
  }
  const std::int64_t d = plan.gcn.back().out;

  if (!plan.log_space_output) {
    // Global mean pool, then the MLP on the pooled row.
    std::vector<float>& pooled = s.h;
    std::fill(pooled.begin(), pooled.begin() + d, 0.f);
    for (std::int64_t v = 0; v < n; ++v)
      simd::accumulate(pooled.data(), s.x.data() + v * d, d);
    for (std::int64_t j = 0; j < d; ++j)
      s.x[j] = pooled[j] / static_cast<float>(n);
    run_mlp<MatmulRows>(plan, s, 1);
    return s.x[0];
  }
  // Additive head (see forward()): softplus per-node scores summed in
  // node order.
  run_mlp<MatmulRows>(plan, s, n);
  float total = 0.f;
  for (std::int64_t v = 0; v < n; ++v) {
    const float z = s.x[v];
    total += (z > 0.f ? z : 0.f) + std::log(std::exp(-std::fabs(z)) + 1.f);
  }
  return total;
}

}  // namespace

namespace detail {

float graph_score_baseline(const ForwardPlan& plan, const ArchGraph& g,
                           ForwardScratch& s) {
  return graph_score_body<hg::detail::matmul_rows_baseline>(plan, g, s);
}

HG_TARGET_AVX2 float graph_score_avx2(const ForwardPlan& plan,
                                      const ArchGraph& g, ForwardScratch& s) {
  return graph_score_body<hg::detail::matmul_rows_avx2>(plan, g, s);
}

}  // namespace detail

std::vector<double> LatencyPredictor::predict_batch_ms(
    std::span<const hgnas::Arch> archs) {
  return predict_batch_ms(archs, simd::cpu_has_avx2()
                                     ? detail::graph_score_avx2
                                     : detail::graph_score_baseline);
}

std::vector<double> LatencyPredictor::predict_batch_ms(
    std::span<const hgnas::Arch> archs, detail::GraphScoreFn body) {
  if (archs.empty()) return {};
  const std::vector<Tensor> params = parameters();
  const std::vector<Dense> layers = dense_layers(params);
  check(layers.size() == gcn_.size() + cfg_.mlp_dims.size(),
        "inference: layer count mismatch");
  ForwardPlan plan;
  plan.gcn = std::span<const Dense>(layers.data(), gcn_.size());
  plan.mlp = std::span<const Dense>(layers.data() + gcn_.size(),
                                    cfg_.mlp_dims.size());
  plan.width = kFeatureDim;
  for (const Dense& l : layers) plan.width = std::max(plan.width, l.out);
  plan.log_space_output = cfg_.log_space_output;
  plan.leaky_slope = cfg_.leaky_slope;

  // Graphs are independent, so splitting them across the pool cannot change
  // any answer.
  std::vector<double> result(archs.size());
  core::parallel_for(
      0, static_cast<std::int64_t>(archs.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        ForwardScratch s;
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto k = static_cast<std::size_t>(i);
          result[k] = score_to_ms(body(
              plan, arch_to_graph(archs[k], workload_, cfg_.device_slot), s));
        }
      });
  return result;
}

double LatencyPredictor::fit(const std::vector<LabeledArch>& train,
                             Rng& rng) {
  check(!train.empty(), "fit: empty training set");
  // Normalisation scale: arithmetic mean for the raw head, geometric mean
  // for the exponential head (centres z near zero).
  double acc = 0.0;
  for (const auto& s : train) {
    check(s.latency_ms > 0.0, "fit: non-positive latency label");
    acc += cfg_.log_space_output ? std::log(s.latency_ms) : s.latency_ms;
  }
  acc /= static_cast<double>(train.size());
  scale_ms_ = cfg_.log_space_output ? std::exp(acc) : acc;

  // Pre-build graphs once (they are label-independent).
  std::vector<ArchGraph> graphs;
  graphs.reserve(train.size());
  for (const auto& s : train)
    graphs.push_back(arch_to_graph(s.arch, workload_, cfg_.device_slot));

  Adam opt(parameters(), cfg_.lr);
  double last_epoch_mape = 0.0;
  for (std::int64_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    opt.set_lr(cosine_lr(cfg_.lr, cfg_.lr * 0.02f, epoch, cfg_.epochs));
    auto order = pointcloud::shuffled_indices(train.size(), rng);
    double mape_sum = 0.0;
    std::int64_t in_batch = 0;
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
      const std::size_t i = order[oi];
      const float y =
          static_cast<float>(train[i].latency_ms / scale_ms_);
      Tensor pred = forward(graphs[i]);  // [1,1]
      // MAPE contribution: |pred - y| / y.
      Tensor err = div(abs_op(sub(pred, y)), y);
      Tensor loss = mean_all(err);
      loss.backward();
      mape_sum += loss.item();
      ++in_batch;
      if (in_batch == cfg_.batch_size || oi + 1 == order.size()) {
        opt.step();
        opt.zero_grad();
        in_batch = 0;
      }
    }
    last_epoch_mape = mape_sum / static_cast<double>(train.size());
  }
  return last_epoch_mape;
}

PredictorMetrics LatencyPredictor::evaluate(
    const std::vector<LabeledArch>& test) {
  check(!test.empty(), "evaluate: empty test set");
  PredictorMetrics m;
  std::vector<hgnas::Arch> archs;
  archs.reserve(test.size());
  for (const auto& s : test) archs.push_back(s.arch);
  const std::vector<double> preds = predict_batch_ms(archs);
  double se = 0.0;
  std::int64_t within = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const LabeledArch& s = test[i];
    const double pred = preds[i];
    const double rel = std::abs(pred - s.latency_ms) / s.latency_ms;
    m.mape += rel;
    if (rel <= 0.10) ++within;
    se += (pred - s.latency_ms) * (pred - s.latency_ms);
  }
  const auto n = static_cast<double>(test.size());
  m.mape /= n;
  m.within_10pct = static_cast<double>(within) / n;
  m.rmse_ms = std::sqrt(se / n);
  return m;
}

std::vector<Tensor> LatencyPredictor::parameters() const {
  std::vector<Tensor> out;
  for (const auto& l : gcn_)
    for (auto& p : l->parameters()) out.push_back(p);
  for (auto& p : mlp_->parameters()) out.push_back(p);
  return out;
}

std::vector<LabeledArch> collect_labeled_archs(const hw::Device& device,
                                               const hgnas::SpaceConfig& space,
                                               const hgnas::Workload& w,
                                               std::int64_t count,
                                               std::uint64_t seed) {
  check(count > 0, "collect_labeled_archs: count must be positive");
  const CollectSpec spec{&device, count, seed};
  return std::move(collect_labeled_archs_multi({&spec, 1}, space, w)[0]);
}

std::vector<std::vector<LabeledArch>> collect_labeled_archs_multi(
    std::span<const CollectSpec> specs, const hgnas::SpaceConfig& space,
    const hgnas::Workload& w) {
  for (const CollectSpec& spec : specs) {
    check(spec.device != nullptr, "collect_labeled_archs_multi: null device");
    check(spec.count > 0, "collect_labeled_archs_multi: count must be positive");
  }
  const std::size_t n_dev = specs.size();
  std::vector<std::vector<LabeledArch>> out(n_dev);

  // This is the dominant cost of predictor-backed engine startup (the
  // paper's 30K-sample collection). Each round draws, per device, as many
  // architectures as it still lacks labels, each with a measurement seed,
  // serially off that device's own stream; every device's lowering +
  // simulated measurements of the round share one parallel_invoke; OOM
  // filtering then replays serially in draw order. So a device's labelled
  // set depends only on its spec, never on the pool width or the fleet.
  struct DeviceState {
    Rng rng;
    std::int64_t attempts = 0;
    std::int64_t max_attempts = 0;
    explicit DeviceState(std::uint64_t seed) : rng(seed) {}
  };
  struct Drawn {
    std::size_t device_index = 0;
    hgnas::Arch arch;
    std::uint64_t seed = 0;
    hw::Measurement meas;
  };
  std::vector<DeviceState> states;
  states.reserve(n_dev);
  for (std::size_t d = 0; d < n_dev; ++d) {
    states.emplace_back(specs[d].seed);
    states[d].max_attempts = specs[d].count * 20;
    out[d].reserve(static_cast<std::size_t>(specs[d].count));
  }

  for (;;) {
    std::vector<Drawn> round;
    std::vector<std::size_t> round_begin(n_dev + 1, 0);
    for (std::size_t d = 0; d < n_dev; ++d) {
      round_begin[d] = round.size();
      DeviceState& st = states[d];
      const std::int64_t remaining =
          specs[d].count - static_cast<std::int64_t>(out[d].size());
      if (remaining <= 0 || st.attempts >= st.max_attempts) continue;
      const std::int64_t n =
          std::min<std::int64_t>(remaining, st.max_attempts - st.attempts);
      for (std::int64_t i = 0; i < n; ++i) {
        Drawn drawn;
        drawn.device_index = d;
        drawn.arch = hgnas::random_arch(space, st.rng);
        drawn.seed = st.rng.next();
        round.push_back(std::move(drawn));
      }
      st.attempts += n;
    }
    round_begin[n_dev] = round.size();
    if (round.empty()) break;

    core::parallel_invoke(
        static_cast<std::int64_t>(round.size()), [&](std::int64_t i) {
          Drawn& drawn = round[static_cast<std::size_t>(i)];
          Rng meas_rng(drawn.seed);
          drawn.meas = specs[drawn.device_index].device->measure(
              lower_to_trace(drawn.arch, w), meas_rng);
        });

    for (std::size_t d = 0; d < n_dev; ++d) {
      for (std::size_t i = round_begin[d]; i < round_begin[d + 1]; ++i) {
        Drawn& drawn = round[i];
        if (static_cast<std::int64_t>(out[d].size()) == specs[d].count) break;
        if (drawn.meas.oom || drawn.meas.latency_ms <= 0.0) continue;
        out[d].push_back(
            LabeledArch{std::move(drawn.arch), drawn.meas.latency_ms});
      }
    }
  }

  for (std::size_t d = 0; d < n_dev; ++d)
    if (static_cast<std::int64_t>(out[d].size()) != specs[d].count)
      fail("collect_labeled_archs: too many OOM architectures on " +
           specs[d].device->name());
  return out;
}

hgnas::LatencyFn make_predictor_evaluator(
    std::shared_ptr<LatencyPredictor> predictor, double query_cost_s) {
  check(predictor != nullptr, "make_predictor_evaluator: null predictor");
  return [predictor, query_cost_s](const hgnas::Arch& arch)
             -> hgnas::LatencyEval {
    return {predictor->predict_ms(arch), query_cost_s, false};
  };
}

}  // namespace hg::predictor
