// Reverse-mode autodiff correctness: every differentiable op is verified
// against central finite differences, plus tape-mechanics tests (grad
// accumulation, reuse, no-grad mode, non-scalar seeds) and the no-tape
// forwards (byte-equal to the taped ones, no edge recorded).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace hg {
namespace {

/// Central-difference check of d(loss)/d(x) for a scalar-valued builder.
/// Returns max absolute deviation between analytic and numeric gradients.
double max_grad_error(Tensor& x,
                      const std::function<Tensor(const Tensor&)>& loss_fn,
                      float eps = 1e-3f) {
  x.set_requires_grad(true);
  x.zero_grad();
  Tensor loss = loss_fn(x);
  loss.backward();
  EXPECT_TRUE(x.has_grad());
  const auto analytic =
      std::vector<float>(x.grad().begin(), x.grad().end());

  double max_err = 0.0;
  auto data = x.data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float orig = data[i];
    data[i] = orig + eps;
    const float fp = loss_fn(x).item();
    data[i] = orig - eps;
    const float fm = loss_fn(x).item();
    data[i] = orig;
    const double numeric = (static_cast<double>(fp) - fm) / (2.0 * eps);
    max_err = std::max(max_err, std::abs(numeric - analytic[i]));
  }
  return max_err;
}

Tensor make_input(Shape shape, std::uint64_t seed, float lo = -1.f,
                  float hi = 1.f) {
  Rng rng(seed);
  return Tensor::rand_uniform(std::move(shape), rng, lo, hi);
}

constexpr double kTol = 2e-2;  // float32 finite differences

TEST(Autograd, AddExact) {
  Tensor x = make_input({3, 4}, 1);
  Tensor other = make_input({3, 4}, 2);
  EXPECT_LT(max_grad_error(
                x, [&](const Tensor& t) { return sum_all(add(t, other)); }),
            kTol);
}

TEST(Autograd, AddRowBroadcastGradOfRow) {
  Tensor row = make_input({4}, 3);
  Tensor full = make_input({3, 4}, 4);
  EXPECT_LT(max_grad_error(
                row,
                [&](const Tensor& r) {
                  return sum_all(square(add(full, r)));
                }),
            kTol);
}

TEST(Autograd, AddColBroadcastGradOfCol) {
  Tensor col = make_input({3, 1}, 5);
  Tensor full = make_input({3, 4}, 6);
  EXPECT_LT(max_grad_error(
                col,
                [&](const Tensor& c) {
                  return sum_all(square(add(full, c)));
                }),
            kTol);
}

TEST(Autograd, SubBothSides) {
  Tensor x = make_input({2, 3}, 7);
  Tensor other = make_input({2, 3}, 8);
  EXPECT_LT(max_grad_error(
                x,
                [&](const Tensor& t) {
                  return sum_all(square(sub(other, t)));
                }),
            kTol);
}

TEST(Autograd, MulElementwise) {
  Tensor x = make_input({2, 3}, 9);
  Tensor other = make_input({2, 3}, 10);
  EXPECT_LT(max_grad_error(
                x, [&](const Tensor& t) { return sum_all(mul(t, other)); }),
            kTol);
}

TEST(Autograd, MulRowBroadcastGradOfRow) {
  Tensor row = make_input({3}, 11);
  Tensor full = make_input({4, 3}, 12);
  EXPECT_LT(max_grad_error(
                row, [&](const Tensor& r) { return sum_all(mul(full, r)); }),
            kTol);
}

TEST(Autograd, DivNumeratorAndDenominator) {
  Tensor num = make_input({2, 2}, 13, 0.5f, 2.f);
  Tensor den = make_input({2, 2}, 14, 0.5f, 2.f);
  EXPECT_LT(max_grad_error(
                num, [&](const Tensor& t) { return sum_all(div(t, den)); }),
            kTol);
  EXPECT_LT(max_grad_error(
                den, [&](const Tensor& t) { return sum_all(div(num, t)); }),
            kTol);
}

TEST(Autograd, DivRowBroadcastDenominator) {
  Tensor den = make_input({3}, 15, 0.5f, 2.f);
  Tensor full = make_input({2, 3}, 16, 0.5f, 2.f);
  EXPECT_LT(max_grad_error(
                den, [&](const Tensor& d) { return sum_all(div(full, d)); }),
            kTol);
}

TEST(Autograd, ReluAwayFromKink) {
  Tensor x = Tensor::from_vector({4}, {-0.9f, -0.3f, 0.4f, 1.2f});
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(relu(t)); }),
      kTol);
}

TEST(Autograd, LeakyRelu) {
  Tensor x = Tensor::from_vector({4}, {-1.5f, -0.4f, 0.3f, 0.8f});
  EXPECT_LT(max_grad_error(
                x,
                [](const Tensor& t) {
                  return sum_all(leaky_relu(t, 0.2f));
                }),
            kTol);
}

TEST(Autograd, Sigmoid) {
  Tensor x = make_input({5}, 17);
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(sigmoid(t)); }),
      kTol);
}

TEST(Autograd, Tanh) {
  Tensor x = make_input({5}, 18);
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(tanh_op(t)); }),
      kTol);
}

TEST(Autograd, Exp) {
  Tensor x = make_input({5}, 19);
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(exp_op(t)); }),
      kTol);
}

TEST(Autograd, Log) {
  Tensor x = make_input({5}, 20, 0.5f, 2.f);
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(log_op(t)); }),
      kTol);
}

TEST(Autograd, Sqrt) {
  Tensor x = make_input({5}, 21, 0.5f, 2.f);
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(sqrt_op(t)); }),
      kTol);
}

TEST(Autograd, SquareAbs) {
  Tensor x = make_input({5}, 22, 0.2f, 1.f);
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(square(t)); }),
      kTol);
  EXPECT_LT(
      max_grad_error(x, [](const Tensor& t) { return sum_all(abs_op(t)); }),
      kTol);
}

TEST(Autograd, MatmulBothOperands) {
  Tensor a = make_input({3, 4}, 23);
  Tensor b = make_input({4, 2}, 24);
  EXPECT_LT(max_grad_error(
                a, [&](const Tensor& t) { return sum_all(matmul(t, b)); }),
            kTol);
  EXPECT_LT(max_grad_error(
                b, [&](const Tensor& t) { return sum_all(matmul(a, t)); }),
            kTol);
}

TEST(Autograd, MatmulChainWithSquare) {
  Tensor a = make_input({2, 3}, 25);
  Tensor b = make_input({3, 3}, 26);
  EXPECT_LT(max_grad_error(
                a,
                [&](const Tensor& t) {
                  return sum_all(square(matmul(t, b)));
                }),
            kTol);
}

TEST(Autograd, Transpose) {
  Tensor a = make_input({3, 2}, 27);
  Tensor w = make_input({3, 2}, 28);
  EXPECT_LT(max_grad_error(
                a,
                [&](const Tensor& t) {
                  return sum_all(mul(transpose(t), transpose(w)));
                }),
            kTol);
}

TEST(Autograd, SumAxis0And1) {
  Tensor a = make_input({3, 4}, 29);
  EXPECT_LT(max_grad_error(
                a,
                [](const Tensor& t) {
                  return sum_all(square(sum_axis(t, 0)));
                }),
            kTol);
  EXPECT_LT(max_grad_error(
                a,
                [](const Tensor& t) {
                  return sum_all(square(sum_axis(t, 1)));
                }),
            kTol);
}

TEST(Autograd, MeanAll) {
  Tensor a = make_input({4, 4}, 30);
  EXPECT_LT(max_grad_error(
                a, [](const Tensor& t) { return mean_all(square(t)); }),
            kTol);
}

TEST(Autograd, MaxAxis0RoutesToArgmax) {
  // Distinct values so the argmax is stable under the FD perturbation.
  Tensor a = Tensor::from_vector({3, 2}, {0.1f, 0.9f, 0.5f, 0.2f, 0.3f, 0.7f});
  EXPECT_LT(max_grad_error(
                a,
                [](const Tensor& t) {
                  return sum_all(square(max_axis0(t)));
                }),
            kTol);
}

TEST(Autograd, MinAxis0) {
  Tensor a = Tensor::from_vector({3, 2}, {0.1f, 0.9f, 0.5f, 0.2f, 0.3f, 0.7f});
  EXPECT_LT(max_grad_error(
                a,
                [](const Tensor& t) {
                  return sum_all(square(min_axis0(t)));
                }),
            kTol);
}

TEST(Autograd, Reshape) {
  Tensor a = make_input({2, 6}, 31);
  EXPECT_LT(max_grad_error(
                a,
                [](const Tensor& t) {
                  return sum_all(square(reshape(t, {3, 4})));
                }),
            kTol);
}

TEST(Autograd, ConcatAxis1) {
  Tensor a = make_input({2, 2}, 32);
  Tensor b = make_input({2, 3}, 33);
  EXPECT_LT(max_grad_error(
                a,
                [&](const Tensor& t) {
                  return sum_all(square(concat({t, b}, 1)));
                }),
            kTol);
  EXPECT_LT(max_grad_error(
                b,
                [&](const Tensor& t) {
                  return sum_all(square(concat({a, t}, 1)));
                }),
            kTol);
}

TEST(Autograd, ConcatAxis0) {
  Tensor a = make_input({1, 3}, 34);
  Tensor b = make_input({2, 3}, 35);
  EXPECT_LT(max_grad_error(
                b,
                [&](const Tensor& t) {
                  return sum_all(square(concat({a, t}, 0)));
                }),
            kTol);
}

TEST(Autograd, GatherRowsScattersGradBack) {
  Tensor a = make_input({4, 3}, 36);
  std::vector<std::int64_t> idx = {1, 3, 1, 0};  // row 1 used twice
  EXPECT_LT(max_grad_error(
                a,
                [&](const Tensor& t) {
                  return sum_all(square(gather_rows(t, idx)));
                }),
            kTol);
}

TEST(Autograd, SliceRows) {
  Tensor a = make_input({5, 2}, 37);
  EXPECT_LT(max_grad_error(
                a,
                [](const Tensor& t) {
                  return sum_all(square(slice_rows(t, 1, 4)));
                }),
            kTol);
}

TEST(Autograd, ScatterSum) {
  Tensor msgs = make_input({6, 2}, 38);
  std::vector<std::int64_t> idx = {0, 1, 0, 2, 1, 2};
  EXPECT_LT(max_grad_error(
                msgs,
                [&](const Tensor& t) {
                  return sum_all(square(scatter_reduce(t, idx, 3,
                                                       Reduce::Sum)));
                }),
            kTol);
}

TEST(Autograd, ScatterMean) {
  Tensor msgs = make_input({6, 2}, 39);
  std::vector<std::int64_t> idx = {0, 0, 0, 1, 1, 2};
  EXPECT_LT(max_grad_error(
                msgs,
                [&](const Tensor& t) {
                  return sum_all(square(scatter_reduce(t, idx, 3,
                                                       Reduce::Mean)));
                }),
            kTol);
}

TEST(Autograd, ScatterMax) {
  // Well-separated values keep the argmax stable under perturbation.
  Tensor msgs = Tensor::from_vector(
      {4, 2}, {0.1f, 0.9f, 0.5f, 0.3f, 0.85f, 0.15f, 0.4f, 0.6f});
  std::vector<std::int64_t> idx = {0, 0, 1, 1};
  EXPECT_LT(max_grad_error(
                msgs,
                [&](const Tensor& t) {
                  return sum_all(square(scatter_reduce(t, idx, 2,
                                                       Reduce::Max)));
                }),
            kTol);
}

TEST(Autograd, ScatterMin) {
  Tensor msgs = Tensor::from_vector(
      {4, 1}, {0.2f, 0.8f, 0.5f, 0.1f});
  std::vector<std::int64_t> idx = {0, 0, 1, 1};
  EXPECT_LT(max_grad_error(
                msgs,
                [&](const Tensor& t) {
                  return sum_all(square(scatter_reduce(t, idx, 2,
                                                       Reduce::Min)));
                }),
            kTol);
}

TEST(Autograd, Softmax) {
  Tensor a = make_input({2, 4}, 40);
  Tensor target = make_input({2, 4}, 41);
  EXPECT_LT(max_grad_error(
                a,
                [&](const Tensor& t) {
                  return sum_all(square(sub(softmax(t), target)));
                }),
            kTol);
}

TEST(Autograd, LogSoftmax) {
  Tensor a = make_input({2, 4}, 42);
  Tensor w = make_input({2, 4}, 43);
  EXPECT_LT(max_grad_error(
                a,
                [&](const Tensor& t) {
                  return sum_all(mul(log_softmax(t), w));
                }),
            kTol);
}

TEST(Autograd, CrossEntropy) {
  Tensor logits = make_input({3, 5}, 44);
  std::vector<std::int64_t> labels = {0, 2, 4};
  EXPECT_LT(max_grad_error(
                logits,
                [&](const Tensor& t) { return cross_entropy(t, labels); }),
            kTol);
}

// ---- tape mechanics ------------------------------------------------------------

TEST(AutogradTape, GradAccumulatesWhenTensorReused) {
  Tensor x = Tensor::from_vector({2}, {1.f, 2.f}, /*requires_grad=*/true);
  Tensor y = add(mul(x, 3.f), mul(x, 2.f));  // y = 5x
  sum_all(y).backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 5.f);
  EXPECT_FLOAT_EQ(x.grad()[1], 5.f);
}

TEST(AutogradTape, ZeroGradClears) {
  Tensor x = Tensor::from_vector({1}, {2.f}, true);
  sum_all(square(x)).backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.f);
  x.zero_grad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.f);
  sum_all(square(x)).backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.f);
}

TEST(AutogradTape, BackwardTwiceAccumulates) {
  Tensor x = Tensor::from_vector({1}, {3.f}, true);
  Tensor loss = square(x);
  loss.backward();
  loss.backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 12.f);  // 2 * (2x)
}

TEST(AutogradTape, NoGradGuardDisablesTape) {
  Tensor x = Tensor::from_vector({1}, {2.f}, true);
  {
    NoGradGuard ng;
    Tensor y = square(x);
    EXPECT_FALSE(y.requires_grad());
  }
  Tensor y2 = square(x);
  EXPECT_TRUE(y2.requires_grad());
}

TEST(AutogradTape, DetachCutsHistory) {
  Tensor x = Tensor::from_vector({1}, {2.f}, true);
  Tensor y = square(x).detach();
  EXPECT_FALSE(y.requires_grad());
  Tensor z = square(y.set_requires_grad(true));
  z.backward();
  EXPECT_FALSE(x.has_grad());  // gradient did not flow past the detach
}

TEST(AutogradTape, NonScalarBackwardNeedsSeed) {
  Tensor x = Tensor::from_vector({2}, {1.f, 2.f}, true);
  Tensor y = mul(x, 2.f);
  EXPECT_THROW(y.backward(), std::invalid_argument);
  const std::vector<float> seed = {1.f, 10.f};
  y.backward(seed);
  EXPECT_FLOAT_EQ(x.grad()[0], 2.f);
  EXPECT_FLOAT_EQ(x.grad()[1], 20.f);
}

TEST(AutogradTape, DiamondGraphGradCorrect) {
  // z = (x*2) + (x*3); dz/dx = 5 through two paths.
  Tensor x = Tensor::from_vector({1}, {1.f}, true);
  Tensor a = mul(x, 2.f);
  Tensor b = mul(x, 3.f);
  Tensor z = add(a, b);
  z.backward(std::vector<float>{1.f});
  EXPECT_FLOAT_EQ(x.grad()[0], 5.f);
}

TEST(AutogradTape, LeafWithoutRequiresGradGetsNoGrad) {
  Tensor x = Tensor::from_vector({1}, {1.f}, false);
  Tensor y = Tensor::from_vector({1}, {2.f}, true);
  Tensor z = mul(x, y);
  z.backward(std::vector<float>{1.f});
  EXPECT_FALSE(x.has_grad());
  EXPECT_TRUE(y.has_grad());
}

// ---- forwards without a tape edge ---------------------------------------------

/// One op over a fixed input list.
struct OpCase {
  std::string name;
  std::vector<Tensor> inputs;
  std::function<Tensor(const std::vector<Tensor>&)> op;
};

/// Fresh copies of `inputs` with requires_grad set to `grad`.
std::vector<Tensor> copies(const std::vector<Tensor>& inputs, bool grad) {
  std::vector<Tensor> out;
  for (const Tensor& t : inputs) out.push_back(t.detach().set_requires_grad(grad));
  return out;
}

bool records_edge(const Tensor& t) {
  return t.requires_grad() && !t.impl()->parents.empty() &&
         static_cast<bool>(t.impl()->backward_fn);
}

bool records_nothing(const Tensor& t) {
  return !t.requires_grad() && t.impl()->parents.empty() &&
         !t.impl()->backward_fn;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

std::vector<OpCase> no_tape_cases() {
  std::vector<OpCase> cases;
  auto add_case = [&cases](std::string name, std::vector<Tensor> inputs,
                           std::function<Tensor(const std::vector<Tensor>&)> op) {
    cases.push_back({std::move(name), std::move(inputs), std::move(op)});
  };
  Tensor x = make_input({4, 6}, 101);
  Tensor lhs = make_input({5, 7}, 102);
  lhs.data()[3] = 0.f;
  lhs.data()[8] = -0.f;
  add_case("matmul", {lhs, make_input({7, 9}, 103)},
           [](const auto& in) { return matmul(in[0], in[1]); });

  // All four broadcast kinds of each binary op; divisors kept away from 0.
  const std::vector<std::pair<std::string, Tensor>> rhs = {
      {"exact", make_input({4, 6}, 104, 0.5f, 2.f)},
      {"scalar", make_input({1}, 105, 0.5f, 2.f)},
      {"row", make_input({6}, 106, 0.5f, 2.f)},
      {"col", make_input({4, 1}, 107, 0.5f, 2.f)}};
  for (const auto& [kind, r] : rhs) {
    add_case("add/" + kind, {x, r},
             [](const auto& in) { return add(in[0], in[1]); });
    add_case("sub/" + kind, {x, r},
             [](const auto& in) { return sub(in[0], in[1]); });
    add_case("mul/" + kind, {x, r},
             [](const auto& in) { return mul(in[0], in[1]); });
    add_case("div/" + kind, {x, r},
             [](const auto& in) { return div(in[0], in[1]); });
  }

  Tensor pos = make_input({4, 6}, 108, 0.1f, 3.f);
  add_case("neg", {x}, [](const auto& in) { return neg(in[0]); });
  add_case("relu", {x}, [](const auto& in) { return relu(in[0]); });
  add_case("leaky_relu", {x},
           [](const auto& in) { return leaky_relu(in[0], 0.2f); });
  add_case("sigmoid", {x}, [](const auto& in) { return sigmoid(in[0]); });
  add_case("tanh", {x}, [](const auto& in) { return tanh_op(in[0]); });
  add_case("exp", {x}, [](const auto& in) { return exp_op(in[0]); });
  add_case("log", {pos}, [](const auto& in) { return log_op(in[0]); });
  add_case("sqrt", {pos}, [](const auto& in) { return sqrt_op(in[0]); });
  add_case("square", {x}, [](const auto& in) { return square(in[0]); });
  add_case("abs", {x}, [](const auto& in) { return abs_op(in[0]); });

  add_case("reshape", {x},
           [](const auto& in) { return reshape(in[0], {6, 4}); });
  add_case("concat/0", {x, make_input({2, 6}, 109)},
           [](const auto& in) { return concat({in[0], in[1]}, 0); });
  add_case("concat/1", {x, make_input({4, 3}, 110)},
           [](const auto& in) { return concat({in[0], in[1]}, 1); });
  add_case("gather_rows", {x}, [](const auto& in) {
    const std::vector<std::int64_t> idx = {3, 0, 0, 2, 1, 3};
    return gather_rows(in[0], idx);
  });
  for (const Reduce r : {Reduce::Sum, Reduce::Mean, Reduce::Max, Reduce::Min})
    add_case("scatter_reduce/" + std::to_string(static_cast<int>(r)),
             {make_input({7, 5}, 111)}, [r](const auto& in) {
               const std::vector<std::int64_t> dst = {0, 2, 2, 1, 0, 2, 3};
               return scatter_reduce(in[0], dst, 5, r);
             });
  add_case("max_axis0", {x}, [](const auto& in) { return max_axis0(in[0]); });
  return cases;
}

TEST(NoTape, ForwardsByteEqualToTapedAndRecordNoEdge) {
  // Under NoGradGuard, or with autograd on but no parent requiring grad,
  // every op must return the taped op's exact bytes and record no edge.
  for (const OpCase& c : no_tape_cases()) {
    const Tensor taped = c.op(copies(c.inputs, true));
    ASSERT_TRUE(records_edge(taped)) << c.name;

    const Tensor plain = c.op(copies(c.inputs, false));
    EXPECT_TRUE(records_nothing(plain)) << c.name << " (no grad inputs)";
    EXPECT_TRUE(same_bytes(plain, taped)) << c.name << " (no grad inputs)";

    Tensor guarded;
    {
      NoGradGuard ng;
      guarded = c.op(copies(c.inputs, true));
    }
    EXPECT_TRUE(records_nothing(guarded)) << c.name << " (NoGradGuard)";
    EXPECT_TRUE(same_bytes(guarded, taped)) << c.name << " (NoGradGuard)";
  }
}

}  // namespace
}  // namespace hg
