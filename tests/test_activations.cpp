#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/rng.h"
#include "nn/activations.h"

namespace cdl {
namespace {

TEST(Sigmoid, KnownValues) {
  Sigmoid act;
  const Tensor y =
      act.forward(Tensor(Shape{3}, std::vector<float>{0.0F, 100.0F, -100.0F}));
  EXPECT_FLOAT_EQ(y[0], 0.5F);
  EXPECT_NEAR(y[1], 1.0F, 1e-6F);
  EXPECT_NEAR(y[2], 0.0F, 1e-6F);
}

TEST(Tanh, KnownValues) {
  Tanh act;
  const Tensor y =
      act.forward(Tensor(Shape{2}, std::vector<float>{0.0F, 20.0F}));
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_NEAR(y[1], 1.0F, 1e-6F);
}

TEST(ReLU, ClampsNegatives) {
  ReLU act;
  const Tensor y =
      act.forward(Tensor(Shape{3}, std::vector<float>{-2.0F, 0.0F, 3.0F}));
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 3.0F);
}

TEST(Activations, OutputShapeIsInputShape) {
  Sigmoid act;
  EXPECT_EQ(act.output_shape(Shape{3, 4, 5}), (Shape{3, 4, 5}));
}

TEST(Activations, BackwardBeforeForwardThrows) {
  Sigmoid act;
  EXPECT_THROW((void)act.backward(Tensor(Shape{2})), std::logic_error);
}

TEST(Activations, BackwardShapeMismatchThrows) {
  ReLU act;
  (void)act.forward(Tensor(Shape{2}));
  EXPECT_THROW((void)act.backward(Tensor(Shape{3})), std::invalid_argument);
}

TEST(Activations, SigmoidDerivativePeaksAtZero) {
  Sigmoid act;
  (void)act.forward(Tensor(Shape{1}, std::vector<float>{0.0F}));
  const Tensor g = act.backward(Tensor(Shape{1}, 1.0F));
  EXPECT_FLOAT_EQ(g[0], 0.25F);  // sigma'(0) = 0.25
}

TEST(Activations, ForwardOpsCountOnePerElement) {
  const Tanh act;
  const OpCount ops = act.forward_ops(Shape{3, 5, 5});
  EXPECT_EQ(ops.activations, 75U);
  EXPECT_EQ(ops.macs, 0U);
}

struct ActCase {
  const char* name;
  float lo;
  float hi;
};

// Names each case after its activation. Without it gtest prints the struct's
// raw bytes, a pointer among them, and the ctest names change every build.
void PrintTo(const ActCase& c, std::ostream* os) { *os << c.name; }

class ActivationRangeSweep : public ::testing::TestWithParam<ActCase> {};

TEST_P(ActivationRangeSweep, OutputStaysInRangeAndDerivativeMatchesNumeric) {
  const ActCase c = GetParam();
  std::unique_ptr<ElementwiseActivation> act;
  if (std::string(c.name) == "sigmoid") act = std::make_unique<Sigmoid>();
  if (std::string(c.name) == "tanh") act = std::make_unique<Tanh>();
  if (std::string(c.name) == "relu") act = std::make_unique<ReLU>();
  ASSERT_NE(act, nullptr);

  Rng rng(77);
  Tensor x(Shape{64});
  for (float& v : x.values()) v = rng.uniform(-3.0F, 3.0F);

  const Tensor y = act->forward(x);
  EXPECT_GE(y.min(), c.lo);
  EXPECT_LE(y.max(), c.hi);

  // Numeric derivative check at every element (away from relu's kink).
  const Tensor g = act->backward(Tensor(Shape{64}, 1.0F));
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::string(c.name) == "relu" && std::abs(x[i]) < 2 * eps) continue;
    Tensor lo_in = x;
    Tensor hi_in = x;
    lo_in[i] -= eps;
    hi_in[i] += eps;
    const float numeric =
        (act->forward(hi_in)[i] - act->forward(lo_in)[i]) / (2 * eps);
    EXPECT_NEAR(g[i], numeric, 5e-3F) << c.name << " at x=" << x[i];
  }
}

INSTANTIATE_TEST_SUITE_P(All, ActivationRangeSweep,
                         ::testing::Values(ActCase{"sigmoid", 0.0F, 1.0F},
                                           ActCase{"tanh", -1.0F, 1.0F},
                                           ActCase{"relu", 0.0F, 3.0F}));

}  // namespace
}  // namespace cdl
