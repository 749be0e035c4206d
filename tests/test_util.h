// Shared helpers for the test suite: deterministic random tensors, the small
// reference networks that many suites build, tensor comparison, and an RAII
// temp directory. Keep additions here dependency-light (core + nn + cdl only)
// so every test target can include it.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "cdl/conditional_network.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/network.h"
#include "nn/pool2d.h"

namespace cdl::test {

/// Creates <system tmp>/<name>_<pid> and removes it (recursively) on
/// destruction. ctest runs every TEST as its own process, in parallel, so
/// the pid keeps tests of one fixture from deleting each other's files.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() /
             (name + "_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;  // best-effort cleanup; never throw from a dtor
    std::filesystem::remove_all(dir_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

/// Tensor with iid uniform values in [-1, 1), the conventional test input.
inline Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (float& v : t.values()) v = rng.uniform(-1.0F, 1.0F);
  return t;
}

/// Rank-1 variant (weights/signal vectors).
inline Tensor random_tensor(std::size_t n, Rng& rng) {
  return random_tensor(Shape{n}, rng);
}

/// Image-like tensor with values in [0, 1), seeded independently so call
/// sites can vary inputs without threading an Rng through.
inline Tensor random_image(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(shape);
  for (float& v : x.values()) v = rng.uniform(0.0F, 1.0F);
  return x;
}

/// Element-wise EXPECT_NEAR over two same-shaped tensors.
inline void expect_tensor_near(const Tensor& a, const Tensor& b, float tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

/// Smallest serializable MLP: Dense(4,3) -> Sigmoid -> Dense(3,2). Weights
/// are left uninitialised; call init(rng) when values matter.
inline Network two_layer_net() {
  Network net;
  net.emplace<Dense>(4, 3);
  net.emplace<Sigmoid>();
  net.emplace<Dense>(3, 2);
  return net;
}

/// Small dense CDLN on rank-1 inputs: Dense(4,6) -> Sigmoid -> Dense(6,3)
/// with one stage classifier after the hidden activation.
inline ConditionalNetwork small_cdln(Rng& rng, float delta = 0.5F) {
  Network base;
  base.emplace<Dense>(4, 6);
  base.emplace<Sigmoid>();
  base.emplace<Dense>(6, 3);
  base.init(rng);
  ConditionalNetwork net(std::move(base), Shape{4});
  net.attach_classifier(2, LcTrainingRule::kLms, rng);
  net.set_delta(delta);
  return net;
}

/// Small LeNet-style network on 1x12x12 inputs: padded conv, pool, valid
/// conv, dense head. Exercises both conv scratch buffers and the flattening
/// dense path.
inline Network conv_net(ConvAlgo algo, Rng& rng) {
  Network net;
  net.emplace<Conv2D>(1, 4, 3, algo, ConvGeometry{1, 1});
  net.emplace<ReLU>();
  net.emplace<Pool2D>(2);
  net.emplace<Conv2D>(4, 6, 3, algo);
  net.emplace<Tanh>();
  net.emplace<Dense>(6 * 4 * 4, 5);
  net.init(rng);
  return net;
}

/// conv_net wrapped as a two-stage CDLN (classifiers after the pool and the
/// second activation) at delta 0.4.
inline ConditionalNetwork conv_cdln(ConvAlgo algo, Rng& rng) {
  ConditionalNetwork net(conv_net(algo, rng), Shape{1, 12, 12});
  net.attach_classifier(3, LcTrainingRule::kLms, rng);
  net.attach_classifier(5, LcTrainingRule::kLms, rng);
  net.set_delta(0.4F);
  return net;
}

}  // namespace cdl::test
