#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cdl/architectures.h"
#include "cdl/cdl_trainer.h"
#include "cdl/delta_selection.h"
#include "core/rng.h"
#include "data/synthetic_mnist.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "obs/layer_profile.h"
#include "test_util.h"

namespace cdl {
namespace {

ConditionalNetwork tiny_cdln(Rng& rng) {
  Network base;
  base.emplace<Dense>(3, 5);
  base.emplace<Sigmoid>();
  base.emplace<Dense>(5, 2);
  base.init(rng);
  ConditionalNetwork net(std::move(base), Shape{3});
  net.attach_classifier(2, LcTrainingRule::kLms, rng);
  return net;
}

Dataset two_blob_data(std::size_t n, Rng& rng) {
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cls = i % 2;
    Tensor x(Shape{3});
    x[0] = (cls == 0 ? 0.2F : 0.8F) + rng.uniform(-0.05F, 0.05F);
    x[1] = (cls == 0 ? 0.8F : 0.2F) + rng.uniform(-0.05F, 0.05F);
    x[2] = 0.5F;
    d.add(std::move(x), cls);
  }
  return d;
}

TEST(DeltaSelection, RejectsEmptyInputs) {
  Rng rng(1);
  ConditionalNetwork net = tiny_cdln(rng);
  EXPECT_THROW((void)select_delta(net, Dataset{}), std::invalid_argument);
  const Dataset data = two_blob_data(4, rng);
  EXPECT_THROW((void)select_delta(net, data, std::span<const float>{}),
               std::invalid_argument);
}

TEST(DeltaSelection, SweepCoversAllCandidatesInOrder) {
  Rng rng(2);
  ConditionalNetwork net = tiny_cdln(rng);
  const Dataset data = two_blob_data(20, rng);
  const std::vector<float> grid{0.2F, 0.5F, 0.8F};
  const DeltaSelection sel = select_delta(net, data, grid);
  ASSERT_EQ(sel.sweep.size(), 3U);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(sel.sweep[i].delta, grid[i]);
    EXPECT_GE(sel.sweep[i].accuracy, 0.0);
    EXPECT_LE(sel.sweep[i].accuracy, 1.0);
    EXPECT_GT(sel.sweep[i].avg_ops, 0.0);
  }
}

TEST(DeltaSelection, BestIsMostAccurateCandidate) {
  Rng rng(3);
  ConditionalNetwork net = tiny_cdln(rng);
  // Train the stage classifier so accuracy genuinely varies with delta.
  const Dataset train = two_blob_data(200, rng);
  for (int e = 0; e < 20; ++e) {
    for (std::size_t i = 0; i < train.size(); ++i) {
      const Tensor f = net.stage_features(train.image(i), 0);
      (void)net.classifier(0).train_step(f, train.label(i), 0.8F);
    }
  }
  const Dataset val = two_blob_data(80, rng);
  const DeltaSelection sel = select_delta(net, val);
  for (const DeltaCandidate& c : sel.sweep) {
    EXPECT_LE(c.accuracy, sel.best.accuracy);
  }
  // The network is left configured at the winning delta.
  EXPECT_FLOAT_EQ(net.activation_module().delta(), sel.best.delta);
}

TEST(DeltaSelection, TieBreaksTowardFewerOps) {
  Rng rng(4);
  ConditionalNetwork net = tiny_cdln(rng);
  // A rigged always-confident classifier: accuracy identical at every delta
  // below 1, so op cost must decide.
  net.classifier(0).parameters()[0]->zero();
  net.classifier(0).parameters()[1]->zero();
  (*net.classifier(0).parameters()[1])[0] = 1.0F;

  Dataset data;
  for (int i = 0; i < 10; ++i) data.add(Tensor(Shape{3}, 0.5F), 0);

  const std::vector<float> grid{0.5F, 2.0F};  // exit-at-O1 vs always-FC
  const DeltaSelection sel = select_delta(net, data, grid);
  EXPECT_FLOAT_EQ(sel.best.delta, 0.5F);  // same accuracy, cheaper
  ASSERT_EQ(sel.sweep.size(), 2U);
  EXPECT_EQ(sel.sweep[0].accuracy, sel.sweep[1].accuracy);
  EXPECT_LT(sel.sweep[0].avg_ops, sel.sweep[1].avg_ops);
}

TEST(StageDeltaSelection, RequiresAtLeastOneStage) {
  Rng rng(5);
  Network base;
  base.emplace<Dense>(3, 2);
  ConditionalNetwork net(std::move(base), Shape{3});
  const Dataset data = two_blob_data(4, rng);
  EXPECT_THROW((void)select_stage_deltas(net, data), std::invalid_argument);
}

TEST(StageDeltaSelection, NeverWorseThanGlobalSelection) {
  Rng rng(6);
  ConditionalNetwork net = tiny_cdln(rng);
  const Dataset train = two_blob_data(150, rng);
  for (int e = 0; e < 15; ++e) {
    for (std::size_t i = 0; i < train.size(); ++i) {
      const Tensor f = net.stage_features(train.image(i), 0);
      (void)net.classifier(0).train_step(f, train.label(i), 0.8F);
    }
  }
  const Dataset val = two_blob_data(60, rng);
  const DeltaSelection global = select_delta(net, val);
  const StageDeltaSelection staged = select_stage_deltas(net, val);
  // Coordinate descent starts from the global optimum, so on the
  // validation set it can only match or improve it.
  EXPECT_GE(staged.accuracy, global.best.accuracy);
  ASSERT_EQ(staged.stage_deltas.size(), 1U);
  // The network is left configured with the chosen override.
  EXPECT_FLOAT_EQ(net.stage_delta(0), staged.stage_deltas[0]);
}

TEST(DeltaSelection, DefaultGridIsSortedAndInRange) {
  const std::vector<float> grid = default_delta_grid();
  ASSERT_GE(grid.size(), 5U);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_LT(grid[i - 1], grid[i]);
  }
  EXPECT_GT(grid.front(), 0.0F);
  EXPECT_LT(grid.back(), 1.0F);
}

// --- Replay against the per-candidate sweep ---------------------------------
// select_delta and select_stage_deltas record the validation set's stage
// probabilities once and replay the gate for each candidate. The oracle is
// the sweep they replace: classify() every image at every candidate. The two
// must agree to the last bit.

struct OracleScore {
  double accuracy = 0.0;
  double avg_ops = 0.0;
};

OracleScore oracle_score(const ConditionalNetwork& net, const Dataset& val) {
  std::size_t correct = 0;
  double ops = 0.0;
  for (std::size_t i = 0; i < val.size(); ++i) {
    const ClassificationResult r = net.classify(val.image(i));
    if (r.label == val.label(i)) ++correct;
    ops += static_cast<double>(r.ops.total_compute());
  }
  return {static_cast<double>(correct) / static_cast<double>(val.size()),
          ops / static_cast<double>(val.size())};
}

bool oracle_better(const OracleScore& a, const OracleScore& b) {
  return a.accuracy > b.accuracy ||
         (a.accuracy == b.accuracy && a.avg_ops < b.avg_ops);
}

DeltaSelection oracle_select_delta(ConditionalNetwork& net, const Dataset& val,
                                   const std::vector<float>& grid) {
  DeltaSelection sel;
  for (float delta : grid) {
    net.set_delta(delta);
    const OracleScore s = oracle_score(net, val);
    const DeltaCandidate c{delta, s.accuracy, s.avg_ops};
    sel.sweep.push_back(c);
    if (sel.sweep.size() == 1 ||
        oracle_better(s, {sel.best.accuracy, sel.best.avg_ops})) {
      sel.best = c;
    }
  }
  net.set_delta(sel.best.delta);
  return sel;
}

StageDeltaSelection oracle_select_stage_deltas(ConditionalNetwork& net,
                                               const Dataset& val,
                                               const std::vector<float>& grid) {
  const DeltaSelection global = oracle_select_delta(net, val, grid);
  StageDeltaSelection sel;
  sel.stage_deltas.assign(net.num_stages(), global.best.delta);
  OracleScore best{global.best.accuracy, global.best.avg_ops};
  for (std::size_t s = 0; s < net.num_stages(); ++s) {
    for (float delta : grid) {
      if (delta == sel.stage_deltas[s]) continue;
      net.set_stage_delta(s, delta);
      const OracleScore c = oracle_score(net, val);
      if (oracle_better(c, best)) {
        best = c;
        sel.stage_deltas[s] = delta;
      }
    }
    net.set_stage_delta(s, sel.stage_deltas[s]);
  }
  sel.accuracy = best.accuracy;
  sel.avg_ops = best.avg_ops;
  return sel;
}

/// A paper-shaped cascade after five baseline epochs and four
/// stage-classifier epochs on 600 images: enough for δ to move exits and
/// accuracy, and for the 3C greedy search to move a stage off the global δ.
ConditionalNetwork briefly_trained(const CdlArchitecture& arch,
                                   const Dataset& train) {
  Rng rng(21);
  Network base = arch.make_baseline();
  base.init(rng);
  BaselineTrainConfig bcfg;
  bcfg.epochs = 5;
  (void)train_baseline(base, train, bcfg, rng);
  ConditionalNetwork net(std::move(base), arch.input_shape);
  for (const std::size_t prefix : arch.default_stages) {
    net.attach_classifier(prefix, LcTrainingRule::kLms, rng);
  }
  CdlTrainConfig cfg;
  cfg.lc_epochs = 4;
  cfg.prune_by_gain = false;
  (void)train_cdl(net, train, cfg, rng);
  return net;
}

/// (architecture index, int8)
class DeltaReplay
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(DeltaReplay, MatchesPerCandidateClassifyBitForBit) {
  const auto [arch_index, int8] = GetParam();
  const CdlArchitecture arch = paper_architectures()[arch_index];
  const SyntheticMnist gen(SyntheticMnistConfig{.seed = 5});
  const Dataset train = gen.generate(600);
  const Dataset val = gen.generate(120, 1ULL << 33);
  ConditionalNetwork net = briefly_trained(arch, train);
  if (int8) {
    net.set_quantization(collect_quant_calibration(
        net.baseline(), net.input_shape(), train.images(), 64));
    net.set_cascade_precision(StagePrecision::kInt8);
  }
  const std::vector<float> grid = default_delta_grid();
  // Per-stage overrides in place before each call; both sides replace them.
  const auto preset = [&net] {
    net.set_delta(0.45F);
    for (std::size_t s = 0; s < net.num_stages(); ++s) {
      net.set_stage_delta(s, 0.95F - 0.1F * static_cast<float>(s));
    }
  };

  std::size_t greedy_moves = 0;
  for (const ConfidencePolicy policy :
       {ConfidencePolicy::kMaxProbability, ConfidencePolicy::kMargin,
        ConfidencePolicy::kEntropy}) {
    SCOPED_TRACE(to_string(policy));
    net.set_policy(policy);

    preset();
    const DeltaSelection want = oracle_select_delta(net, val, grid);
    preset();
    const DeltaSelection got = select_delta(net, val, grid);
    EXPECT_EQ(got.best.delta, want.best.delta);
    EXPECT_EQ(got.best.accuracy, want.best.accuracy);
    EXPECT_EQ(got.best.avg_ops, want.best.avg_ops);
    ASSERT_EQ(got.sweep.size(), want.sweep.size());
    std::set<double> distinct_ops;
    for (std::size_t i = 0; i < want.sweep.size(); ++i) {
      EXPECT_EQ(got.sweep[i].delta, want.sweep[i].delta);
      EXPECT_EQ(got.sweep[i].accuracy, want.sweep[i].accuracy) << "row " << i;
      EXPECT_EQ(got.sweep[i].avg_ops, want.sweep[i].avg_ops) << "row " << i;
      distinct_ops.insert(want.sweep[i].avg_ops);
    }
    EXPECT_GT(distinct_ops.size(), 1U) << "δ never moved an exit";
    for (std::size_t s = 0; s < net.num_stages(); ++s) {
      EXPECT_EQ(net.stage_delta(s), want.best.delta);
    }

    preset();
    const StageDeltaSelection want_s = oracle_select_stage_deltas(net, val, grid);
    std::vector<float> want_final;
    for (std::size_t s = 0; s < net.num_stages(); ++s) {
      want_final.push_back(net.stage_delta(s));
    }
    preset();
    const StageDeltaSelection got_s = select_stage_deltas(net, val, grid);
    EXPECT_EQ(got_s.stage_deltas, want_s.stage_deltas);
    EXPECT_EQ(got_s.accuracy, want_s.accuracy);
    EXPECT_EQ(got_s.avg_ops, want_s.avg_ops);
    for (std::size_t s = 0; s < net.num_stages(); ++s) {
      EXPECT_EQ(net.stage_delta(s), want_final[s]) << "stage " << s;
      if (want_s.stage_deltas[s] != want.best.delta) ++greedy_moves;
    }
  }
  if (net.num_stages() > 1) {
    EXPECT_GT(greedy_moves, 0U)
        << "the greedy search never left the global δ, so per-stage "
           "thresholds went unchecked";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, DeltaReplay,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1}),
                       ::testing::Bool()),
    [](const auto& info) {
      return paper_architectures()[std::get<0>(info.param)].name +
             (std::get<1>(info.param) ? "_int8" : "_fp32");
    });

/// Profiler on for one scope, cleared on both ends.
struct ProfilerScope {
  ProfilerScope() {
    obs::LayerProfiler::instance().clear();
    obs::LayerProfiler::instance().set_enabled(true);
  }
  ~ProfilerScope() {
    obs::LayerProfiler::instance().set_enabled(false);
    obs::LayerProfiler::instance().clear();
  }
};

std::uint64_t stage0_gate_samples() {
  for (const obs::LayerProfileRow& row :
       obs::LayerProfiler::instance().snapshot()) {
    if (row.stage == 0 && row.layer == obs::kStageLevel &&
        row.name == "classifier+gate") {
      return row.samples;
    }
  }
  return 0;
}

TEST(DeltaSelection, RunsTheCascadeOncePerSelection) {
  Rng rng(9);
  ConditionalNetwork net = test::conv_cdln(ConvAlgo::kIm2col, rng);
  constexpr std::size_t kImages = 40;
  Dataset val;
  for (std::size_t i = 0; i < kImages; ++i) {
    val.add(test::random_image(net.input_shape(), 900 + i), i % 5);
  }
  const std::vector<float> grid{0.3F, 0.5F, 0.7F, 0.9F};
  {
    const ProfilerScope scope;
    (void)select_delta(net, val, grid);
    EXPECT_EQ(stage0_gate_samples(), kImages);
  }
  {
    const ProfilerScope scope;
    (void)select_stage_deltas(net, val, grid);
    EXPECT_EQ(stage0_gate_samples(), kImages);
  }
}

}  // namespace
}  // namespace cdl
