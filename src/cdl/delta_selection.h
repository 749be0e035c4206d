// Runtime selection of the confidence threshold δ.
//
// The paper treats δ as a runtime knob "adjusted to achieve the best tradeoff
// between accuracy and efficiency" (Section V-E). select_delta automates
// that: it sweeps candidate thresholds on a held-out validation set and
// returns the most accurate one, breaking ties toward fewer operations.
//
// Each call runs the cascade once: ConditionalNetwork::record_stages keeps
// every stage's probability rows for the validation set (no stage's output
// depends on δ), and every candidate replays the activation module over
// them. Scores and picks are bit-identical to classify()ing the whole set at
// each candidate.
#pragma once

#include <span>
#include <vector>

#include "cdl/conditional_network.h"
#include "data/dataset.h"

namespace cdl {

struct DeltaCandidate {
  float delta = 0.5F;
  double accuracy = 0.0;
  double avg_ops = 0.0;  ///< average operations per input at this delta
};

struct DeltaSelection {
  DeltaCandidate best;
  std::vector<DeltaCandidate> sweep;  ///< every evaluated candidate, in order
};

/// Default candidate grid covering the useful range of the paper's Fig. 10.
[[nodiscard]] std::vector<float> default_delta_grid();

/// Evaluates each candidate δ on `validation` and picks the most accurate
/// (ties -> lower average ops). Leaves the network's δ set to the winner.
[[nodiscard]] DeltaSelection select_delta(ConditionalNetwork& net,
                                          const Dataset& validation,
                                          std::span<const float> candidates);

/// Overload using default_delta_grid().
[[nodiscard]] DeltaSelection select_delta(ConditionalNetwork& net,
                                          const Dataset& validation);

struct StageDeltaSelection {
  std::vector<float> stage_deltas;  ///< chosen δ per stage, in stage order
  double accuracy = 0.0;
  double avg_ops = 0.0;
};

/// Extension beyond the paper: tunes an independent δ per stage by greedy
/// coordinate descent — starting from the best global δ, each stage's
/// threshold is swept in turn (deepest impact first: stage 0 onwards) and
/// the most accurate setting kept (ties -> fewer ops). Leaves the network
/// configured with the chosen per-stage overrides.
[[nodiscard]] StageDeltaSelection select_stage_deltas(
    ConditionalNetwork& net, const Dataset& validation,
    std::span<const float> candidates);

[[nodiscard]] StageDeltaSelection select_stage_deltas(ConditionalNetwork& net,
                                                      const Dataset& validation);

}  // namespace cdl
