#include "cdl/delta_selection.h"

#include <stdexcept>

namespace cdl {

std::vector<float> default_delta_grid() {
  return {0.30F, 0.40F, 0.50F, 0.55F, 0.60F, 0.65F, 0.70F, 0.75F, 0.80F, 0.90F};
}

namespace {

struct ValScore {
  double accuracy = 0.0;
  double avg_ops = 0.0;
};

bool better(const ValScore& a, const ValScore& b) {
  return a.accuracy > b.accuracy ||
         (a.accuracy == b.accuracy && a.avg_ops < b.avg_ops);
}

/// The validation set's stage probabilities, recorded once; score() replays
/// classify()'s gate over them for any per-stage thresholds. The rows, the
/// gate and the image-order sums are classify()'s own, so every score is
/// bit-identical to classifying the whole set at those thresholds.
class Replay {
 public:
  Replay(const ConditionalNetwork& net, const Dataset& validation)
      : validation_(validation),
        rec_(net.record_stages(validation.images())),
        policy_(net.activation_module().policy()) {
    for (std::size_t exit = 0; exit <= net.num_stages(); ++exit) {
      exit_ops_.push_back(
          static_cast<double>(net.exit_ops(exit).total_compute()));
    }
  }

  /// `deltas[s]` is stage s's threshold.
  [[nodiscard]] ValScore score(const std::vector<float>& deltas) const {
    std::vector<ActivationModule> gates;
    gates.reserve(deltas.size());
    for (float delta : deltas) gates.emplace_back(delta, policy_);
    std::size_t correct = 0;
    double ops = 0.0;
    for (std::size_t i = 0; i < rec_.count; ++i) {
      std::size_t exit = gates.size();
      std::size_t label = rec_.final_label[i];
      for (std::size_t s = 0; s < gates.size(); ++s) {
        const ActivationDecision d =
            gates[s].evaluate(rec_.row(s, i), rec_.classes);
        if (d.terminate) {
          exit = s;
          label = d.label;
          break;
        }
      }
      if (label == validation_.label(i)) ++correct;
      ops += exit_ops_[exit];
    }
    const auto n = static_cast<double>(rec_.count);
    return {static_cast<double>(correct) / n, ops / n};
  }

 private:
  const Dataset& validation_;
  StageRecording rec_;
  ConfidencePolicy policy_;
  std::vector<double> exit_ops_;  ///< total_compute() of each exit stage
};

DeltaSelection sweep(ConditionalNetwork& net, const Replay& replay,
                     std::span<const float> candidates) {
  DeltaSelection selection;
  for (float delta : candidates) {
    const ValScore v =
        replay.score(std::vector<float>(net.num_stages(), delta));
    selection.sweep.push_back({delta, v.accuracy, v.avg_ops});
    if (selection.sweep.size() == 1 ||
        better(v, {selection.best.accuracy, selection.best.avg_ops})) {
      selection.best = selection.sweep.back();
    }
  }
  net.set_delta(selection.best.delta);
  return selection;
}

void check_inputs(const Dataset& validation,
                  std::span<const float> candidates) {
  if (validation.empty()) {
    throw std::invalid_argument("select_delta: empty validation set");
  }
  if (candidates.empty()) {
    throw std::invalid_argument("select_delta: no candidates");
  }
}

}  // namespace

DeltaSelection select_delta(ConditionalNetwork& net, const Dataset& validation,
                            std::span<const float> candidates) {
  check_inputs(validation, candidates);
  return sweep(net, Replay(net, validation), candidates);
}

DeltaSelection select_delta(ConditionalNetwork& net, const Dataset& validation) {
  const std::vector<float> grid = default_delta_grid();
  return select_delta(net, validation, grid);
}

StageDeltaSelection select_stage_deltas(ConditionalNetwork& net,
                                        const Dataset& validation,
                                        std::span<const float> candidates) {
  if (net.num_stages() == 0) {
    throw std::invalid_argument("select_stage_deltas: network has no stages");
  }
  check_inputs(validation, candidates);
  const Replay replay(net, validation);
  // Seed every stage with the best global δ.
  const DeltaSelection global = sweep(net, replay, candidates);

  StageDeltaSelection selection;
  selection.stage_deltas.assign(net.num_stages(), global.best.delta);
  ValScore best{global.best.accuracy, global.best.avg_ops};

  // Greedy coordinate descent over stages (earlier stages gate the most
  // traffic, so they are swept first).
  for (std::size_t s = 0; s < net.num_stages(); ++s) {
    std::vector<float> trial = selection.stage_deltas;
    for (float delta : candidates) {
      if (delta == selection.stage_deltas[s]) continue;
      trial[s] = delta;
      const ValScore candidate = replay.score(trial);
      if (better(candidate, best)) {
        best = candidate;
        selection.stage_deltas[s] = delta;
      }
    }
    net.set_stage_delta(s, selection.stage_deltas[s]);
  }
  selection.accuracy = best.accuracy;
  selection.avg_ops = best.avg_ops;
  return selection;
}

StageDeltaSelection select_stage_deltas(ConditionalNetwork& net,
                                        const Dataset& validation) {
  const std::vector<float> grid = default_delta_grid();
  return select_stage_deltas(net, validation, grid);
}

}  // namespace cdl
