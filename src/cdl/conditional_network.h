// ConditionalNetwork: the paper's CDLN — a baseline DLN with linear
// classifiers cascaded at convolutional-stage boundaries and an activation
// module that terminates inference early for easy inputs (Algorithm 2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cdl/activation_module.h"
#include "cdl/linear_classifier.h"
#include "cdl/quantized_cascade.h"
#include "core/workspace.h"
#include "nn/network.h"

namespace cdl::obs {
class EnergyMeter;
}  // namespace cdl::obs

namespace cdl {

/// Numeric precision a cascade stage executes in. kInt8 runs the stage's
/// baseline segment and linear classifier through the quantized executors
/// (cdl/quantized_cascade.h); probabilities reach the activation module as
/// fp32 either way, so the delta-decision semantics are identical.
enum class StagePrecision : std::uint8_t { kFp32 = 0, kInt8 = 1 };

[[nodiscard]] const char* to_string(StagePrecision p);

struct ClassificationResult {
  std::size_t label = 0;
  /// Stage that produced the label: 0..num_stages()-1 for a linear
  /// classifier, num_stages() for the baseline's final (FC) output.
  std::size_t exit_stage = 0;
  float confidence = 0.0F;
  OpCount ops;           ///< operations actually spent on this input
  Tensor probabilities;  ///< class distribution of the deciding stage
};

/// Every stage's class probabilities over a set of inputs, recorded by one
/// full-depth pass (ConditionalNetwork::record_stages). No stage's
/// probabilities depend on δ, so replaying the activation module over these
/// rows reproduces classify()'s decision for any per-stage thresholds.
struct StageRecording {
  std::size_t count = 0;    ///< inputs recorded
  std::size_t classes = 0;  ///< probabilities per row
  /// Stage-major rows: stage s, input i starts at (s * count + i) * classes.
  std::vector<float> probs;
  /// Label the final FC stage gives input i.
  std::vector<std::size_t> final_label;

  [[nodiscard]] const float* row(std::size_t stage, std::size_t input) const {
    return probs.data() + (stage * count + input) * classes;
  }
};

class ConditionalNetwork;

/// Pre-planned arena for ConditionalNetwork::classify_batch_into. One walk
/// of the network sizes every stage's segment plan, packed-GEMM scratch and
/// score block (sequential stages share frame space), so the steady-state
/// batch loop performs zero heap allocations. A workspace planned for
/// (tile, workers) serves any batch size and any pool up to `workers`
/// threads; classify_batch_into replans automatically when the workspace
/// does not match the network.
class BatchWorkspace {
 public:
  static constexpr std::size_t kDefaultTile = 64;

  BatchWorkspace() = default;

  /// Plans buffers for `net`: sub-batches ("tiles") of up to `tile` images
  /// and pools of up to `workers` threads.
  void plan(const ConditionalNetwork& net, std::size_t tile = kDefaultTile,
            std::size_t workers = 1);

  /// Tile classify_batch_into auto-plans for a `count`-image batch on
  /// `workers` threads. Serial runs keep kDefaultTile (small tiles keep a
  /// stage's activations cache-resident); threaded runs grow the tile to
  /// kDefaultTile rows per worker (capped at 512 and at the batch size) so
  /// each stage-level parallel_for carries enough rows per worker to
  /// amortize its fork/join barrier. An explicitly planned workspace is
  /// never re-tiled. Independently of the tile, classify_batch_into drops to
  /// serial execution whenever a stage's surviving-row count falls below its
  /// parallel floor — late stages with a handful of survivors pay more in
  /// fork/join barriers than parallelism returns (see docs/OBSERVABILITY.md).
  [[nodiscard]] static std::size_t auto_tile(std::size_t count,
                                             std::size_t workers);

  /// True when this plan fits `net` driven by a pool of `workers` threads.
  [[nodiscard]] bool matches(const ConditionalNetwork& net,
                             std::size_t workers) const;

  [[nodiscard]] std::size_t tile() const { return tile_; }
  [[nodiscard]] std::size_t capacity_floats() const {
    return arena_.capacity_floats();
  }

 private:
  friend class ConditionalNetwork;

  struct StageExec {
    BlockPlan seg;      ///< baseline segment feeding this stage
    BufferRef scratch;  ///< segment + classifier GEMM scratch (shared)
    BufferRef probs;    ///< tile x classes score/probability block
  };

  const ConditionalNetwork* net_ = nullptr;
  std::size_t tile_ = 0;
  std::size_t workers_ = 0;
  std::size_t baseline_layers_ = 0;
  std::vector<std::size_t> prefixes_;    ///< stage prefixes at plan time
  std::vector<std::uint8_t> precision_;  ///< per-stage precision at plan time
  BufferRef feat_[2];                  ///< ping/pong feature blocks
  std::vector<StageExec> stages_;
  StageExec final_;                    ///< last prefix -> FC logits
  std::vector<std::uint32_t> active_;  ///< original index of each live row
  Workspace arena_;
};

class ConditionalNetwork {
 public:
  /// Takes ownership of a (typically pre-trained) baseline network.
  ConditionalNetwork(Network baseline, Shape input_shape);

  ConditionalNetwork(ConditionalNetwork&&) = default;
  ConditionalNetwork& operator=(ConditionalNetwork&&) = default;

  [[nodiscard]] Network& baseline() { return baseline_; }
  [[nodiscard]] const Network& baseline() const { return baseline_; }
  [[nodiscard]] const Shape& input_shape() const { return input_shape_; }

  /// Attaches a linear classifier on the features produced by baseline
  /// layers [0, prefix_layers). Classifiers may be attached in any order;
  /// they are kept sorted by prefix. Returns the stage index.
  std::size_t attach_classifier(std::size_t prefix_layers, LcTrainingRule rule,
                                Rng& rng);

  /// Removes the classifier at `stage`; later stage indices shift down.
  void detach_classifier(std::size_t stage);

  /// Number of attached linear classifiers (the final FC stage of the
  /// baseline is not counted; it is stage index num_stages()).
  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }

  /// Output classes every stage scores (the serving layer sizes response
  /// buffers from this).
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

  [[nodiscard]] LinearClassifier& classifier(std::size_t stage);
  [[nodiscard]] const LinearClassifier& classifier(std::size_t stage) const;
  [[nodiscard]] std::size_t stage_prefix(std::size_t stage) const;

  /// Stage display name: "O1", "O2", ... and "FC" for the final stage.
  [[nodiscard]] std::string stage_name(std::size_t stage) const;

  [[nodiscard]] ActivationModule& activation_module() { return activation_; }
  [[nodiscard]] const ActivationModule& activation_module() const {
    return activation_;
  }
  /// Sets the runtime efficiency/accuracy knob δ (paper Fig. 10) for every
  /// stage, clearing any per-stage overrides.
  void set_delta(float delta);
  void set_policy(ConfidencePolicy policy);

  /// Per-stage δ override (extension: later early-exit systems tune each
  /// exit's threshold independently; the paper uses a single δ). Overrides
  /// survive until set_delta() resets them.
  void set_stage_delta(std::size_t stage, float delta);
  /// Effective δ used at `stage` (the override if present, else the global).
  [[nodiscard]] float stage_delta(std::size_t stage) const;

  // --- per-stage precision (int8 quantized execution) -----------------------
  /// Installs calibration ranges for this network (one boundary per baseline
  /// layer plus the final output; see collect_quant_calibration). Resets all
  /// stage precisions to fp32 — packed int8 parameters derive from both the
  /// calibration and the current weights, so they are rebuilt on demand by
  /// set_stage_precision. Throws std::invalid_argument on a boundary-count
  /// mismatch.
  void set_quantization(QuantCalibration cal);
  [[nodiscard]] bool has_quantization() const { return !quant_cal_.empty(); }
  [[nodiscard]] const QuantCalibration& quantization() const {
    return quant_cal_;
  }

  /// Sets the execution precision of `stage` (num_stages() = the final FC
  /// segment). kInt8 eagerly compiles the stage's quantized executors from
  /// the installed calibration; throws std::logic_error without calibration
  /// and std::invalid_argument when the stage cannot be quantized (see
  /// QuantizedSegment::build). Weight edits after this call do not propagate
  /// to the packed int8 parameters until the precision is set again.
  void set_stage_precision(std::size_t stage, StagePrecision precision);
  [[nodiscard]] StagePrecision stage_precision(std::size_t stage) const;
  /// True when set_stage_precision(stage, kInt8) would succeed.
  [[nodiscard]] bool stage_quantizable(std::size_t stage) const;
  /// set_stage_precision over every stage including the final FC segment.
  void set_cascade_precision(StagePrecision precision);

  /// The stage's compiled int8 executors; null unless its precision is kInt8
  /// (the final stage has no classifier, so its second member stays null).
  [[nodiscard]] const QuantizedSegment* quantized_segment(
      std::size_t stage) const;
  [[nodiscard]] const QuantizedClassifier* quantized_classifier(
      std::size_t stage) const;

  /// Algorithm 2: staged inference with early termination. Const and
  /// cache-free (runs the baseline through Network::infer_range), so it is
  /// safe to call concurrently from many threads on one network.
  [[nodiscard]] ClassificationResult classify(const Tensor& input) const;

  /// Unconditional baseline inference (all layers, no linear classifiers).
  [[nodiscard]] ClassificationResult classify_baseline(const Tensor& input) const;

  /// Batched Algorithm 2, stage-major: the whole batch runs through stage i
  /// as one batched segment (one packed GEMM per conv/dense layer) before
  /// any row reaches stage i+1. The stage's linear classifier scores the
  /// entire surviving block with one GEMM, the δ-decision is applied per
  /// row, exited rows scatter their results back to original indices, and
  /// survivors are compacted into a dense sub-batch. Early-exit decisions
  /// are made per sample exactly as in classify(); result i corresponds to
  /// input i and is bit-identical (label, exit stage, confidence,
  /// probabilities, ops) to a serial classify() for any batch size, thread
  /// count and δ. Convenience wrapper over classify_batch_into with a local
  /// workspace.
  [[nodiscard]] std::vector<ClassificationResult> classify_batch(
      const std::vector<Tensor>& inputs, ThreadPool* pool = nullptr) const;

  /// Zero-allocation form of classify_batch: all scratch lives in `ws`
  /// (replanned automatically when it does not match this network/pool).
  /// With a warm workspace and warm `results` vector, the steady state
  /// performs no heap allocation at all.
  void classify_batch_into(const std::vector<Tensor>& inputs,
                           std::vector<ClassificationResult>& results,
                           BatchWorkspace& ws,
                           ThreadPool* pool = nullptr) const;

  /// classify_batch_into's stage loop with early exits disabled: every input
  /// runs every stage and the final FC segment, and each stage's probability
  /// row is copied out — bit-identical to the row classify() gates on at
  /// that stage, whatever δ. δ selection records once and replays the gate.
  [[nodiscard]] StageRecording record_stages(
      const std::vector<Tensor>& inputs) const;

  /// Features the stage's linear classifier sees for `input` (prefix forward).
  [[nodiscard]] Tensor stage_features(const Tensor& input, std::size_t stage) const;

  // --- op accounting (precomputed from input_shape) -------------------------
  /// Cost of the full baseline forward pass (the paper's normalization unit).
  [[nodiscard]] OpCount baseline_forward_ops() const;
  /// Incremental cost of reaching + evaluating stage `s`: baseline segment
  /// since the previous stage, the linear classifier, and the decision.
  [[nodiscard]] OpCount stage_ops(std::size_t stage) const;
  /// Cost of the final FC stage after the last linear classifier.
  [[nodiscard]] OpCount final_stage_ops() const;
  /// Cost of the hardest input: every stage plus the final layers.
  [[nodiscard]] OpCount worst_case_ops() const;
  /// Cumulative cost of exiting exactly at `stage` (num_stages() = FC exit).
  [[nodiscard]] OpCount exit_ops(std::size_t stage) const;

  /// Cumulative exit-energy table under `meter` (index = exit stage,
  /// num_stages() = FC exit), priced by each stage's *execution* precision:
  /// quantized stages at the meter's int8 costs, with the final
  /// softmax+argmax always at fp32 — exactly the precision split the
  /// profiler rows carry, so folding a profiler snapshot of the same inputs
  /// through the meter reproduces these figures bit-identically. This is
  /// the per-request energy the serving engine stamps on each Response.
  [[nodiscard]] std::vector<double> exit_energy_table(
      const obs::EnergyMeter& meter) const;

  /// Saves/loads baseline + classifier parameters (architecture must match).
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  struct Stage {
    std::size_t prefix_layers;
    LinearClassifier classifier;
    std::optional<float> delta_override;
  };

  struct QuantExec {
    std::unique_ptr<QuantizedSegment> seg;
    std::unique_ptr<QuantizedClassifier> classifier;
  };

  [[nodiscard]] std::vector<Tensor*> all_parameters();
  void check_stage(std::size_t stage) const;
  /// Baseline layer range [begin, end) that stage `stage` executes
  /// (num_stages() = the final segment after the last classifier prefix).
  [[nodiscard]] std::pair<std::size_t, std::size_t> stage_segment(
      std::size_t stage) const;
  /// Compiles `stage`'s int8 executors; `.seg` is null when unquantizable.
  [[nodiscard]] QuantExec build_quant_exec(std::size_t stage) const;
  /// Drops compiled int8 executors and resets precisions to fp32 (stage
  /// boundaries or weights changed under them).
  void reset_precision_state();
  /// Copies a deciding stage's probability row into `dst`, reusing its
  /// allocation when the shape is already right (warm steady state).
  void store_probabilities(Tensor& dst, const float* row) const;
  /// The stage-major batch executor behind classify_batch_into and
  /// record_stages. With `record` set no row exits early: each stage's
  /// probability block is copied into `record->probs` instead of gated.
  void run_batch(const std::vector<Tensor>& inputs,
                 std::vector<ClassificationResult>& results,
                 BatchWorkspace& ws, ThreadPool* pool,
                 StageRecording* record) const;
  [[nodiscard]] OpCount segment_ops(std::size_t from_layer,
                                    std::size_t to_layer) const;
  /// Rebuilds the cached per-stage/final op tables (classify() consults them
  /// on every call, so they must not be recomputed per input).
  void rebuild_ops_cache();

  Network baseline_;
  Shape input_shape_;
  std::vector<Stage> stages_;
  QuantCalibration quant_cal_;
  std::vector<StagePrecision> stage_precision_;  ///< num_stages() + 1 entries
  std::vector<QuantExec> quant_execs_;           ///< parallel to precisions
  ActivationModule activation_;
  std::size_t num_classes_;
  Shape classes_shape_;  ///< Shape{num_classes_}, cached for warm resizes
  std::vector<OpCount> stage_ops_cache_;  ///< incremental cost per stage
  OpCount final_stage_ops_cache_;
};

}  // namespace cdl
