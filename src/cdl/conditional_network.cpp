#include "cdl/conditional_network.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/thread_pool.h"
#include "nn/serialize.h"
#include "nn/softmax.h"
#include "obs/energy_meter.h"
#include "obs/layer_profile.h"
#include "obs/trace.h"

namespace cdl {

namespace {

/// Surviving-row floor below which stage segments run serially even when a
/// pool is available. Late cascade stages often carry only a handful of
/// survivors per tile; dispatching those through parallel_for costs more in
/// fork/join barriers than the parallelism returns (the 0.94x regression
/// BENCH_throughput.json recorded), and results are bit-identical either way.
constexpr std::size_t kParallelMinRows = 32;

ThreadPool* gate_pool(ThreadPool* pool, std::size_t rows) {
  return rows < kParallelMinRows ? nullptr : pool;
}

}  // namespace

const char* to_string(StagePrecision p) {
  return p == StagePrecision::kInt8 ? "int8" : "fp32";
}

ConditionalNetwork::ConditionalNetwork(Network baseline, Shape input_shape)
    : baseline_(std::move(baseline)), input_shape_(std::move(input_shape)) {
  if (baseline_.size() == 0) {
    throw std::invalid_argument("ConditionalNetwork: empty baseline");
  }
  const Shape out = baseline_.output_shape(input_shape_);  // validates chain
  if (out.rank() != 1) {
    throw std::invalid_argument(
        "ConditionalNetwork: baseline must end in a rank-1 score vector, got " +
        out.to_string());
  }
  num_classes_ = out.numel();
  classes_shape_ = Shape{num_classes_};
  rebuild_ops_cache();
}

void BatchWorkspace::plan(const ConditionalNetwork& net, std::size_t tile,
                          std::size_t workers) {
  if (tile == 0) {
    throw std::invalid_argument("BatchWorkspace::plan: tile must be > 0");
  }
  if (workers == 0) workers = 1;
  const Network& base = net.baseline();
  net_ = &net;
  tile_ = tile;
  workers_ = workers;
  baseline_layers_ = base.size();
  prefixes_.clear();
  precision_.clear();
  stages_.clear();

  const std::size_t classes =
      base.output_shape(net.input_shape()).numel();
  std::size_t max_feat = net.input_shape().numel();
  WorkspacePlanner planner;
  std::size_t prev = 0;
  Shape prev_shape = net.input_shape();
  for (std::size_t i = 0; i < net.num_stages(); ++i) {
    const std::size_t prefix = net.stage_prefix(i);
    StageExec e;
    // The BlockPlan is built even for int8 stages: the batch loop reads its
    // shape metadata (out_floats) and an fp32 replan stays warm after a
    // precision flip back.
    e.seg = base.plan_block_range(prev_shape, prev, prefix, tile, workers);
    prev_shape = base.output_shape_after(net.input_shape(), prefix);
    max_feat = std::max(max_feat, prev_shape.numel());
    // The segment scratch and the classifier's pack scratch never coexist
    // (segment output lands in the feature ping-pong first), so they share
    // one frame slot sized for the larger of the two.
    const QuantizedSegment* qseg = net.quantized_segment(i);
    planner.begin_frame();
    e.scratch = planner.reserve(
        qseg != nullptr
            ? std::max(qseg->scratch_floats(tile),
                       net.quantized_classifier(i)->scratch_floats(tile))
            : std::max(e.seg.scratch_floats(),
                       net.classifier(i).block_scratch_floats(tile)));
    e.probs = planner.reserve(tile * classes);
    planner.end_frame();
    prefixes_.push_back(prefix);
    precision_.push_back(static_cast<std::uint8_t>(net.stage_precision(i)));
    stages_.push_back(std::move(e));
    prev = prefix;
  }
  final_.seg = base.plan_block_range(prev_shape, prev, base.size(), tile,
                                     workers);
  const QuantizedSegment* final_qseg = net.quantized_segment(net.num_stages());
  planner.begin_frame();
  final_.scratch = planner.reserve(final_qseg != nullptr
                                       ? final_qseg->scratch_floats(tile)
                                       : final_.seg.scratch_floats());
  final_.probs = planner.reserve(tile * classes);
  planner.end_frame();
  precision_.push_back(
      static_cast<std::uint8_t>(net.stage_precision(net.num_stages())));

  feat_[0] = planner.reserve_persistent(max_feat * tile);
  feat_[1] = planner.reserve_persistent(max_feat * tile);
  active_.resize(tile);
  arena_.allocate(planner);
}

std::size_t BatchWorkspace::auto_tile(std::size_t count, std::size_t workers) {
  if (workers <= 1) return kDefaultTile;
  // kDefaultTile rows per worker keeps every stage-level parallel_for busy
  // for far longer than its fork/join barrier; the cap bounds arena memory
  // and a tile never exceeds the batch itself.
  const std::size_t threaded = std::min<std::size_t>(kDefaultTile * workers, 512);
  return std::max(kDefaultTile, std::min(threaded, std::max<std::size_t>(count, 1)));
}

bool BatchWorkspace::matches(const ConditionalNetwork& net,
                             std::size_t workers) const {
  if (net_ != &net || tile_ == 0 || workers > workers_) return false;
  if (baseline_layers_ != net.baseline().size()) return false;
  if (prefixes_.size() != net.num_stages()) return false;
  for (std::size_t i = 0; i < prefixes_.size(); ++i) {
    if (prefixes_[i] != net.stage_prefix(i)) return false;
  }
  // Precision flips replan: int8 and fp32 stages size their scratch slots
  // differently.
  if (precision_.size() != net.num_stages() + 1) return false;
  for (std::size_t i = 0; i < precision_.size(); ++i) {
    if (precision_[i] != static_cast<std::uint8_t>(net.stage_precision(i))) {
      return false;
    }
  }
  return true;
}

std::size_t ConditionalNetwork::attach_classifier(std::size_t prefix_layers,
                                                  LcTrainingRule rule,
                                                  Rng& rng) {
  if (prefix_layers == 0 || prefix_layers >= baseline_.size()) {
    throw std::invalid_argument(
        "attach_classifier: prefix must be in [1, layers-1], got " +
        std::to_string(prefix_layers));
  }
  for (const Stage& s : stages_) {
    if (s.prefix_layers == prefix_layers) {
      throw std::invalid_argument("attach_classifier: stage at prefix " +
                                  std::to_string(prefix_layers) +
                                  " already exists");
    }
  }
  const Shape feat = baseline_.output_shape_after(input_shape_, prefix_layers);
  LinearClassifier lc(feat.numel(), num_classes_, rule);
  lc.init(rng);

  const auto pos = std::find_if(
      stages_.begin(), stages_.end(),
      [&](const Stage& s) { return s.prefix_layers > prefix_layers; });
  const auto inserted =
      stages_.insert(pos, Stage{prefix_layers, std::move(lc), std::nullopt});
  const auto stage_index = static_cast<std::size_t>(inserted - stages_.begin());
  reset_precision_state();  // stage boundaries moved under the compiled execs
  rebuild_ops_cache();
  return stage_index;
}

void ConditionalNetwork::detach_classifier(std::size_t stage) {
  check_stage(stage);
  stages_.erase(stages_.begin() + static_cast<std::ptrdiff_t>(stage));
  reset_precision_state();
  rebuild_ops_cache();
}

void ConditionalNetwork::reset_precision_state() {
  quant_execs_.clear();
  stage_precision_.clear();
}

std::pair<std::size_t, std::size_t> ConditionalNetwork::stage_segment(
    std::size_t stage) const {
  const std::size_t begin = stage == 0 ? 0 : stages_[stage - 1].prefix_layers;
  const std::size_t end = stage == stages_.size()
                              ? baseline_.size()
                              : stages_[stage].prefix_layers;
  return {begin, end};
}

ConditionalNetwork::QuantExec ConditionalNetwork::build_quant_exec(
    std::size_t stage) const {
  QuantExec exec;
  const auto [begin, end] = stage_segment(stage);
  const Shape in_shape =
      begin == 0 ? input_shape_
                 : baseline_.output_shape_after(input_shape_, begin);
  exec.seg = QuantizedSegment::build(baseline_, in_shape, begin, end, quant_cal_);
  if (exec.seg == nullptr) return exec;
  if (stage < stages_.size()) {
    exec.classifier = QuantizedClassifier::build(
        stages_[stage].classifier, quant_cal_.amax[end], quant_cal_.vmin[end]);
    if (exec.classifier == nullptr) exec.seg.reset();
  }
  return exec;
}

void ConditionalNetwork::set_quantization(QuantCalibration cal) {
  if (cal.vmin.size() != cal.amax.size()) {
    throw std::invalid_argument(
        "set_quantization: amax/vmin length mismatch");
  }
  if (!cal.empty() && cal.boundaries() != baseline_.size() + 1) {
    throw std::invalid_argument(
        "set_quantization: calibration has " +
        std::to_string(cal.boundaries()) + " boundaries, baseline needs " +
        std::to_string(baseline_.size() + 1));
  }
  quant_cal_ = std::move(cal);
  reset_precision_state();
}

void ConditionalNetwork::set_stage_precision(std::size_t stage,
                                             StagePrecision precision) {
  if (stage > stages_.size()) {
    throw std::out_of_range("set_stage_precision: stage " +
                            std::to_string(stage) + " of " +
                            std::to_string(stages_.size() + 1));
  }
  stage_precision_.resize(stages_.size() + 1, StagePrecision::kFp32);
  quant_execs_.resize(stages_.size() + 1);
  if (precision == StagePrecision::kInt8) {
    if (quant_cal_.empty()) {
      throw std::logic_error(
          "set_stage_precision: no calibration installed; call "
          "set_quantization first");
    }
    QuantExec exec = build_quant_exec(stage);
    if (exec.seg == nullptr) {
      throw std::invalid_argument("set_stage_precision: stage " +
                                  stage_name(stage) + " is not quantizable");
    }
    quant_execs_[stage] = std::move(exec);
  } else {
    quant_execs_[stage] = QuantExec{};
  }
  stage_precision_[stage] = precision;
}

StagePrecision ConditionalNetwork::stage_precision(std::size_t stage) const {
  if (stage > stages_.size()) {
    throw std::out_of_range("stage_precision: stage " + std::to_string(stage) +
                            " of " + std::to_string(stages_.size() + 1));
  }
  return stage < stage_precision_.size() ? stage_precision_[stage]
                                         : StagePrecision::kFp32;
}

bool ConditionalNetwork::stage_quantizable(std::size_t stage) const {
  if (stage > stages_.size() || quant_cal_.empty()) return false;
  return build_quant_exec(stage).seg != nullptr;
}

void ConditionalNetwork::set_cascade_precision(StagePrecision precision) {
  for (std::size_t s = 0; s <= stages_.size(); ++s) {
    set_stage_precision(s, precision);
  }
}

const QuantizedSegment* ConditionalNetwork::quantized_segment(
    std::size_t stage) const {
  return stage < quant_execs_.size() ? quant_execs_[stage].seg.get() : nullptr;
}

const QuantizedClassifier* ConditionalNetwork::quantized_classifier(
    std::size_t stage) const {
  return stage < quant_execs_.size() ? quant_execs_[stage].classifier.get()
                                     : nullptr;
}

void ConditionalNetwork::check_stage(std::size_t stage) const {
  if (stage >= stages_.size()) {
    throw std::out_of_range("ConditionalNetwork: stage " +
                            std::to_string(stage) + " of " +
                            std::to_string(stages_.size()));
  }
}

LinearClassifier& ConditionalNetwork::classifier(std::size_t stage) {
  check_stage(stage);
  return stages_[stage].classifier;
}

const LinearClassifier& ConditionalNetwork::classifier(std::size_t stage) const {
  check_stage(stage);
  return stages_[stage].classifier;
}

std::size_t ConditionalNetwork::stage_prefix(std::size_t stage) const {
  check_stage(stage);
  return stages_[stage].prefix_layers;
}

std::string ConditionalNetwork::stage_name(std::size_t stage) const {
  if (stage == stages_.size()) return "FC";
  check_stage(stage);
  std::string name = std::to_string(stage + 1);
  name.insert(name.begin(), 'O');
  return name;
}

void ConditionalNetwork::set_delta(float delta) {
  activation_.set_delta(delta);
  for (Stage& s : stages_) s.delta_override.reset();
}

void ConditionalNetwork::set_policy(ConfidencePolicy policy) {
  activation_ = ActivationModule(activation_.delta(), policy);
  rebuild_ops_cache();  // decision ops depend on the policy
}

void ConditionalNetwork::set_stage_delta(std::size_t stage, float delta) {
  check_stage(stage);
  if (delta < 0.0F) {
    throw std::invalid_argument("set_stage_delta: delta must be >= 0");
  }
  stages_[stage].delta_override = delta;
}

float ConditionalNetwork::stage_delta(std::size_t stage) const {
  check_stage(stage);
  return stages_[stage].delta_override.value_or(activation_.delta());
}

ClassificationResult ConditionalNetwork::classify(const Tensor& input) const {
  if (input.shape() != input_shape_) {
    throw std::invalid_argument("classify: input shape " +
                                input.shape().to_string() + " != " +
                                input_shape_.to_string());
  }
  CDL_TRACE_SPAN(classify_span, "classify", -1);
  const bool profiling = obs::LayerProfiler::enabled();
  ClassificationResult result;
  Tensor x = input;
  std::size_t done_layers = 0;
  // Single-image scratch for int8 stages; thread_local keeps classify()
  // safe to call concurrently (resize is a no-op once warm).
  thread_local std::vector<float> qscratch;

  for (std::size_t s = 0; s < stages_.size(); ++s) {
    CDL_TRACE_SPAN(stage_span, "stage", static_cast<std::int32_t>(s));
    const obs::LayerProfiler::StageScope prof_scope(
        static_cast<std::int32_t>(s));
    const Stage& stage = stages_[s];
    const QuantizedSegment* qseg = quantized_segment(s);
    const QuantizedClassifier* qlc = quantized_classifier(s);
    if (qseg != nullptr) {
      qscratch.resize(
          std::max(qseg->scratch_floats(1), qlc->scratch_floats(1)));
      Tensor out(baseline_.output_shape_after(input_shape_, stage.prefix_layers));
      qseg->infer_block(x.data(), out.data(), 1, qscratch.data(), nullptr);
      x = std::move(out);
    } else {
      x = baseline_.infer_range(x, done_layers, stage.prefix_layers);
    }
    done_layers = stage.prefix_layers;
    result.ops += stage_ops(s);

    const std::uint64_t prof_t0 = profiling ? obs::now_ns() : 0;
    Tensor probs;
    if (qlc != nullptr) {
      probs.resize(classes_shape_);
      qlc->probabilities_block(x.data(), 1, probs.data(), qscratch.data(),
                               nullptr);
    } else {
      probs = stage.classifier.probabilities(x);
    }
    const ActivationModule gate(stage.delta_override.value_or(activation_.delta()),
                                activation_.policy());
    const ActivationDecision decision = gate.evaluate(probs);
    if (profiling) {
      OpCount gate_ops = stage.classifier.forward_ops();
      gate_ops += activation_.decision_ops(num_classes_);
      obs::LayerProfiler::instance().record(
          static_cast<std::int32_t>(s), obs::kStageLevel,
          qlc != nullptr ? "classifier+gate[int8]" : "classifier+gate", 1, 1,
          gate_ops, obs::now_ns() - prof_t0);
    }
    if (decision.terminate) {
      result.label = decision.label;
      result.exit_stage = s;
      result.confidence = decision.confidence;
      result.probabilities = probs;
      CDL_TRACE_INSTANT("exit", static_cast<std::int32_t>(s));
      return result;
    }
  }

  // Hardest path: run the remaining baseline layers and take the FC output.
  CDL_TRACE_SPAN(fc_span, "stage", static_cast<std::int32_t>(stages_.size()));
  const obs::LayerProfiler::StageScope prof_scope(
      static_cast<std::int32_t>(stages_.size()));
  const QuantizedSegment* final_qseg = quantized_segment(stages_.size());
  if (final_qseg != nullptr) {
    qscratch.resize(final_qseg->scratch_floats(1));
    Tensor out(classes_shape_);
    final_qseg->infer_block(x.data(), out.data(), 1, qscratch.data(), nullptr);
    x = std::move(out);
  } else {
    x = baseline_.infer_range(x, done_layers, baseline_.size());
  }
  result.ops += final_stage_ops();
  const std::uint64_t prof_t0 = profiling ? obs::now_ns() : 0;
  const Tensor probs = softmax(x);
  result.label = probs.argmax();
  result.exit_stage = stages_.size();
  result.confidence = max_probability(probs);
  result.probabilities = probs;
  if (profiling) {
    OpCount fc_ops = softmax_ops(num_classes_);
    fc_ops.compares += num_classes_ - 1;  // argmax scan
    obs::LayerProfiler::instance().record(
        static_cast<std::int32_t>(stages_.size()), obs::kStageLevel,
        "softmax+argmax", 1, 1, fc_ops, obs::now_ns() - prof_t0);
  }
  CDL_TRACE_INSTANT("exit", static_cast<std::int32_t>(stages_.size()));
  return result;
}

ClassificationResult ConditionalNetwork::classify_baseline(
    const Tensor& input) const {
  const bool profiling = obs::LayerProfiler::enabled();
  ClassificationResult result;
  const Tensor logits = baseline_.infer(input);
  const std::uint64_t prof_t0 = profiling ? obs::now_ns() : 0;
  const Tensor probs = softmax(logits);
  if (profiling) {
    // classify_baseline's accounting adds softmax only (no argmax compares),
    // so the attribution row mirrors that to keep the sums exact.
    obs::LayerProfiler::instance().record(
        obs::kNoStage, obs::kStageLevel, "softmax", 1, 1,
        softmax_ops(num_classes_), obs::now_ns() - prof_t0);
  }
  result.label = probs.argmax();
  result.exit_stage = stages_.size();
  result.confidence = max_probability(probs);
  result.probabilities = probs;
  result.ops = baseline_forward_ops();
  result.ops += softmax_ops(num_classes_);
  return result;
}

std::vector<ClassificationResult> ConditionalNetwork::classify_batch(
    const std::vector<Tensor>& inputs, ThreadPool* pool) const {
  CDL_TRACE_SPAN(batch_span, "classify_batch",
                 static_cast<std::int32_t>(inputs.size()));
  std::vector<ClassificationResult> results;
  BatchWorkspace ws;
  classify_batch_into(inputs, results, ws, pool);
  return results;
}

void ConditionalNetwork::store_probabilities(Tensor& dst,
                                             const float* row) const {
  if (dst.shape() != classes_shape_) dst.resize(Shape{num_classes_});
  std::memcpy(dst.data(), row, num_classes_ * sizeof(float));
}

void ConditionalNetwork::classify_batch_into(
    const std::vector<Tensor>& inputs,
    std::vector<ClassificationResult>& results, BatchWorkspace& ws,
    ThreadPool* pool) const {
  run_batch(inputs, results, ws, pool, nullptr);
}

StageRecording ConditionalNetwork::record_stages(
    const std::vector<Tensor>& inputs) const {
  StageRecording rec;
  rec.count = inputs.size();
  rec.classes = num_classes_;
  rec.probs.resize(stages_.size() * inputs.size() * num_classes_);
  std::vector<ClassificationResult> results;
  BatchWorkspace ws;
  run_batch(inputs, results, ws, nullptr, &rec);
  rec.final_label.reserve(results.size());
  for (const ClassificationResult& r : results) {
    rec.final_label.push_back(r.label);
  }
  return rec;
}

void ConditionalNetwork::run_batch(const std::vector<Tensor>& inputs,
                                   std::vector<ClassificationResult>& results,
                                   BatchWorkspace& ws, ThreadPool* pool,
                                   StageRecording* record) const {
  for (const Tensor& t : inputs) {
    if (t.shape() != input_shape_) {
      throw std::invalid_argument("classify_batch_into: input shape " +
                                  t.shape().to_string() + " != " +
                                  input_shape_.to_string());
    }
  }
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  if (!ws.matches(*this, workers)) {
    ws.plan(*this, BatchWorkspace::auto_tile(inputs.size(), workers), workers);
  }
  results.resize(inputs.size());
  if (inputs.empty()) return;
  CDL_TRACE_SPAN(batch_span, "classify_batch_staged",
                 static_cast<std::int32_t>(inputs.size()));

  const bool profiling = obs::LayerProfiler::enabled();
  const std::size_t tile = ws.tile_;
  const std::size_t in_floats = input_shape_.numel();
  float* const feat[2] = {ws.arena_.data(ws.feat_[0]),
                          ws.arena_.data(ws.feat_[1])};

  for (std::size_t t0 = 0; t0 < inputs.size(); t0 += tile) {
    const std::size_t n = std::min(tile, inputs.size() - t0);
    float* cur = feat[0];
    std::size_t cur_buf = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(cur + i * in_floats, inputs[t0 + i].data(),
                  in_floats * sizeof(float));
      ws.active_[i] = static_cast<std::uint32_t>(t0 + i);
    }
    std::size_t live = n;

    for (std::size_t s = 0; s < stages_.size() && live > 0; ++s) {
      CDL_TRACE_SPAN(stage_span, "batch_stage", static_cast<std::int32_t>(s));
      const obs::LayerProfiler::StageScope prof_scope(
          static_cast<std::int32_t>(s));
      const BatchWorkspace::StageExec& ex = ws.stages_[s];
      ThreadPool* const seg_pool = gate_pool(pool, live);
      float* nxt = feat[1 - cur_buf];
      float* scratch = ws.arena_.data(ex.scratch);
      const QuantizedSegment* qseg = quantized_segment(s);
      if (qseg != nullptr) {
        qseg->infer_block(cur, nxt, live, scratch, seg_pool);
      } else {
        baseline_.infer_block_range(ex.seg, cur, nxt, live, scratch, seg_pool);
      }
      cur_buf = 1 - cur_buf;
      cur = nxt;
      const std::size_t feat_floats = ex.seg.out_floats;
      const std::size_t entering = live;
      const std::uint64_t prof_t0 = profiling ? obs::now_ns() : 0;

      float* probs = ws.arena_.data(ex.probs);
      const QuantizedClassifier* qlc = quantized_classifier(s);
      if (qlc != nullptr) {
        qlc->probabilities_block(cur, live, probs, scratch, seg_pool);
      } else {
        stages_[s].classifier.probabilities_block(cur, live, probs, scratch,
                                                  seg_pool);
      }

      if (record != nullptr) {
        // Exits disabled: every row of the tile survives, in input order.
        std::memcpy(
            record->probs.data() + (s * record->count + t0) * num_classes_,
            probs, live * num_classes_ * sizeof(float));
      } else {
        const ActivationModule gate(
            stages_[s].delta_override.value_or(activation_.delta()),
            activation_.policy());
        // Per-row decisions in original order; exited rows scatter results
        // to their original batch index, survivors compact downward in
        // place (dst <= src, so row-by-row copies never overlap a pending
        // row).
        std::size_t kept = 0;
        for (std::size_t r = 0; r < live; ++r) {
          const float* row = probs + r * num_classes_;
          const ActivationDecision decision = gate.evaluate(row, num_classes_);
          if (decision.terminate) {
            ClassificationResult& res = results[ws.active_[r]];
            res.label = decision.label;
            res.exit_stage = s;
            res.confidence = decision.confidence;
            res.ops = exit_ops(s);
            store_probabilities(res.probabilities, row);
          } else {
            if (kept != r) {
              std::memcpy(cur + kept * feat_floats, cur + r * feat_floats,
                          feat_floats * sizeof(float));
              ws.active_[kept] = ws.active_[r];
            }
            ++kept;
          }
        }
        live = kept;
      }
      if (profiling) {
        OpCount gate_ops = stages_[s].classifier.forward_ops();
        gate_ops += activation_.decision_ops(num_classes_);
        obs::LayerProfiler::instance().record(
            static_cast<std::int32_t>(s), obs::kStageLevel,
            qlc != nullptr ? "classifier+gate[int8]" : "classifier+gate", 1,
            entering, gate_ops * entering, obs::now_ns() - prof_t0);
      }
      CDL_TRACE_INSTANT("batch_survivors", static_cast<std::int32_t>(live));
    }

    if (live == 0) continue;
    // FC fallthrough for rows no stage resolved.
    CDL_TRACE_SPAN(fc_span, "batch_stage",
                   static_cast<std::int32_t>(stages_.size()));
    const obs::LayerProfiler::StageScope prof_scope(
        static_cast<std::int32_t>(stages_.size()));
    const BatchWorkspace::StageExec& ex = ws.final_;
    float* logits = ws.arena_.data(ex.probs);
    const QuantizedSegment* final_qseg = quantized_segment(stages_.size());
    if (final_qseg != nullptr) {
      final_qseg->infer_block(cur, logits, live, ws.arena_.data(ex.scratch),
                              gate_pool(pool, live));
    } else {
      baseline_.infer_block_range(ex.seg, cur, logits, live,
                                  ws.arena_.data(ex.scratch),
                                  gate_pool(pool, live));
    }
    const std::uint64_t prof_t0 = profiling ? obs::now_ns() : 0;
    for (std::size_t r = 0; r < live; ++r) {
      float* row = logits + r * num_classes_;
      softmax_into(row, row, num_classes_);
      ClassificationResult& res = results[ws.active_[r]];
      res.label = static_cast<std::size_t>(
          std::max_element(row, row + num_classes_) - row);
      res.exit_stage = stages_.size();
      res.confidence = max_probability(row, num_classes_);
      res.ops = exit_ops(stages_.size());
      store_probabilities(res.probabilities, row);
    }
    if (profiling) {
      OpCount fc_ops = softmax_ops(num_classes_);
      fc_ops.compares += num_classes_ - 1;  // argmax scan
      obs::LayerProfiler::instance().record(
          static_cast<std::int32_t>(stages_.size()), obs::kStageLevel,
          "softmax+argmax", 1, live, fc_ops * live, obs::now_ns() - prof_t0);
    }
  }
}

Tensor ConditionalNetwork::stage_features(const Tensor& input,
                                          std::size_t stage) const {
  check_stage(stage);
  return baseline_.infer_range(input, 0, stages_[stage].prefix_layers);
}

OpCount ConditionalNetwork::segment_ops(std::size_t from_layer,
                                        std::size_t to_layer) const {
  const std::vector<OpCount> per_layer = baseline_.layer_ops(input_shape_);
  OpCount total;
  for (std::size_t i = from_layer; i < to_layer; ++i) total += per_layer[i];
  return total;
}

OpCount ConditionalNetwork::baseline_forward_ops() const {
  return baseline_.forward_ops(input_shape_);
}

OpCount ConditionalNetwork::stage_ops(std::size_t stage) const {
  check_stage(stage);
  return stage_ops_cache_[stage];
}

OpCount ConditionalNetwork::final_stage_ops() const {
  return final_stage_ops_cache_;
}

void ConditionalNetwork::rebuild_ops_cache() {
  stage_ops_cache_.clear();
  stage_ops_cache_.reserve(stages_.size());
  for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
    const std::size_t prev =
        stage == 0 ? 0 : stages_[stage - 1].prefix_layers;
    OpCount ops = segment_ops(prev, stages_[stage].prefix_layers);
    ops += stages_[stage].classifier.forward_ops();
    ops += activation_.decision_ops(num_classes_);
    stage_ops_cache_.push_back(ops);
  }
  const std::size_t prev = stages_.empty() ? 0 : stages_.back().prefix_layers;
  OpCount ops = segment_ops(prev, baseline_.size());
  ops += softmax_ops(num_classes_);
  OpCount argmax_scan;
  argmax_scan.compares = num_classes_ - 1;
  ops += argmax_scan;
  final_stage_ops_cache_ = ops;
}

OpCount ConditionalNetwork::worst_case_ops() const {
  return exit_ops(stages_.size());
}

OpCount ConditionalNetwork::exit_ops(std::size_t stage) const {
  if (stage > stages_.size()) {
    throw std::out_of_range("exit_ops: stage " + std::to_string(stage));
  }
  OpCount ops;
  for (std::size_t s = 0; s < std::min(stage + 1, stages_.size()); ++s) {
    ops += stage_ops(s);
  }
  if (stage == stages_.size()) ops += final_stage_ops();
  return ops;
}

std::vector<double> ConditionalNetwork::exit_energy_table(
    const obs::EnergyMeter& meter) const {
  std::vector<obs::PrecisionOps> mix;
  mix.reserve(stages_.size() + 1);
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    obs::PrecisionOps po;
    if (stage_precision(s) == StagePrecision::kInt8) {
      po.int8 = stage_ops(s);
    } else {
      po.fp32 = stage_ops(s);
    }
    mix.push_back(po);
  }
  // Final stage: a quantized final segment runs int8, but softmax+argmax is
  // always evaluated in fp32 — the same precision split the profiler rows
  // carry, so live attribution and this table agree bit-exactly.
  obs::PrecisionOps fin;
  if (stage_precision(stages_.size()) == StagePrecision::kInt8) {
    OpCount fc = softmax_ops(num_classes_);
    fc.compares += num_classes_ - 1;  // argmax scan
    const std::size_t prev = stages_.empty() ? 0 : stages_.back().prefix_layers;
    fin.int8 = segment_ops(prev, baseline_.size());
    fin.fp32 = fc;
  } else {
    fin.fp32 = final_stage_ops();
  }
  mix.push_back(fin);
  return meter.exit_energy_table(mix);
}

std::vector<Tensor*> ConditionalNetwork::all_parameters() {
  std::vector<Tensor*> params = baseline_.parameters();
  for (Stage& s : stages_) {
    for (Tensor* p : s.classifier.parameters()) params.push_back(p);
  }
  return params;
}

void ConditionalNetwork::save(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("ConditionalNetwork::save: cannot open " + path);
  save_parameters(os, all_parameters());
}

void ConditionalNetwork::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("ConditionalNetwork::load: cannot open " + path);
  load_parameters(is, all_parameters());
  reset_precision_state();  // packed int8 parameters derive from the weights
}

}  // namespace cdl
