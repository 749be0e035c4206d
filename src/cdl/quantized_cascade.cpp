#include "cdl/quantized_cascade.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/thread_pool.h"
#include "core/workspace.h"
#include "nn/act_kernels.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool2d.h"
#include "nn/qconv_direct.h"
#include "nn/qgemm.h"
#include "nn/quantize.h"
#include "nn/softmax.h"
#include "obs/layer_profile.h"
#include "obs/trace.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace cdl {

namespace {

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Bytes -> floats for carving byte buffers out of a float arena, padded to
/// the workspace alignment quantum.
std::size_t bytes_as_floats(std::size_t bytes) {
  return align_floats(ceil_div(bytes, sizeof(float)));
}

/// s32 analogue of Pool2D::pool_image for the interleaved GEMM output:
/// channel ch's plane starts at `in + ch * channel_stride`. Max pooling on
/// the integer accumulators commutes exactly with the positive-slope
/// dequantization applied afterwards; window 1 is the identity.
/// One 2x2-pooled output row from input rows r0/r1: vertical then horizontal
/// pairwise max. Integer max is exact, so the vector lane below is
/// bit-identical to this scalar rule by construction.
void pool2_row_s32_scalar(const std::int32_t* r0, const std::int32_t* r1,
                          std::size_t ow, std::int32_t* out) {
  for (std::size_t ox = 0; ox < ow; ++ox) {
    const std::int32_t v0 = std::max(r0[2 * ox], r1[2 * ox]);
    const std::int32_t v1 = std::max(r0[2 * ox + 1], r1[2 * ox + 1]);
    out[ox] = std::max(v0, v1);
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("avx2"))) void pool2_row_s32_avx2(const std::int32_t* r0,
                                                        const std::int32_t* r1,
                                                        std::size_t ow,
                                                        std::int32_t* out) {
  std::size_t ox = 0;
  for (; ox + 4 <= ow; ox += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + 2 * ox));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + 2 * ox));
    const __m256i v = _mm256_max_epi32(a, b);
    // Pairwise horizontal max: swap pair elements, max, compact even lanes.
    const __m256i sw = _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1));
    const __m256i m = _mm256_max_epi32(v, sw);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        m, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + ox),
                     _mm256_castsi256_si128(packed));
  }
  pool2_row_s32_scalar(r0 + 2 * ox, r1 + 2 * ox, ow - ox, out + ox);
}
#endif

using Pool2RowFn = void (*)(const std::int32_t*, const std::int32_t*,
                            std::size_t, std::int32_t*);

Pool2RowFn select_pool2_row() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return pool2_row_s32_avx2;
#endif
  return pool2_row_s32_scalar;
}

void pool_image_s32(const std::int32_t* in, std::size_t channel_stride,
                    std::size_t c, std::size_t h, std::size_t w,
                    std::size_t window, std::int32_t* out) {
  const std::size_t oh = h / window;
  const std::size_t ow = w / window;
  if (window == 1) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      std::memcpy(out + ch * h * w, in + ch * channel_stride,
                  h * w * sizeof(std::int32_t));
    }
    return;
  }
  if (window == 2) {
    static const Pool2RowFn pool2_row = select_pool2_row();
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::int32_t* plane = in + ch * channel_stride;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        pool2_row(plane + 2 * oy * w, plane + (2 * oy + 1) * w, ow, out);
        out += ow;
      }
    }
    return;
  }
  for (std::size_t ch = 0; ch < c; ++ch) {
    const std::int32_t* plane = in + ch * channel_stride;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        std::int32_t best = std::numeric_limits<std::int32_t>::min();
        for (std::size_t wy = 0; wy < window; ++wy) {
          const std::int32_t* row = plane + (oy * window + wy) * w;
          for (std::size_t wx = 0; wx < window; ++wx) {
            best = std::max(best, row[ox * window + wx]);
          }
        }
        *out++ = best;
      }
    }
  }
}

/// Dequantize one pooled image (fmaf per element, per-channel slope and
/// bias) and apply `act`. Known activations take the fused nn/act_kernels
/// plane route instead (vectorized, lanes bit-identical to this rule); this
/// template serves only the kGeneric fallback, where inlining the caller's
/// lambda still beats a virtual call per element.
template <typename StepT, typename Fn>
void dequant_activate(const std::int32_t* pooled, const StepT& st,
                      std::size_t plane, float* dst, Fn&& act) {
  std::size_t idx = 0;
  for (std::size_t c = 0; c < st.out_c; ++c) {
    const float mult = st.mult[c];
    const float bias = st.bias[c];
    for (std::size_t p = 0; p < plane; ++p, ++idx) {
      dst[idx] =
          act(std::fmaf(static_cast<float>(pooled[idx]), mult, bias));
    }
  }
}

/// Per-channel fused dequantize + activate via the nn/act_kernels plane
/// kernels. Each channel's plane shares one (mult, bias), matching the
/// template above element for element.
using DequantPlaneFn = void (*)(const std::int32_t*, std::size_t, float,
                                float, float*);
template <typename StepT>
void dequant_activate_planes(const std::int32_t* pooled, const StepT& st,
                             std::size_t plane, float* dst,
                             DequantPlaneFn fn) {
  for (std::size_t c = 0; c < st.out_c; ++c) {
    fn(pooled + c * plane, plane, st.mult[c], st.bias[c], dst + c * plane);
  }
}

/// True when the boundary's calibrated range supports zero-point-0 u8.
bool boundary_quantizable(const QuantCalibration& cal, std::size_t b) {
  if (b >= cal.boundaries()) return false;
  const float amax = cal.amax[b];
  const float vmin = cal.vmin[b];
  return std::isfinite(amax) && amax > 0.0F && std::isfinite(vmin) &&
         vmin >= 0.0F;
}

/// Quantizes and packs a row-major (out_ch, k) weight matrix, returning the
/// per-channel dequant multipliers (in_scale * w_scale) and the packed-A
/// operand. When `raw` is non-null it also keeps the unpacked (out_ch, k)
/// s8 matrix for the direct-conv route (same quantization, so both routes
/// multiply identical integers).
void build_quantized_weights(const float* w, std::size_t out_ch,
                             std::size_t k, float in_scale,
                             std::vector<std::int8_t>& packed,
                             std::vector<float>& mult,
                             std::vector<std::int8_t>* raw = nullptr) {
  std::vector<std::int8_t> q(out_ch * k);
  const std::vector<float> scales = quantize_weights_s8(w, out_ch, k,
                                                        q.data());
  packed.resize(qgemm_packed_a_bytes(out_ch, k));
  qgemm_pack_a(out_ch, k, q.data(), packed.data());
  mult.resize(out_ch);
  for (std::size_t oc = 0; oc < out_ch; ++oc) mult[oc] = in_scale * scales[oc];
  if (raw != nullptr) *raw = std::move(q);
}

}  // namespace

QuantCalibration collect_quant_calibration(const Network& baseline,
                                           const Shape& input_shape,
                                           const std::vector<Tensor>& images,
                                           std::size_t n, ThreadPool* pool) {
  const std::size_t layers = baseline.size();
  const std::size_t boundaries = layers + 1;
  const std::size_t total = std::min(n, images.size());
  if (total == 0) {
    throw std::invalid_argument("collect_quant_calibration: no images");
  }
  for (std::size_t i = 0; i < total; ++i) {
    if (!(images[i].shape() == input_shape)) {
      throw std::invalid_argument(
          "collect_quant_calibration: image shape mismatch");
    }
  }

  struct Acc {
    std::vector<float> amax;
    std::vector<float> vmin;
  };
  const auto scan = [&](Acc& acc, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      Tensor x = images[i];
      for (std::size_t l = 0; l <= layers; ++l) {
        for (const float v : x.values()) {
          acc.amax[l] = std::max(acc.amax[l], v);
          acc.vmin[l] = std::min(acc.vmin[l], v);
        }
        if (l < layers) x = baseline.infer_range(x, l, l + 1);
      }
    }
  };
  const Acc init{
      std::vector<float>(boundaries, -std::numeric_limits<float>::infinity()),
      std::vector<float>(boundaries, std::numeric_limits<float>::infinity())};

  Acc merged = init;
  if (pool != nullptr && pool->size() > 1) {
    // Per-worker accumulators; max/min merging is order-independent, so the
    // result is identical to the serial scan for any worker count.
    std::vector<Acc> per_worker(pool->size(), init);
    pool->parallel_for(0, total,
                       [&](std::size_t worker, std::size_t b, std::size_t e) {
                         scan(per_worker[worker], b, e);
                       });
    for (const Acc& acc : per_worker) {
      for (std::size_t l = 0; l < boundaries; ++l) {
        merged.amax[l] = std::max(merged.amax[l], acc.amax[l]);
        merged.vmin[l] = std::min(merged.vmin[l], acc.vmin[l]);
      }
    }
  } else {
    scan(merged, 0, total);
  }

  QuantCalibration cal;
  cal.amax = std::move(merged.amax);
  cal.vmin = std::move(merged.vmin);
  return cal;
}

std::unique_ptr<QuantizedSegment> QuantizedSegment::build(
    const Network& net, const Shape& in_shape, std::size_t begin,
    std::size_t end, const QuantCalibration& cal) {
  if (begin >= end || end > net.size()) return nullptr;
  if (cal.boundaries() < end) return nullptr;
  const BlockPlan plan = net.plan_block_range(in_shape, begin, end, 1, 1);
  if (plan.steps.empty()) return nullptr;

  auto seg = std::make_unique<QuantizedSegment>();
  seg->begin_ = begin;
  seg->end_ = end;
  seg->in_floats_ = plan.in_floats;
  seg->out_floats_ = plan.out_floats;

  const std::size_t last = plan.steps.size() - 1;
  for (std::size_t s = 0; s < plan.steps.size(); ++s) {
    const BlockStep& bs = plan.steps[s];
    if (!boundary_quantizable(cal, bs.first)) return nullptr;
    const float in_scale = activation_quant_scale(cal.amax[bs.first]);

    Step step;
    step.first = bs.first;
    step.span = bs.span;
    step.name = bs.name + "[int8]";
    step.op_count = bs.op_count;
    step.ops = bs.ops;
    step.in_numel = bs.in_shape.numel();
    step.out_numel = bs.out_shape.numel();
    step.in_inv_scale = 1.0F / in_scale;
    if (s < last) {
      const std::size_t out_boundary = bs.first + bs.span;
      if (!boundary_quantizable(cal, out_boundary)) return nullptr;
      step.out_inv_scale =
          1.0F / activation_quant_scale(cal.amax[out_boundary]);
    }

    if (bs.span == 3) {
      const auto* conv = dynamic_cast<const Conv2D*>(&net.layer(bs.first));
      const auto* act =
          dynamic_cast<const ElementwiseActivation*>(&net.layer(bs.first + 1));
      const auto* pl = dynamic_cast<const Pool2D*>(&net.layer(bs.first + 2));
      if (conv == nullptr || act == nullptr || pl == nullptr) return nullptr;
      // The byte im2col packer supports the paper's valid stride-1 shape
      // only, and s32-domain pooling needs max (or the window-1 identity).
      if (conv->geometry().padding != 0 || conv->geometry().stride != 1) {
        return nullptr;
      }
      if (pl->mode() != PoolMode::kMax && pl->window() != 1) return nullptr;
      if (!act->monotone_nondecreasing()) return nullptr;
      step.kind = Step::Kind::kConvTriple;
      step.in_c = bs.in_shape[0];
      step.in_h = bs.in_shape[1];
      step.in_w = bs.in_shape[2];
      step.kernel = conv->kernel();
      step.out_c = bs.conv_out[0];
      step.conv_oh = bs.conv_out[1];
      step.conv_ow = bs.conv_out[2];
      step.pool_window = pl->window();
      step.out_h = bs.out_shape[1];
      step.out_w = bs.out_shape[2];
      step.act = act;
      if (dynamic_cast<const Sigmoid*>(act) != nullptr) {
        step.act_kind = Step::Act::kSigmoid;
      } else if (dynamic_cast<const Tanh*>(act) != nullptr) {
        step.act_kind = Step::Act::kTanh;
      } else if (dynamic_cast<const ReLU*>(act) != nullptr) {
        step.act_kind = Step::Act::kRelu;
      }
      const std::size_t k = step.in_c * step.kernel * step.kernel;
      step.direct =
          qconv_direct_supported(step.in_c, step.kernel, step.conv_ow) &&
          qconv_direct_profitable(k);
      build_quantized_weights(conv->weights().data(), step.out_c, k, in_scale,
                              step.packed_w, step.mult,
                              step.direct ? &step.raw_w : nullptr);
      step.bias.assign(conv->bias().data(),
                       conv->bias().data() + conv->bias().numel());
    } else if (bs.span == 1 && s == last) {
      const auto* dense = dynamic_cast<const Dense*>(&net.layer(bs.first));
      if (dense == nullptr) return nullptr;
      step.kind = Step::Kind::kDense;
      step.in_features = dense->in_features();
      step.out_c = dense->out_features();
      build_quantized_weights(dense->weights().data(), step.out_c,
                              step.in_features, in_scale, step.packed_w,
                              step.mult);
      step.bias.assign(dense->bias().data(),
                       dense->bias().data() + dense->bias().numel());
    } else {
      return nullptr;
    }
    seg->steps_.push_back(std::move(step));
  }

  // Scratch region extents (per planned sample; resolved per call count).
  for (const Step& step : seg->steps_) {
    seg->max_u8_floats_ =
        std::max(seg->max_u8_floats_, std::max(step.in_numel, step.out_numel));
    if (step.kind == Step::Kind::kConvTriple) {
      const std::size_t k = step.in_c * step.kernel * step.kernel;
      const std::size_t pixels = step.conv_oh * step.conv_ow;
      seg->max_pb_floats_ = std::max(seg->max_pb_floats_, k * pixels);
      seg->max_raw_floats_ = std::max(seg->max_raw_floats_,
                                      step.out_c * pixels);
      seg->max_pool_floats_ = std::max(seg->max_pool_floats_, step.out_numel);
    } else {
      seg->max_pb_floats_ = std::max(seg->max_pb_floats_, step.in_features);
      seg->max_raw_floats_ = std::max(seg->max_raw_floats_, step.out_c);
    }
  }
  return seg;
}

std::size_t QuantizedSegment::scratch_floats(std::size_t count) const {
  // Two u8 ping/pong buffers, the packed-B panels, the s32 GEMM output and
  // the s32 pooled block. Region extents are conservative per-sample maxima
  // (the per-step packed-B bound k * n_cols is >= the exact panel-padded
  // size only after the per-count rounding below, so compute exactly here).
  std::size_t pb_bytes = 0;
  std::size_t raw_elems = 0;
  std::size_t pool_elems = 0;
  std::size_t stage_elems = 0;
  for (const Step& step : steps_) {
    if (step.kind == Step::Kind::kConvTriple) {
      const std::size_t k = step.in_c * step.kernel * step.kernel;
      const std::size_t pixels = step.conv_oh * step.conv_ow;
      // Conv triples run fused per image: one packed-B panel block and one
      // s32 accumulator slice per worker, count slices worst-case.
      pb_bytes = std::max(pb_bytes, count * qgemm_packed_b_bytes(k, pixels));
      raw_elems = std::max(raw_elems, count * step.out_c * pixels);
      pool_elems = std::max(pool_elems, count * step.out_numel);
      if (step.out_inv_scale > 0.0F) {
        stage_elems = std::max(stage_elems, count * step.out_numel);
      }
    } else {
      pb_bytes = std::max(pb_bytes,
                          qgemm_packed_b_bytes(step.in_features, count));
      raw_elems = std::max(raw_elems, step.out_c * count);
    }
  }
  // Each u8 buffer carries kQconvSlackBytes of readable slack for the
  // direct-conv kernel's tail-block pair loads.
  return 2 * bytes_as_floats(count * max_u8_floats_ + kQconvSlackBytes) +
         bytes_as_floats(pb_bytes) + align_floats(raw_elems) +
         align_floats(pool_elems) + align_floats(stage_elems);
}

void QuantizedSegment::run_conv_triple(const Step& step,
                                       const std::uint8_t* in_u8,
                                       std::uint8_t* out_u8, float* out_f32,
                                       std::size_t count, std::uint8_t* pb,
                                       std::int32_t* raw, std::int32_t* pooled,
                                       float* stage, ThreadPool* pool) const {
  const std::size_t pixels = step.conv_oh * step.conv_ow;
  const std::size_t k = step.in_c * step.kernel * step.kernel;
  const bool threaded = pool != nullptr && pool->size() > 1;

  // The whole triple is fused per image: byte im2col -> u8 x s8 GEMM ->
  // s32 max-pool -> dequantize + activation (+ requantize), so the panel
  // and accumulator working set (tens of KB) stays cache-resident instead
  // of streaming megabyte-sized whole-batch buffers through memory. Worker
  // w packs into its own slice of the pb / raw regions (worker w handles
  // chunk w, and chunks beyond `count` are empty, so slice w * per-image
  // extent stays inside the count-sized regions). The s32 accumulators are
  // exact integers — identical for any image grouping — and the float tail
  // applies one fixed rounding per element (known activations inline the
  // classes' own expressions; the batched requantize's vector lane matches
  // quantize_activations_u8's scalar rule byte for byte), so results are
  // bit-identical for any (batch, tile, thread, tier) split.
  const std::size_t pb_img = qgemm_packed_b_bytes(k, pixels);
  const std::size_t raw_img = step.out_c * pixels;
  const std::size_t panels_img = ceil_div(pixels, kQgemmNr);
  struct Ctx {
    const Step* step;
    const std::uint8_t* in;
    std::uint8_t* out_u8;
    float* out_f32;
    std::uint8_t* pb;
    std::int32_t* raw;
    std::int32_t* pooled;
    float* stage;
    std::size_t pixels, k, pb_img, raw_img, panels_img;
  } ctx{&step, in_u8,  out_u8, out_f32, pb,     raw,
        pooled, stage, pixels, k,       pb_img, raw_img,
        panels_img};
  const auto work = [&ctx](std::size_t w, std::size_t b, std::size_t e) {
    const Step& st = *ctx.step;
    const std::size_t plane = st.out_h * st.out_w;
    std::uint8_t* pb_w = ctx.pb + w * ctx.pb_img;
    std::int32_t* raw_w = ctx.raw + w * ctx.raw_img;
    for (std::size_t i = b; i < e; ++i) {
      if (st.direct) {
        // im2col-free route: convolve the CHW u8 image directly. Both
        // routes multiply the same u8 x s8 integers, so raw_w holds the
        // identical s32 accumulators either way.
        qconv_direct(ctx.in + i * st.in_numel, st.in_c, st.in_h, st.in_w,
                     st.kernel, st.raw_w.data(), st.out_c, raw_w);
      } else {
        qgemm_pack_b_im2col(ctx.in + i * st.in_numel, 1, st.in_c, st.in_h,
                            st.in_w, st.kernel, pb_w, 0, ctx.panels_img);
        qgemm_packed({st.out_c, ctx.k, ctx.pixels}, st.packed_w.data(), pb_w,
                     raw_w, nullptr);
      }
      std::int32_t* pooled_img = ctx.pooled + i * st.out_numel;
      pool_image_s32(raw_w, ctx.pixels, st.out_c, st.conv_oh, st.conv_ow,
                     st.pool_window, pooled_img);
      float* dst = ctx.out_u8 != nullptr ? ctx.stage + i * st.out_numel
                                         : ctx.out_f32 + i * st.out_numel;
      switch (st.act_kind) {
        case Step::Act::kSigmoid:
          dequant_activate_planes(pooled_img, st, plane, dst,
                                  dequant_sigmoid_plane);
          break;
        case Step::Act::kTanh:
          dequant_activate_planes(pooled_img, st, plane, dst,
                                  dequant_tanh_plane);
          break;
        case Step::Act::kRelu:
          dequant_activate_planes(pooled_img, st, plane, dst,
                                  dequant_relu_plane);
          break;
        case Step::Act::kGeneric:
          dequant_activate(pooled_img, st, plane, dst, [&st](float x) {
            return st.act->evaluate_one(x);
          });
          break;
      }
      if (ctx.out_u8 != nullptr) {
        quantize_activations_u8(dst, st.out_numel, st.out_inv_scale,
                                ctx.out_u8 + i * st.out_numel);
      }
    }
  };
  if (threaded) {
    pool->parallel_for(0, count, work);
  } else {
    work(0, 0, count);
  }
}

void QuantizedSegment::run_dense(const Step& step, const std::uint8_t* in_u8,
                                 float* out_f32, std::size_t count,
                                 std::uint8_t* pb, std::int32_t* raw,
                                 ThreadPool* pool) const {
  const std::size_t k = step.in_features;
  qgemm_pack_b_transposed(k, count, in_u8, pb);
  // C^T layout: raw(out_c, count) — the scalar dequant below transposes
  // while writing the row-major output.
  qgemm_packed({step.out_c, k, count}, step.packed_w.data(), pb, raw, pool);
  for (std::size_t i = 0; i < count; ++i) {
    float* dst = out_f32 + i * step.out_c;
    for (std::size_t o = 0; o < step.out_c; ++o) {
      dst[o] = std::fmaf(static_cast<float>(raw[o * count + i]), step.mult[o],
                         step.bias[o]);
    }
  }
}

void QuantizedSegment::infer_block(const float* in, float* out,
                                   std::size_t count, float* scratch,
                                   ThreadPool* pool) const {
  if (count == 0) return;
  const bool profiling = obs::LayerProfiler::enabled();
  const std::int32_t prof_stage =
      profiling ? obs::LayerProfiler::current_stage() : obs::kNoStage;

  // Carve the arena: [u8 ping][u8 pong][packed B][s32 raw][s32 pooled]
  // [f32 stage], mirroring scratch_floats(count).
  std::size_t pb_bytes = 0;
  std::size_t raw_elems = 0;
  std::size_t pool_elems = 0;
  for (const Step& step : steps_) {
    if (step.kind == Step::Kind::kConvTriple) {
      const std::size_t k = step.in_c * step.kernel * step.kernel;
      const std::size_t pixels = step.conv_oh * step.conv_ow;
      pb_bytes = std::max(pb_bytes, count * qgemm_packed_b_bytes(k, pixels));
      raw_elems = std::max(raw_elems, count * step.out_c * pixels);
      pool_elems = std::max(pool_elems, count * step.out_numel);
    } else {
      pb_bytes = std::max(pb_bytes,
                          qgemm_packed_b_bytes(step.in_features, count));
      raw_elems = std::max(raw_elems, step.out_c * count);
    }
  }
  const std::size_t u8f =
      bytes_as_floats(count * max_u8_floats_ + kQconvSlackBytes);
  auto* ping = reinterpret_cast<std::uint8_t*>(scratch);
  auto* pong = reinterpret_cast<std::uint8_t*>(scratch + u8f);
  auto* pb = reinterpret_cast<std::uint8_t*>(scratch + 2 * u8f);
  auto* raw = reinterpret_cast<std::int32_t*>(scratch + 2 * u8f +
                                              bytes_as_floats(pb_bytes));
  auto* pooled = raw + align_floats(raw_elems);
  auto* stage = reinterpret_cast<float*>(pooled + align_floats(pool_elems));

  quantize_activations_u8(in, count * in_floats_, steps_[0].in_inv_scale,
                          ping);
  const std::uint8_t* cur = ping;
  std::uint8_t* nxt = pong;
  for (const Step& step : steps_) {
    const std::uint64_t prof_t0 = profiling ? obs::now_ns() : 0;
    if (step.kind == Step::Kind::kConvTriple) {
      const bool requant = step.out_inv_scale > 0.0F;
      run_conv_triple(step, cur, requant ? nxt : nullptr,
                      requant ? nullptr : out, count, pb, raw, pooled, stage,
                      pool);
      if (requant) {
        std::uint8_t* consumed = nxt;
        nxt = const_cast<std::uint8_t*>(cur);
        cur = consumed;
      }
    } else {
      run_dense(step, cur, out, count, pb, raw, pool);
    }
    if (profiling) {
      obs::LayerProfiler::instance().record(
          prof_stage, static_cast<std::int32_t>(step.first), step.name,
          step.span, count, step.op_count * count, obs::now_ns() - prof_t0);
    }
  }
}

std::unique_ptr<QuantizedClassifier> QuantizedClassifier::build(
    const LinearClassifier& lc, float feat_amax, float feat_vmin) {
  if (!std::isfinite(feat_amax) || feat_amax <= 0.0F ||
      !std::isfinite(feat_vmin) || feat_vmin < 0.0F) {
    return nullptr;
  }
  auto qc = std::make_unique<QuantizedClassifier>();
  qc->in_features_ = lc.in_features();
  qc->classes_ = lc.num_classes();
  qc->rule_ = lc.rule();
  const float in_scale = activation_quant_scale(feat_amax);
  qc->in_inv_scale_ = 1.0F / in_scale;
  build_quantized_weights(lc.weights().data(), qc->classes_, qc->in_features_,
                          in_scale, qc->packed_w_, qc->mult_);
  qc->bias_.assign(lc.bias().data(), lc.bias().data() + lc.bias().numel());
  return qc;
}

std::size_t QuantizedClassifier::scratch_floats(std::size_t count) const {
  return bytes_as_floats(count * in_features_) +
         bytes_as_floats(qgemm_packed_b_bytes(in_features_, count)) +
         align_floats(classes_ * count);
}

void QuantizedClassifier::probabilities_block(const float* features,
                                              std::size_t count, float* out,
                                              float* scratch,
                                              ThreadPool* pool) const {
  if (count == 0) return;
  auto* qx = reinterpret_cast<std::uint8_t*>(scratch);
  auto* pb = reinterpret_cast<std::uint8_t*>(
      scratch + bytes_as_floats(count * in_features_));
  auto* ct = reinterpret_cast<std::int32_t*>(
      scratch + bytes_as_floats(count * in_features_) +
      bytes_as_floats(qgemm_packed_b_bytes(in_features_, count)));

  quantize_activations_u8(features, count * in_features_, in_inv_scale_, qx);
  qgemm_pack_b_transposed(in_features_, count, qx, pb);
  qgemm_packed({classes_, in_features_, count}, packed_w_.data(), pb, ct,
               pool);
  for (std::size_t i = 0; i < count; ++i) {
    float* row = out + i * classes_;
    for (std::size_t c = 0; c < classes_; ++c) {
      row[c] = std::fmaf(static_cast<float>(ct[c * count + i]), mult_[c],
                         bias_[c]);
    }
    if (rule_ == LcTrainingRule::kSoftmaxXent) {
      softmax_into(row, row, classes_);
    } else {
      for (std::size_t c = 0; c < classes_; ++c) {
        row[c] = std::clamp(row[c], 0.0F, 1.0F);
      }
    }
  }
}

}  // namespace cdl
