// SloTracker: per-request latency and SLO accounting for the serving engine.
//
// Every request outcome is recorded per model: accepted/rejected/expired/
// completed counters, exact latency samples (for type-7 p50/p95/p99 via
// obs::percentile), deadline misses, batch-size statistics, the exact
// per-phase latency decomposition (queue wait / batch wait / compute — the
// three stamps sum bit-exactly to the end-to-end latency), the per-stage
// exit counts of served results, and the drift monitor's window scores.
// When a Registry is attached the same numbers are mirrored into labelled
// OpenMetrics families:
//
//   cdl_serve_requests_total{model=...,status=ok|rejected|expired|shutdown}
//   cdl_serve_slo_miss_total{model=...}
//   cdl_serve_latency_ms{model=...}         (histogram)
//   cdl_serve_phase_queue_ms{model=...}     (histogram, submit -> dequeue)
//   cdl_serve_phase_batch_ms{model=...}     (histogram, dequeue -> batch)
//   cdl_serve_phase_compute_ms{model=...}   (histogram, batch -> done)
//   cdl_serve_batch_size{model=...}         (histogram)
//   cdl_serve_batches_total{model=...}
//   cdl_serve_exits_total{model=...,stage=...}
//   cdl_serve_exit_fraction{model=...,stage=...}   (gauge)
//   cdl_serve_drift_score{model=...}        (gauge, latest scored window)
//   cdl_serve_drift_events_total{model=...}
//   cdl_serve_energy_pj{model=...}          (histogram, per-request energy)
//   cdl_serve_energy_total_joules{model=...}
//   cdl_serve_energy_rate_mj_per_s          (gauge, latest budget window)
//   cdl_serve_energy_budget_breaches_total  (engine-wide)
//   cdl_serve_queue_depth                   (gauge, engine-wide)
//
// The tracker serializes its own updates with an internal mutex (worker
// threads complete requests concurrently), which also guards the registry
// instruments it owns — the registry's documented "guard concurrent writers
// externally" contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "serve/request.h"

namespace cdl::serve {

/// One model's aggregated serving statistics (a deterministic snapshot).
struct SloSummary {
  std::string model;
  std::uint64_t submitted = 0;  ///< accepted + rejected
  std::uint64_t accepted = 0;   ///< entered the queue
  std::uint64_t completed = 0;  ///< served with inference (status kOk)
  std::uint64_t rejected = 0;   ///< refused at submit (queue full, bad shape)
  std::uint64_t expired = 0;    ///< deadline passed before dispatch
  std::uint64_t shutdown = 0;   ///< aborted before service
  std::uint64_t slo_miss = 0;   ///< expired + completed past their deadline
  std::uint64_t batches = 0;    ///< batches dispatched
  double mean_batch = 0.0;      ///< completed / batches
  /// Exact percentiles over completed requests' latencies; 0 when none.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  /// Per-phase decomposition over the same completed requests. The phase
  /// means sum to mean_ms (up to double rounding): the three stamps
  /// partition each request's latency exactly.
  double queue_p50_ms = 0.0, queue_p95_ms = 0.0, queue_p99_ms = 0.0;
  double queue_mean_ms = 0.0;
  double batch_p50_ms = 0.0, batch_p95_ms = 0.0, batch_p99_ms = 0.0;
  double batch_mean_ms = 0.0;
  double compute_p50_ms = 0.0, compute_p95_ms = 0.0, compute_p99_ms = 0.0;
  double compute_mean_ms = 0.0;
  /// Served results by cascade exit stage (index = stage); sums to
  /// `completed`. Empty when nothing completed.
  std::vector<std::uint64_t> exits;
  /// Drift monitor mirror: scored windows, events raised, latest / max
  /// window score (-1 before the first scored window), first drifting
  /// window index (-1 = none yet).
  std::uint64_t drift_windows = 0;
  std::uint64_t drift_events = 0;
  double drift_score = -1.0;
  double drift_max_score = -1.0;
  std::int64_t first_drift_window = -1;
  /// Attributed energy over completed requests (exact percentiles over the
  /// per-request samples, same estimator as latency); 0 when none completed.
  double energy_p50_pj = 0.0;
  double energy_p95_pj = 0.0;
  double energy_p99_pj = 0.0;
  double energy_mean_pj = 0.0;
  double energy_max_pj = 0.0;
  double energy_total_pj = 0.0;  ///< cumulative joules = this * 1e-12
};

class SloTracker {
 public:
  /// `registry` may be null (pure in-memory accounting); when set it must
  /// outlive the tracker. `latency_hi_ms` / `energy_hi_pj` bound the
  /// exported latency / energy histograms (exact percentiles come from the
  /// raw samples either way).
  explicit SloTracker(obs::Registry* registry = nullptr,
                      double latency_hi_ms = 1000.0,
                      double energy_hi_pj = 1.0e7);

  void record_rejected(std::size_t model);
  void record_accepted(std::size_t model);
  /// Takes back a record_accepted whose queue push then failed, counting the
  /// request as rejected (queue full) in the same step when `rejected`.
  void withdraw_accepted(std::size_t model, bool rejected);
  void record_expired(std::size_t model, std::uint64_t queue_ns);
  void record_shutdown(std::size_t model);
  /// `queue_ns + batch_wait_ns + compute_ns == latency_ns` — the engine
  /// derives all four from the same clock stamps, so the decomposition is
  /// exact, not approximate. `energy_pj` is the request's attributed energy
  /// (Response::energy_pj); sums accumulate in completion-record order.
  void record_completed(std::size_t model, std::uint64_t latency_ns,
                        std::uint64_t queue_ns, std::uint64_t batch_wait_ns,
                        std::uint64_t compute_ns, bool slo_miss,
                        double energy_pj = 0.0);
  void record_batch(std::size_t model, std::size_t rows);
  /// One served result exited at cascade stage `stage`.
  void record_exit(std::size_t model, std::size_t stage);
  /// Mirrors one scored drift window (latest score gauge, event counter).
  void record_drift(std::size_t model, std::uint64_t window, double score,
                    bool drift);
  /// Mirrors one closed energy-budget window (engine-wide, not per-model):
  /// latest rate gauge plus a breach counter when the window exceeded the
  /// budget.
  void record_energy_window(std::uint64_t window, double rate_mj_per_s,
                            bool breach);
  void set_queue_depth(std::size_t depth);

  /// Deterministic per-model snapshot (models in registration order).
  [[nodiscard]] SloSummary summary(std::size_t model) const;
  [[nodiscard]] std::vector<SloSummary> summaries() const;

  /// Registers `name` for model index `model` (labels + summaries). The
  /// engine calls this once per registry entry before serving starts.
  void name_model(std::size_t model, std::string name);

  /// Writes the attached registry's OpenMetrics exposition under the
  /// tracker's mutex — the same lock every record_* takes — so a scraper
  /// thread (the HTTP observer) never races the engine's workers. Writes
  /// nothing when no registry is attached.
  void write_openmetrics(std::ostream& os) const;

 private:
  struct PerModel {
    std::string name;
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t shutdown = 0;
    std::uint64_t slo_miss = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_rows = 0;
    double latency_sum_ms = 0.0;
    double latency_max_ms = 0.0;
    std::vector<double> latencies_ms;  ///< completed requests, arrival order
    std::vector<double> queue_ms;      ///< phase samples, same order
    std::vector<double> batch_ms;
    std::vector<double> compute_ms;
    double queue_sum_ms = 0.0;
    double batch_sum_ms = 0.0;
    double compute_sum_ms = 0.0;
    std::vector<std::uint64_t> exits;  ///< per exit stage
    std::vector<double> energies_pj;   ///< completed requests, arrival order
    double energy_sum_pj = 0.0;
    double energy_max_pj = 0.0;
    std::uint64_t drift_windows = 0;
    std::uint64_t drift_events = 0;
    double drift_score = -1.0;
    double drift_max_score = -1.0;
    std::int64_t first_drift_window = -1;
  };

  PerModel& model_slot(std::size_t model);
  void bump(const PerModel& m, const char* status);
  void record_phase_hist(const char* family, const char* help,
                         const PerModel& m, double ms);

  mutable std::mutex mutex_;
  obs::Registry* registry_;
  double latency_hi_ms_;
  double energy_hi_pj_;
  std::vector<PerModel> models_;
};

}  // namespace cdl::serve
