#include "serve/slo.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/metrics.h"

namespace cdl::serve {

namespace {
constexpr std::size_t kLatencyBins = 64;
}  // namespace

SloTracker::SloTracker(obs::Registry* registry, double latency_hi_ms,
                       double energy_hi_pj)
    : registry_(registry),
      latency_hi_ms_(latency_hi_ms),
      energy_hi_pj_(energy_hi_pj) {}

SloTracker::PerModel& SloTracker::model_slot(std::size_t model) {
  if (model >= models_.size()) models_.resize(model + 1);
  PerModel& m = models_[model];
  if (m.name.empty()) m.name = "model" + std::to_string(model);
  return m;
}

void SloTracker::name_model(std::size_t model, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (model >= models_.size()) models_.resize(model + 1);
  models_[model].name = std::move(name);
}

void SloTracker::bump(const PerModel& m, const char* status) {
  if (registry_ == nullptr) return;
  registry_
      ->counter("cdl_serve_requests_total", "Serving requests by outcome",
                {{"model", m.name}, {"status", status}})
      .inc();
}

void SloTracker::record_rejected(std::size_t model) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  ++m.rejected;
  bump(m, "rejected");
}

void SloTracker::record_accepted(std::size_t model) {
  std::lock_guard<std::mutex> lock(mutex_);
  (void)model_slot(model).accepted++;
}

void SloTracker::withdraw_accepted(std::size_t model, bool rejected) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  --m.accepted;
  if (rejected) {
    ++m.rejected;
    bump(m, "rejected");
  }
}

void SloTracker::record_expired(std::size_t model, std::uint64_t queue_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  ++m.expired;
  ++m.slo_miss;  // an expired request missed its SLO by definition
  bump(m, "expired");
  if (registry_ != nullptr) {
    registry_
        ->counter("cdl_serve_slo_miss_total",
                  "Requests that missed their deadline", {{"model", m.name}})
        .inc();
    registry_
        ->histogram("cdl_serve_latency_ms",
                    "Request latency (queue + inference)", 0.0, latency_hi_ms_,
                    kLatencyBins, {{"model", m.name}})
        .record(static_cast<double>(queue_ns) / 1e6);
  }
}

void SloTracker::record_shutdown(std::size_t model) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  ++m.shutdown;
  bump(m, "shutdown");
}

void SloTracker::record_phase_hist(const char* family, const char* help,
                                   const PerModel& m, double ms) {
  registry_
      ->histogram(family, help, 0.0, latency_hi_ms_, kLatencyBins,
                  {{"model", m.name}})
      .record(ms);
}

void SloTracker::record_completed(std::size_t model, std::uint64_t latency_ns,
                                  std::uint64_t queue_ns,
                                  std::uint64_t batch_wait_ns,
                                  std::uint64_t compute_ns, bool slo_miss,
                                  double energy_pj) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  const double ms = static_cast<double>(latency_ns) / 1e6;
  const double queue_ms = static_cast<double>(queue_ns) / 1e6;
  const double batch_ms = static_cast<double>(batch_wait_ns) / 1e6;
  const double compute_ms = static_cast<double>(compute_ns) / 1e6;
  ++m.completed;
  if (slo_miss) ++m.slo_miss;
  m.latency_sum_ms += ms;
  m.latency_max_ms = std::max(m.latency_max_ms, ms);
  m.latencies_ms.push_back(ms);
  m.queue_ms.push_back(queue_ms);
  m.batch_ms.push_back(batch_ms);
  m.compute_ms.push_back(compute_ms);
  m.queue_sum_ms += queue_ms;
  m.batch_sum_ms += batch_ms;
  m.compute_sum_ms += compute_ms;
  m.energies_pj.push_back(energy_pj);
  m.energy_sum_pj += energy_pj;
  m.energy_max_pj = std::max(m.energy_max_pj, energy_pj);
  bump(m, "ok");
  if (registry_ != nullptr) {
    if (slo_miss) {
      registry_
          ->counter("cdl_serve_slo_miss_total",
                    "Requests that missed their deadline", {{"model", m.name}})
          .inc();
    }
    registry_
        ->histogram("cdl_serve_latency_ms",
                    "Request latency (queue + inference)", 0.0, latency_hi_ms_,
                    kLatencyBins, {{"model", m.name}})
        .record(ms);
    record_phase_hist("cdl_serve_phase_queue_ms",
                      "Latency from submit to queue pop", m, queue_ms);
    record_phase_hist("cdl_serve_phase_batch_ms",
                      "Latency from queue pop to batch formation", m,
                      batch_ms);
    record_phase_hist("cdl_serve_phase_compute_ms",
                      "Latency from batch formation to inference done", m,
                      compute_ms);
    registry_
        ->histogram("cdl_serve_energy_pj",
                    "Attributed 45nm energy per served request (picojoules)",
                    0.0, energy_hi_pj_, kLatencyBins, {{"model", m.name}})
        .record(energy_pj);
    registry_
        ->counter("cdl_serve_energy_total_joules",
                  "Cumulative attributed energy of served requests (joules)",
                  {{"model", m.name}})
        .inc(energy_pj * 1e-12);
  }
}

void SloTracker::record_exit(std::size_t model, std::size_t stage) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  if (stage >= m.exits.size()) m.exits.resize(stage + 1, 0);
  ++m.exits[stage];
  if (registry_ != nullptr) {
    std::uint64_t total = 0;
    for (const std::uint64_t e : m.exits) total += e;
    for (std::size_t s = 0; s < m.exits.size(); ++s) {
      const std::string label = std::to_string(s);
      if (s == stage) {
        registry_
            ->counter("cdl_serve_exits_total",
                      "Served results by cascade exit stage",
                      {{"model", m.name}, {"stage", label}})
            .inc();
      }
      registry_
          ->gauge("cdl_serve_exit_fraction",
                  "Fraction of served results exiting at each stage",
                  {{"model", m.name}, {"stage", label}})
          .set(static_cast<double>(m.exits[s]) / static_cast<double>(total));
    }
  }
}

void SloTracker::record_drift(std::size_t model, std::uint64_t window,
                              double score, bool drift) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  ++m.drift_windows;
  m.drift_score = score;
  m.drift_max_score = std::max(m.drift_max_score, score);
  if (drift) {
    ++m.drift_events;
    if (m.first_drift_window < 0) {
      m.first_drift_window = static_cast<std::int64_t>(window);
    }
  }
  if (registry_ != nullptr) {
    registry_
        ->gauge("cdl_serve_drift_score",
                "Exit-profile drift score of the latest scored window",
                {{"model", m.name}})
        .set(score);
    if (drift) {
      registry_
          ->counter("cdl_serve_drift_events_total",
                    "Drift windows whose score crossed the threshold",
                    {{"model", m.name}})
          .inc();
    }
  }
}

void SloTracker::record_energy_window(std::uint64_t window,
                                      double rate_mj_per_s, bool breach) {
  (void)window;  // breach indices live in the watchdog / report block
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry_ != nullptr) {
    registry_
        ->gauge("cdl_serve_energy_rate_mj_per_s",
                "Average power of the latest closed energy-budget window")
        .set(rate_mj_per_s);
    if (breach) {
      registry_
          ->counter("cdl_serve_energy_budget_breaches_total",
                    "Energy-budget windows whose rate exceeded the budget")
          .inc();
    }
  }
}

void SloTracker::record_batch(std::size_t model, std::size_t rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  PerModel& m = model_slot(model);
  ++m.batches;
  m.batched_rows += rows;
  if (registry_ != nullptr) {
    registry_
        ->counter("cdl_serve_batches_total", "Batches dispatched",
                  {{"model", m.name}})
        .inc();
    registry_
        ->histogram("cdl_serve_batch_size", "Rows per dispatched batch", 0.0,
                    512.0, 64, {{"model", m.name}})
        .record(static_cast<double>(rows));
  }
}

void SloTracker::set_queue_depth(std::size_t depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry_ != nullptr) {
    registry_->gauge("cdl_serve_queue_depth", "Requests currently queued")
        .set(static_cast<double>(depth));
  }
}

SloSummary SloTracker::summary(std::size_t model) const {
  SloSummary s;
  PerModel m;
  {
    // Copy under the lock, sort outside it: the percentiles below sort every
    // sample, and each worker's record_* waits on this mutex meanwhile.
    std::lock_guard<std::mutex> lock(mutex_);
    if (model >= models_.size()) return s;
    m = models_[model];
  }
  s.model = m.name;
  s.accepted = m.accepted;
  s.completed = m.completed;
  s.rejected = m.rejected;
  s.expired = m.expired;
  s.shutdown = m.shutdown;
  s.submitted = m.accepted + m.rejected;
  s.slo_miss = m.slo_miss;
  s.batches = m.batches;
  s.mean_batch = m.batches == 0 ? 0.0
                                : static_cast<double>(m.batched_rows) /
                                      static_cast<double>(m.batches);
  if (!m.latencies_ms.empty()) {
    const double n = static_cast<double>(m.latencies_ms.size());
    s.p50_ms = obs::percentile(m.latencies_ms, 0.50);
    s.p95_ms = obs::percentile(m.latencies_ms, 0.95);
    s.p99_ms = obs::percentile(m.latencies_ms, 0.99);
    s.mean_ms = m.latency_sum_ms / n;
    s.max_ms = m.latency_max_ms;
    s.queue_p50_ms = obs::percentile(m.queue_ms, 0.50);
    s.queue_p95_ms = obs::percentile(m.queue_ms, 0.95);
    s.queue_p99_ms = obs::percentile(m.queue_ms, 0.99);
    s.queue_mean_ms = m.queue_sum_ms / n;
    s.batch_p50_ms = obs::percentile(m.batch_ms, 0.50);
    s.batch_p95_ms = obs::percentile(m.batch_ms, 0.95);
    s.batch_p99_ms = obs::percentile(m.batch_ms, 0.99);
    s.batch_mean_ms = m.batch_sum_ms / n;
    s.compute_p50_ms = obs::percentile(m.compute_ms, 0.50);
    s.compute_p95_ms = obs::percentile(m.compute_ms, 0.95);
    s.compute_p99_ms = obs::percentile(m.compute_ms, 0.99);
    s.compute_mean_ms = m.compute_sum_ms / n;
    s.energy_p50_pj = obs::percentile(m.energies_pj, 0.50);
    s.energy_p95_pj = obs::percentile(m.energies_pj, 0.95);
    s.energy_p99_pj = obs::percentile(m.energies_pj, 0.99);
    s.energy_mean_pj = m.energy_sum_pj / n;
    s.energy_max_pj = m.energy_max_pj;
  }
  s.energy_total_pj = m.energy_sum_pj;
  s.exits = m.exits;
  s.drift_windows = m.drift_windows;
  s.drift_events = m.drift_events;
  s.drift_score = m.drift_score;
  s.drift_max_score = m.drift_max_score;
  s.first_drift_window = m.first_drift_window;
  return s;
}

void SloTracker::write_openmetrics(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry_ != nullptr) registry_->write_openmetrics(os);
}

std::vector<SloSummary> SloTracker::summaries() const {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    n = models_.size();
  }
  std::vector<SloSummary> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(summary(i));
  return out;
}

}  // namespace cdl::serve
