#include "serve/engine.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/energy_meter.h"
#include "obs/trace.h"

namespace cdl::serve {

const char* to_string(PushResult r) {
  switch (r) {
    case PushResult::kOk:
      return "ok";
    case PushResult::kFull:
      return "full";
    case PushResult::kClosed:
      return "closed";
  }
  return "unknown";
}

const char* to_string(PopResult r) {
  switch (r) {
    case PopResult::kItem:
      return "item";
    case PopResult::kTimeout:
      return "timeout";
    case PopResult::kClosed:
      return "closed";
  }
  return "unknown";
}

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kExpired:
      return "expired";
    case RequestStatus::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kQueueFull:
      return "queue_full";
    case SubmitStatus::kUnknownModel:
      return "unknown_model";
    case SubmitStatus::kShutdown:
      return "shutdown";
    case SubmitStatus::kBadShape:
      return "bad_shape";
  }
  return "unknown";
}

namespace {

#ifndef CDL_TRACE_DISABLED
/// Records a span whose endpoints were stamped earlier (the RAII TraceSpan
/// cannot express request phases that start on one thread and end on
/// another). Caller has already checked Tracer::enabled().
void trace_span_between(const char* name, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::int32_t id) {
  obs::TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  event.id = id;
  obs::Tracer::instance().record(event);
}

std::int32_t trace_id(std::uint64_t request_id) {
  return static_cast<std::int32_t>(request_id & 0x7fffffffU);
}
#endif

/// Minimal JSON string escaping for model names in telemetry output.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// A pre-failed receipt for requests that never enter the queue.
Submitted rejected_receipt(SubmitStatus status, std::uint64_t id,
                           std::size_t model) {
  std::promise<Response> promise;
  Submitted out;
  out.status = status;
  out.response = promise.get_future();
  Response resp;
  resp.status = RequestStatus::kRejected;
  resp.request_id = id;
  resp.model = model;
  promise.set_value(std::move(resp));
  return out;
}

}  // namespace

ServingEngine::ServingEngine(ModelRegistry models, EngineConfig config)
    : models_(std::move(models)),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : &RealClock::instance()),
      slo_(config.registry),
      queue_(config.queue_capacity),
      energy_watchdog_(config.energy_budget) {
  if (models_.empty()) {
    throw std::invalid_argument("ServingEngine: model registry is empty");
  }
  batchers_.reserve(models_.size());
  drift_.reserve(models_.size());
  exit_energy_.reserve(models_.size());
  const obs::EnergyMeter meter;  // paper 45nm fp32 + int8 cost tables
  for (std::size_t m = 0; m < models_.size(); ++m) {
    batchers_.emplace_back(config_.batcher, clock_);
    slo_.name_model(m, models_.name(m));
    // Exit stages 0..num_stages()-1 plus the baseline FC exit (num_stages()).
    drift_.push_back(std::make_unique<ExitDriftMonitor>(
        models_.net(m).num_stages() + 1, config_.drift));
    // Energy is a pure function of the exit stage (like exit_ops), so one
    // table lookup per response reproduces offline attribution bit-exactly
    // at any worker count.
    exit_energy_.push_back(models_.net(m).exit_energy_table(meter));
  }
  next_seq_ = std::vector<std::atomic<std::uint64_t>>(models_.size());
  if (!config_.telemetry.path.empty()) {
    std::ostringstream extra;
    extra << ",\"models\":[";
    for (std::size_t m = 0; m < models_.size(); ++m) {
      extra << (m == 0 ? "\"" : ",\"") << json_escape(models_.name(m))
            << "\"";
    }
    extra << "]";
    telemetry_ = std::make_unique<TelemetrySnapshotter>(config_.telemetry,
                                                        clock_, extra.str());
  }
  inline_state_.workspaces.resize(models_.size());
  slo_.set_queue_depth(0);
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ServingEngine::~ServingEngine() { shutdown(/*drain=*/true); }

Submitted ServingEngine::submit(std::size_t model, Tensor input,
                                std::uint64_t deadline_ns) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (model >= models_.size()) {
    return rejected_receipt(SubmitStatus::kUnknownModel, id, model);
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    return rejected_receipt(SubmitStatus::kShutdown, id, model);
  }
  if (input.shape() != models_.net(model).input_shape()) {
    // Rejected here: a wrong-shape tensor would throw inside a batch and
    // take its other requests down with it.
    slo_.record_rejected(model);
    return rejected_receipt(SubmitStatus::kBadShape, id, model);
  }
  Request request;
  request.id = id;
  request.model = model;
  // Every request that reaches the push attempt consumes a sequence slot;
  // rejected slots are reported missing below so drift windows stay dense.
  request.seq = next_seq_[model].fetch_add(1, std::memory_order_relaxed);
  request.input = std::move(input);
  request.arrival_ns = clock_->now_ns();
  const std::uint64_t relative =
      deadline_ns != 0 ? deadline_ns : config_.default_deadline_ns;
  request.deadline_ns = relative != 0 ? request.arrival_ns + relative : 0;
#ifndef CDL_TRACE_DISABLED
  if (obs::Tracer::enabled()) {
    request.trace_enqueue_ns = obs::now_ns();
    obs::trace_instant("serve/enqueue", trace_id(id));
  }
#endif

  Submitted out;
  out.response = request.promise.get_future();
  // Counted before a worker can see the request, so no snapshot reads more
  // requests finished than accepted; a failed push withdraws the count.
  slo_.record_accepted(model);
  switch (queue_.try_push(std::move(request))) {
    case PushResult::kOk:
      out.status = SubmitStatus::kAccepted;
      slo_.set_queue_depth(queue_.size());
      return out;
    case PushResult::kFull: {
      out.status = SubmitStatus::kQueueFull;
      slo_.withdraw_accepted(model, /*rejected=*/true);
      drift_[model]->record_missing(request.seq);
      publish_drift(model);
      Response resp;
      resp.status = RequestStatus::kRejected;
      resp.request_id = id;
      resp.model = model;
      request.promise.set_value(std::move(resp));
      return out;
    }
    case PushResult::kClosed: {
      out.status = SubmitStatus::kShutdown;
      slo_.withdraw_accepted(model, /*rejected=*/false);
      drift_[model]->record_missing(request.seq);
      publish_drift(model);
      Response resp;
      resp.status = RequestStatus::kRejected;
      resp.request_id = id;
      resp.model = model;
      request.promise.set_value(std::move(resp));
      return out;
    }
  }
  return out;  // unreachable
}

Submitted ServingEngine::submit(const std::string& model, Tensor input,
                                std::uint64_t deadline_ns) {
  const std::optional<std::size_t> index = models_.find(model);
  if (!index.has_value()) {
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    return rejected_receipt(SubmitStatus::kUnknownModel, id, 0);
  }
  return submit(*index, std::move(input), deadline_ns);
}

void ServingEngine::integrate_request(Request request, std::uint64_t now_ns) {
  // The pass-shared stamp can predate a request that was submitted while the
  // pass was already draining the queue; clamp so queue_ns never underflows
  // (the phase partition tolerates a zero queue phase, not a negative one).
  request.dequeue_ns = std::max(now_ns, request.arrival_ns);
#ifndef CDL_TRACE_DISABLED
  if (obs::Tracer::enabled()) {
    request.trace_dequeue_ns = obs::now_ns();
    if (request.trace_enqueue_ns != 0) {
      trace_span_between("serve/queue_wait", request.trace_enqueue_ns,
                         request.trace_dequeue_ns, trace_id(request.id));
    }
  }
#endif
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    batchers_[request.model].add(std::move(request));
  }
  batcher_pending_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t ServingEngine::integrate_queue() {
  std::size_t moved = 0;
  Request request;
  std::uint64_t now_ns = 0;
  while (queue_.try_pop(request) == PopResult::kItem) {
    // One clock read covers every request popped in this pass.
    if (moved == 0) now_ns = clock_->now_ns();
    integrate_request(std::move(request), now_ns);
    ++moved;
  }
  if (moved != 0) slo_.set_queue_depth(queue_.size());
  return moved;
}

std::uint64_t ServingEngine::earliest_wake() {
  std::lock_guard<std::mutex> lock(batch_mutex_);
  std::uint64_t wake = Clock::kNever;
  for (const DynamicBatcher& batcher : batchers_) {
    if (batcher.ready()) return 0;  // work due now — do not sleep
    wake = std::min(wake, batcher.next_wake_ns());
  }
  return wake;
}

std::size_t ServingEngine::dispatch_due(bool draining, WorkerState& state) {
  // Phase 1: under the batcher lock, decide what to run — but run nothing.
  std::vector<std::pair<std::size_t, std::vector<Request>>> expired;
  std::vector<std::pair<std::size_t, std::vector<Request>>> batches;
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    for (std::size_t m = 0; m < batchers_.size(); ++m) {
      DynamicBatcher& batcher = batchers_[m];
      std::vector<Request> dead = batcher.take_expired();
      if (!dead.empty()) {
        batcher_pending_.fetch_sub(dead.size(), std::memory_order_relaxed);
        expired.emplace_back(m, std::move(dead));
      }
      while (batcher.ready()) {
        std::vector<Request> batch = batcher.take();
        batcher_pending_.fetch_sub(batch.size(), std::memory_order_relaxed);
        batches.emplace_back(m, std::move(batch));
      }
      if (draining) {
        std::vector<Request> rest = batcher.drain();
        if (!rest.empty()) {
          batcher_pending_.fetch_sub(rest.size(), std::memory_order_relaxed);
          batches.emplace_back(m, std::move(rest));
        }
      }
    }
  }

  // Phase 2: execute outside the lock so models run concurrently.
  std::size_t terminal = 0;
  for (auto& [model, dead] : expired) {
    for (Request& request : dead) {
      fail_request(std::move(request), RequestStatus::kExpired);
      ++terminal;
    }
  }
  const bool abort =
      draining && !drain_on_shutdown_.load(std::memory_order_acquire);
  for (auto& [model, batch] : batches) {
    terminal += batch.size();
    if (abort) {
      for (Request& request : batch) {
        fail_request(std::move(request), RequestStatus::kShutdown);
      }
    } else {
      execute_batch(model, std::move(batch), state);
    }
  }
  return terminal;
}

void ServingEngine::execute_batch(std::size_t model,
                                  std::vector<Request> batch,
                                  WorkerState& state) {
  if (batch.empty()) return;
  const std::uint64_t formed_ns = clock_->now_ns();
#ifndef CDL_TRACE_DISABLED
  const bool tracing = obs::Tracer::enabled();
  const std::uint64_t trace_formed_ns = tracing ? obs::now_ns() : 0;
  if (tracing) {
    obs::trace_instant("serve/batch_form",
                       static_cast<std::int32_t>(batch.size()));
  }
#endif
  state.inputs.clear();
  for (Request& request : batch) {
    request.batch_ns = formed_ns;
#ifndef CDL_TRACE_DISABLED
    if (tracing) {
      request.trace_batch_ns = trace_formed_ns;
      if (request.trace_dequeue_ns != 0) {
        trace_span_between("serve/batch_wait", request.trace_dequeue_ns,
                           trace_formed_ns, trace_id(request.id));
      }
    }
#endif
    state.inputs.push_back(std::move(request.input));
  }
  models_.net(model).classify_batch_into(state.inputs, state.results,
                                         state.workspaces[model],
                                         config_.pool);
  const std::uint64_t done_ns = clock_->now_ns();
#ifndef CDL_TRACE_DISABLED
  const std::uint64_t trace_done_ns = tracing ? obs::now_ns() : 0;
#endif
  slo_.record_batch(model, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& request = batch[i];
    const ClassificationResult& result = state.results[i];
    Response resp;
    resp.status = RequestStatus::kOk;
    resp.result = result;
    resp.request_id = request.id;
    resp.model = model;
    resp.latency_ns = done_ns - request.arrival_ns;
    resp.batch_size = batch.size();
    // The three phases share the latency's own stamps, so they partition it
    // exactly: queue + batch_wait + compute == latency.
    resp.queue_ns = request.dequeue_ns - request.arrival_ns;
    resp.batch_wait_ns = request.batch_ns - request.dequeue_ns;
    resp.compute_ns = done_ns - request.batch_ns;
    // Matches DynamicBatcher::take_expired: a request is dead AT its
    // deadline instant, so completion then is already a miss.
    resp.slo_miss = request.deadline_ns != 0 && done_ns >= request.deadline_ns;
    resp.energy_pj = exit_energy_[model][result.exit_stage];
    slo_.record_completed(model, resp.latency_ns, resp.queue_ns,
                          resp.batch_wait_ns, resp.compute_ns, resp.slo_miss,
                          resp.energy_pj);
    slo_.record_exit(model, result.exit_stage);
    drift_[model]->record(request.seq, result.exit_stage,
                          static_cast<double>(result.confidence));
    energy_watchdog_.record(done_ns, resp.energy_pj);
#ifndef CDL_TRACE_DISABLED
    if (tracing) {
      trace_span_between("serve/execute", trace_formed_ns, trace_done_ns,
                         trace_id(request.id));
    }
#endif
    request.promise.set_value(std::move(resp));
    CDL_TRACE_INSTANT("serve/respond", trace_id(request.id));
  }
  publish_drift(model);
  publish_energy();
}

void ServingEngine::fail_request(Request request, RequestStatus status) {
  const std::uint64_t now_ns = clock_->now_ns();
  Response resp;
  resp.status = status;
  resp.request_id = request.id;
  resp.model = request.model;
  resp.latency_ns = now_ns > request.arrival_ns ? now_ns - request.arrival_ns
                                                : 0;
  resp.slo_miss = status == RequestStatus::kExpired;
  if (status == RequestStatus::kExpired) {
    slo_.record_expired(request.model, resp.latency_ns);
  } else if (status == RequestStatus::kShutdown) {
    slo_.record_shutdown(request.model);
  }
  // The sequence slot will never carry an exit stage; keep windows dense.
  drift_[request.model]->record_missing(request.seq);
  publish_drift(request.model);
  request.promise.set_value(std::move(resp));
  CDL_TRACE_INSTANT("serve/respond", trace_id(request.id));
}

void ServingEngine::publish_drift(std::size_t model) {
  for (const DriftWindowResult& window : drift_[model]->take_scored()) {
    slo_.record_drift(model, window.index, window.score, window.drift);
    if (window.drift) {
      CDL_TRACE_INSTANT("serve/drift",
                        static_cast<std::int32_t>(window.index));
    }
  }
}

void ServingEngine::publish_energy() {
  for (const EnergyWindowResult& window : energy_watchdog_.take_scored()) {
    slo_.record_energy_window(window.index, window.rate_mj_per_s,
                              window.breach);
    if (window.breach) {
      CDL_TRACE_INSTANT("serve/energy_budget",
                        static_cast<std::int32_t>(window.index));
    }
  }
}

std::size_t ServingEngine::run_once() {
  std::lock_guard<std::mutex> lock(inline_mutex_);
  integrate_queue();
  const std::size_t terminal = dispatch_due(/*draining=*/false, inline_state_);
  pump_telemetry();
  return terminal;
}

std::size_t ServingEngine::in_flight() const {
  return queue_.size() + batcher_pending_.load(std::memory_order_relaxed);
}

void ServingEngine::worker_loop(std::size_t worker) {
  (void)worker;
  WorkerState state;
  state.workspaces.resize(models_.size());
  for (;;) {
    dispatch_due(/*draining=*/false, state);
    pump_telemetry();
    std::uint64_t wake = earliest_wake();
    if (telemetry_ != nullptr) {
      // Do not sleep past the next telemetry sample.
      wake = std::min(wake, telemetry_->next_due_ns());
    }
    Request request;
    const PopResult popped = queue_.pop_until(request, *clock_, wake);
    if (popped == PopResult::kItem) {
      integrate_request(std::move(request), clock_->now_ns());
      slo_.set_queue_depth(queue_.size());
      integrate_queue();  // opportunistically grab anything else queued
      continue;
    }
    if (popped == PopResult::kTimeout) continue;  // a batcher/sample is due
    // kClosed: queue drained. Serve (or abort) what this worker can see and
    // exit. A racing worker that integrates a last request after our drain
    // performs its own kClosed drain, so nothing is stranded.
    dispatch_due(/*draining=*/true, state);
    return;
  }
}

void ServingEngine::shutdown(bool drain) {
  std::call_once(shutdown_once_, [&] {
    drain_on_shutdown_.store(drain, std::memory_order_release);
    accepting_.store(false, std::memory_order_release);
    queue_.close();
    for (std::thread& t : workers_) t.join();
    // Inline mode (and belt-and-braces after workers exit): integrate any
    // stragglers and drain the batchers so every accepted future resolves.
    std::lock_guard<std::mutex> lock(inline_mutex_);
    integrate_queue();
    dispatch_due(/*draining=*/true, inline_state_);
    slo_.set_queue_depth(0);
    // Score the partial energy window so the final accounting is complete.
    energy_watchdog_.flush(clock_->now_ns());
    publish_energy();
    // Final state of the run, regardless of where the interval stood.
    pump_telemetry(/*force=*/true);
  });
}

void ServingEngine::pump_telemetry(bool force) {
  if (telemetry_ == nullptr) return;
  if (!force && !telemetry_->due()) return;
  telemetry_->sample([this](std::ostream& os) { write_telemetry_body(os); },
                     force);
}

void ServingEngine::write_telemetry_body(std::ostream& os) {
  os << std::setprecision(17);
  os << ",\"queue_depth\":" << queue_.size() << ",\"in_flight\":"
     << in_flight() << ",\"models\":[";
  const std::vector<SloSummary> summaries = slo_.summaries();
  for (std::size_t m = 0; m < summaries.size(); ++m) {
    const SloSummary& s = summaries[m];
    if (m != 0) os << ",";
    os << "{\"model\":\"" << json_escape(s.model) << "\""
       << ",\"submitted\":" << s.submitted << ",\"accepted\":" << s.accepted
       << ",\"completed\":" << s.completed << ",\"rejected\":" << s.rejected
       << ",\"expired\":" << s.expired << ",\"slo_miss\":" << s.slo_miss
       << ",\"batches\":" << s.batches << ",\"mean_batch\":" << s.mean_batch
       << ",\"latency_ms\":{\"p50\":" << s.p50_ms << ",\"p95\":" << s.p95_ms
       << ",\"p99\":" << s.p99_ms << ",\"mean\":" << s.mean_ms << "}"
       << ",\"phase_ms\":{\"queue_mean\":" << s.queue_mean_ms
       << ",\"batch_mean\":" << s.batch_mean_ms
       << ",\"compute_mean\":" << s.compute_mean_ms << "}"
       << ",\"exits\":[";
    for (std::size_t e = 0; e < s.exits.size(); ++e) {
      os << (e == 0 ? "" : ",") << s.exits[e];
    }
    os << "],\"drift\":{\"windows\":" << s.drift_windows
       << ",\"events\":" << s.drift_events << ",\"score\":" << s.drift_score
       << ",\"max_score\":" << s.drift_max_score
       << ",\"first_drift_window\":" << s.first_drift_window << "}"
       << ",\"energy_pj\":{\"p50\":" << s.energy_p50_pj
       << ",\"p95\":" << s.energy_p95_pj << ",\"p99\":" << s.energy_p99_pj
       << ",\"mean\":" << s.energy_mean_pj << ",\"max\":" << s.energy_max_pj
       << ",\"total\":" << s.energy_total_pj << "}}";
  }
  os << "],\"energy_budget\":{\"enabled\":"
     << (energy_watchdog_.enabled() ? "true" : "false")
     << ",\"budget_mj_per_s\":" << energy_watchdog_.config().budget_mj_per_s
     << ",\"windows\":" << energy_watchdog_.windows_scored()
     << ",\"breaches\":" << energy_watchdog_.breaches()
     << ",\"rate_mj_per_s\":" << energy_watchdog_.latest_rate_mj_per_s()
     << ",\"max_rate_mj_per_s\":" << energy_watchdog_.max_rate_mj_per_s()
     << ",\"first_breach_window\":" << energy_watchdog_.first_breach_window()
     << ",\"total_energy_pj\":" << energy_watchdog_.total_energy_pj() << "}";
}

}  // namespace cdl::serve
