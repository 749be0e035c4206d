// ServingEngine: turns per-request arrivals into batched cascade work.
//
//   submit() --> bounded MpmcQueue --> per-model DynamicBatcher --> worker
//   threads running ConditionalNetwork::classify_batch_into over warm
//   BatchWorkspaces --> per-request futures + SLO accounting.
//
// Contracts:
//   * Determinism — a served request's ClassificationResult is bit-identical
//     to an offline classify()/classify_batch_into of the same image on the
//     same network, for any arrival order, batch composition, worker count
//     or tile split (inherited from the stage-major batch path's own
//     contract and asserted by test_serving_engine).
//   * Backpressure — a full queue rejects at submit() (status kQueueFull,
//     response kRejected); nothing blocks the caller.
//   * Drain-on-shutdown — shutdown() serves every accepted request before
//     returning; shutdown(/*drain=*/false) fails pending requests with
//     kShutdown instead (abort path). Either way every future is fulfilled.
//   * Deadlines — a request whose deadline passes before dispatch is failed
//     with kExpired (no inference runs); one served after its deadline
//     completes with slo_miss set. Both count toward cdl_serve_slo_miss.
//
// Time comes exclusively from the injected Clock, so the whole engine runs
// under a ManualClock in tests: with workers == 0 nothing blocks and
// run_once() pumps the pipeline deterministically on the caller's thread;
// with real workers the queue's timed waits park on the clock itself and
// wake on virtual-time advances.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cdl/conditional_network.h"
#include "core/thread_pool.h"
#include "obs/registry.h"
#include "serve/batcher.h"
#include "serve/clock.h"
#include "serve/drift.h"
#include "serve/energy_budget.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/slo.h"
#include "serve/telemetry.h"

namespace cdl::serve {

struct EngineConfig {
  std::size_t queue_capacity = 1024;
  /// Dispatcher/executor threads. 0 = inline mode: nothing runs until the
  /// caller pumps run_once() (the deterministic simulation harness).
  std::size_t workers = 1;
  BatcherConfig batcher;
  /// Deadline applied to submits that pass deadline_ns == 0; 0 = none.
  std::uint64_t default_deadline_ns = 0;
  /// Time source; null = RealClock::instance(). Must outlive the engine.
  Clock* clock = nullptr;
  /// Mirrors SLO counters into OpenMetrics families when set (must outlive
  /// the engine). Null = in-memory accounting only.
  obs::Registry* registry = nullptr;
  /// Intra-batch parallelism for classify_batch_into; null = serial per
  /// worker (worker-level parallelism across batches instead).
  ThreadPool* pool = nullptr;
  /// Exit-profile drift monitoring (one ExitDriftMonitor per model, windowed
  /// on the submission sequence — see serve/drift.h for the determinism
  /// contract). Always on; costs one uncontended mutex hop per request.
  DriftConfig drift;
  /// Live telemetry (JSONL snapshots of queue depth, per-model SLO numbers,
  /// exit profile, drift scores and energy accounting). Disabled while
  /// telemetry.path is empty.
  TelemetryConfig telemetry;
  /// Energy-budget watchdog over attributed request energy (see
  /// serve/energy_budget.h). Disabled while budget_mj_per_s == 0; the engine
  /// always attributes per-request energy either way.
  EnergyBudgetConfig energy_budget;
};

enum class SubmitStatus : std::uint8_t {
  kAccepted = 0,
  kQueueFull = 1,     ///< backpressure: bounded queue rejected the request
  kUnknownModel = 2,
  kShutdown = 3,      ///< engine no longer accepting
  kBadShape = 4,      ///< input shape is not the model's input_shape()
};

[[nodiscard]] const char* to_string(SubmitStatus s);

/// submit()'s receipt: the future is valid on every path — immediately
/// fulfilled with a kRejected response when status != kAccepted.
struct Submitted {
  SubmitStatus status = SubmitStatus::kAccepted;
  std::future<Response> response;
};

class ServingEngine {
 public:
  /// Takes ownership of the registry's networks. Worker threads start
  /// immediately (none in inline mode). Throws std::invalid_argument on an
  /// empty model registry.
  ServingEngine(ModelRegistry models, EngineConfig config);
  ~ServingEngine();  ///< shutdown(/*drain=*/true) if still running

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues one image for `model`. `deadline_ns` is relative to the
  /// submission time (0 = EngineConfig::default_deadline_ns; that being 0
  /// too = no deadline). Never blocks. An input whose shape differs from the
  /// model's input_shape() is rejected (kBadShape, counted as rejected).
  [[nodiscard]] Submitted submit(std::size_t model, Tensor input,
                                 std::uint64_t deadline_ns = 0);
  [[nodiscard]] Submitted submit(const std::string& model, Tensor input,
                                 std::uint64_t deadline_ns = 0);

  /// Inline pump (workers == 0, or tests that want explicit control):
  /// integrates every queued request into the batchers, expires dead
  /// requests, dispatches every due batch, and returns the number of
  /// requests that reached a terminal state. Never blocks.
  std::size_t run_once();

  /// Stops accepting, then serves (drain = true) or fails with kShutdown
  /// (drain = false) everything accepted, joins the workers, and fulfills
  /// every outstanding future. Idempotent.
  void shutdown(bool drain = true);

  [[nodiscard]] const ModelRegistry& models() const { return models_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const Clock& clock() const { return *clock_; }
  [[nodiscard]] SloTracker& slo() { return slo_; }
  /// The per-model drift monitor, e.g. to install a reference exit profile
  /// (checkpoint .meta) before traffic arrives. Valid for the engine's life.
  [[nodiscard]] ExitDriftMonitor& drift_monitor(std::size_t model) {
    return *drift_[model];
  }
  /// Null unless EngineConfig::telemetry.path was set.
  [[nodiscard]] TelemetrySnapshotter* telemetry() { return telemetry_.get(); }
  /// The energy-budget watchdog (enabled() false when no budget was set;
  /// totals still accumulate). Valid for the engine's life.
  [[nodiscard]] EnergyBudgetWatchdog& energy_watchdog() {
    return energy_watchdog_;
  }
  /// The precomputed cumulative exit-energy table (pJ, index = exit stage)
  /// responses for `model` are stamped from.
  [[nodiscard]] const std::vector<double>& exit_energy_table(
      std::size_t model) const {
    return exit_energy_[model];
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// Requests accepted but not yet terminal (queued or pending in a
  /// batcher). Engine-wide, approximate while workers are mid-dispatch.
  [[nodiscard]] std::size_t in_flight() const;

 private:
  /// Per-worker reusable execution state: warm workspaces (one per model)
  /// and warm input/result vectors, so steady-state inference stays on the
  /// zero-allocation classify_batch_into path.
  struct WorkerState {
    std::vector<BatchWorkspace> workspaces;  ///< indexed by model
    std::vector<Tensor> inputs;
    std::vector<ClassificationResult> results;
  };

  void worker_loop(std::size_t worker);
  /// Stamps dequeue time (+ queue-wait trace span) and hands the request to
  /// its model's batcher. `now_ns` is the shared engine-clock stamp for this
  /// integration pass (one clock read covers every request popped in it).
  void integrate_request(Request request, std::uint64_t now_ns);
  /// Moves queued requests into their batchers without blocking. Returns
  /// the number integrated.
  std::size_t integrate_queue();
  /// Expires and dispatches due (or, when draining, all pending) batches.
  /// Returns the number of requests that reached a terminal state.
  std::size_t dispatch_due(bool draining, WorkerState& state);
  /// Earliest clock time a batcher needs service; 0 when one is ready now.
  [[nodiscard]] std::uint64_t earliest_wake();
  void execute_batch(std::size_t model, std::vector<Request> batch,
                     WorkerState& state);
  void fail_request(Request request, RequestStatus status);
  /// Drains the model's freshly scored drift windows into the SLO tracker
  /// (drift gauge/event counter) and the trace stream.
  void publish_drift(std::size_t model);
  /// Drains the watchdog's freshly closed energy windows into the SLO
  /// tracker (rate gauge / breach counter) and the trace stream.
  void publish_energy();
  /// Writes a telemetry sample when one is due (or `force`). No-op while
  /// telemetry is disabled; costs one clock read + atomic load otherwise.
  void pump_telemetry(bool force = false);
  void write_telemetry_body(std::ostream& os);

  ModelRegistry models_;
  EngineConfig config_;
  Clock* clock_;
  SloTracker slo_;
  MpmcQueue<Request> queue_;
  /// One drift monitor per model (unique_ptr: the monitor owns a mutex).
  std::vector<std::unique_ptr<ExitDriftMonitor>> drift_;
  EnergyBudgetWatchdog energy_watchdog_;
  /// Per-model cumulative exit-energy tables (pJ, index = exit stage),
  /// precomputed at construction so stamping a response is one lookup.
  std::vector<std::vector<double>> exit_energy_;
  std::unique_ptr<TelemetrySnapshotter> telemetry_;
  std::atomic<std::uint64_t> next_id_{1};
  /// Dense per-model submission sequences backing Request::seq.
  std::vector<std::atomic<std::uint64_t>> next_seq_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> drain_on_shutdown_{true};
  std::atomic<std::uint64_t> batcher_pending_{0};

  std::mutex batch_mutex_;  ///< guards batchers_ (state machines)
  std::vector<DynamicBatcher> batchers_;  ///< one per model

  std::once_flag shutdown_once_;
  std::vector<std::thread> workers_;
  WorkerState inline_state_;  ///< run_once()'s execution state
  std::mutex inline_mutex_;   ///< serializes run_once callers
};

}  // namespace cdl::serve
