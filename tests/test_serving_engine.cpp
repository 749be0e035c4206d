// ServingEngine end to end: inline-mode behaviors replayed on a ManualClock
// (batching, deadlines, backpressure, shutdown drain/abort) and the serving
// determinism property — every served response is bit-identical to an offline
// classify() of the same image, for any arrival order, max_batch and worker
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cdl/conditional_network.h"
#include "core/rng.h"
#include "obs/registry.h"
#include "serve/engine.h"
#include "test_util.h"

namespace cdl::serve {
namespace {

using cdl::test::conv_cdln;
using cdl::test::random_image;

const Shape kImageShape{1, 12, 12};

ModelRegistry one_model(std::uint64_t seed = 7) {
  Rng rng(seed);
  ModelRegistry models;
  models.add("cascade", conv_cdln(ConvAlgo::kIm2col, rng));
  return models;
}

std::vector<Tensor> make_inputs(std::size_t count, std::uint64_t seed) {
  std::vector<Tensor> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    inputs.push_back(random_image(kImageShape, seed + i));
  }
  return inputs;
}

void expect_identical(const ClassificationResult& got,
                      const ClassificationResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.label, want.label) << context;
  EXPECT_EQ(got.exit_stage, want.exit_stage) << context;
  EXPECT_EQ(got.confidence, want.confidence) << context;
  EXPECT_EQ(got.probabilities, want.probabilities) << context;
  EXPECT_EQ(got.ops, want.ops) << context;
}

TEST(ServingEngine, RejectsEmptyRegistry) {
  EngineConfig config;
  config.workers = 0;
  EXPECT_THROW(ServingEngine(ModelRegistry{}, config), std::invalid_argument);
}

TEST(ServingEngine, SizeTriggerServesWithoutTimeAdvancing) {
  ManualClock clock(1000);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_batch = 3;
  config.batcher.max_delay_ns = 1'000'000;
  ServingEngine engine(one_model(), config);

  const std::vector<Tensor> inputs = make_inputs(3, 100);
  std::vector<Submitted> receipts;
  for (const Tensor& x : inputs) {
    receipts.push_back(engine.submit(0, Tensor(x)));
    ASSERT_EQ(receipts.back().status, SubmitStatus::kAccepted);
  }
  EXPECT_EQ(engine.in_flight(), 3U);
  EXPECT_EQ(engine.run_once(), 3U);  // full batch: no clock advance needed
  EXPECT_EQ(engine.in_flight(), 0U);
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    Response resp = receipts[i].response.get();
    EXPECT_EQ(resp.status, RequestStatus::kOk);
    EXPECT_EQ(resp.batch_size, 3U);
    expect_identical(resp.result, engine.models().net(0).classify(inputs[i]),
                     "request " + std::to_string(i));
  }
}

TEST(ServingEngine, TimeoutTriggerServesPartialBatchAtVirtualDeadline) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_batch = 64;
  config.batcher.max_delay_ns = 2'000'000;
  ServingEngine engine(one_model(), config);

  Submitted receipt = engine.submit(0, random_image(kImageShape, 5));
  ASSERT_EQ(receipt.status, SubmitStatus::kAccepted);
  EXPECT_EQ(engine.run_once(), 0U) << "fresh request: batcher must wait";
  clock.advance(1'999'999);
  EXPECT_EQ(engine.run_once(), 0U) << "one tick before max_delay";
  clock.advance(1);
  EXPECT_EQ(engine.run_once(), 1U) << "timeout trigger at exact virtual time";
  Response resp = receipt.response.get();
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_EQ(resp.batch_size, 1U);
  EXPECT_EQ(resp.latency_ns, 2'000'000U);  // exact on the manual clock
}

TEST(ServingEngine, BackpressureRejectsWhenQueueFull) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;  // nobody drains the queue between submits
  config.clock = &clock;
  config.queue_capacity = 2;
  ServingEngine engine(one_model(), config);

  Submitted a = engine.submit(0, random_image(kImageShape, 1));
  Submitted b = engine.submit(0, random_image(kImageShape, 2));
  Submitted c = engine.submit(0, random_image(kImageShape, 3));
  EXPECT_EQ(a.status, SubmitStatus::kAccepted);
  EXPECT_EQ(b.status, SubmitStatus::kAccepted);
  EXPECT_EQ(c.status, SubmitStatus::kQueueFull);
  Response rejected = c.response.get();  // already fulfilled: never blocks
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);

  const SloSummary slo = engine.slo().summary(0);
  EXPECT_EQ(slo.submitted, 3U);
  EXPECT_EQ(slo.accepted, 2U);
  EXPECT_EQ(slo.rejected, 1U);
  engine.shutdown();  // drains a and b
  EXPECT_EQ(a.response.get().status, RequestStatus::kOk);
  EXPECT_EQ(b.response.get().status, RequestStatus::kOk);
}

TEST(ServingEngine, UnknownModelRejectsImmediately) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  ServingEngine engine(one_model(), config);

  Submitted by_index = engine.submit(99, random_image(kImageShape, 1));
  EXPECT_EQ(by_index.status, SubmitStatus::kUnknownModel);
  EXPECT_EQ(by_index.response.get().status, RequestStatus::kRejected);
  Submitted by_name = engine.submit("nope", random_image(kImageShape, 1));
  EXPECT_EQ(by_name.status, SubmitStatus::kUnknownModel);
  EXPECT_EQ(by_name.response.get().status, RequestStatus::kRejected);
}

TEST(ServingEngine, DeadlineExpiresBeforeDispatch) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_batch = 64;
  config.batcher.max_delay_ns = 10'000'000;
  ServingEngine engine(one_model(), config);

  Submitted doomed =
      engine.submit(0, random_image(kImageShape, 1), /*deadline_ns=*/500'000);
  Submitted healthy = engine.submit(0, random_image(kImageShape, 2));
  ASSERT_EQ(doomed.status, SubmitStatus::kAccepted);
  clock.advance(500'000);  // exactly the deadline instant: dead
  EXPECT_EQ(engine.run_once(), 1U);
  Response resp = doomed.response.get();
  EXPECT_EQ(resp.status, RequestStatus::kExpired);
  EXPECT_TRUE(resp.slo_miss);
  EXPECT_EQ(resp.latency_ns, 500'000U);

  const SloSummary slo = engine.slo().summary(0);
  EXPECT_EQ(slo.expired, 1U);
  EXPECT_EQ(slo.slo_miss, 1U);
  EXPECT_EQ(slo.completed, 0U) << "no inference ran for the expired request";
  engine.shutdown();
  EXPECT_EQ(healthy.response.get().status, RequestStatus::kOk);
}

TEST(ServingEngine, DefaultDeadlineAppliesToSubmits) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_delay_ns = 10'000'000;
  config.default_deadline_ns = 1'000;
  ServingEngine engine(one_model(), config);
  Submitted receipt = engine.submit(0, random_image(kImageShape, 1));
  clock.advance(1'000);
  EXPECT_EQ(engine.run_once(), 1U);
  EXPECT_EQ(receipt.response.get().status, RequestStatus::kExpired);
}

TEST(ServingEngine, ShutdownDrainsEveryAcceptedRequest) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_batch = 64;
  config.batcher.max_delay_ns = 10'000'000;
  ServingEngine engine(one_model(), config);

  const std::vector<Tensor> inputs = make_inputs(5, 300);
  std::vector<Submitted> receipts;
  for (const Tensor& x : inputs) receipts.push_back(engine.submit(0, Tensor(x)));
  engine.shutdown();  // no clock advance: drain must not wait for timeouts
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    Response resp = receipts[i].response.get();
    ASSERT_EQ(resp.status, RequestStatus::kOk) << "request " << i;
    expect_identical(resp.result, engine.models().net(0).classify(inputs[i]),
                     "drained request " + std::to_string(i));
  }
  // Post-shutdown submits are turned away, not queued forever.
  Submitted late = engine.submit(0, random_image(kImageShape, 9));
  EXPECT_EQ(late.status, SubmitStatus::kShutdown);
  EXPECT_EQ(late.response.get().status, RequestStatus::kRejected);
}

TEST(ServingEngine, AbortShutdownFailsPendingWithShutdownStatus) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_delay_ns = 10'000'000;
  ServingEngine engine(one_model(), config);

  Submitted a = engine.submit(0, random_image(kImageShape, 1));
  Submitted b = engine.submit(0, random_image(kImageShape, 2));
  engine.shutdown(/*drain=*/false);
  EXPECT_EQ(a.response.get().status, RequestStatus::kShutdown);
  EXPECT_EQ(b.response.get().status, RequestStatus::kShutdown);
  const SloSummary slo = engine.slo().summary(0);
  EXPECT_EQ(slo.shutdown, 2U);
  EXPECT_EQ(slo.completed, 0U);
}

TEST(ServingEngine, ExportsOpenMetricsFamilies) {
  obs::Registry registry;
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.registry = &registry;
  config.batcher.max_batch = 2;
  ServingEngine engine(one_model(), config);

  Submitted a = engine.submit(0, random_image(kImageShape, 1));
  Submitted b = engine.submit(0, random_image(kImageShape, 2));
  EXPECT_EQ(engine.run_once(), 2U);
  (void)a.response.get();
  (void)b.response.get();
  const std::string text = registry.openmetrics();
  EXPECT_NE(text.find("cdl_serve_requests_total"), std::string::npos);
  EXPECT_NE(text.find("model=\"cascade\""), std::string::npos);
  EXPECT_NE(text.find("cdl_serve_latency_ms"), std::string::npos);
  EXPECT_NE(text.find("cdl_serve_batches_total"), std::string::npos);
  EXPECT_NE(text.find("cdl_serve_queue_depth"), std::string::npos);
}

TEST(ServingEngine, MultiModelRoutesByNameAndAccountsSeparately) {
  ManualClock clock(0);
  Rng rng_a(11);
  Rng rng_b(22);
  ModelRegistry models;
  models.add("alpha", conv_cdln(ConvAlgo::kIm2col, rng_a));
  models.add("beta", conv_cdln(ConvAlgo::kIm2col, rng_b));
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_batch = 1;  // dispatch per request
  ServingEngine engine(std::move(models), config);

  const Tensor image = random_image(kImageShape, 77);
  Submitted to_a = engine.submit("alpha", Tensor(image));
  Submitted to_b = engine.submit("beta", Tensor(image));
  EXPECT_EQ(engine.run_once(), 2U);
  expect_identical(to_a.response.get().result,
                   engine.models().net(0).classify(image), "alpha");
  expect_identical(to_b.response.get().result,
                   engine.models().net(1).classify(image), "beta");
  EXPECT_EQ(engine.slo().summary(0).completed, 1U);
  EXPECT_EQ(engine.slo().summary(1).completed, 1U);
  EXPECT_EQ(engine.slo().summary(0).model, "alpha");
  EXPECT_EQ(engine.slo().summary(1).model, "beta");
}

/// The serving determinism property (the PR's acceptance criterion): for any
/// arrival order, any max_batch (hence any dynamic batch composition) and
/// any worker count, every served response is bit-identical to an offline
/// classify() of the same image.
TEST(ServingEngine, ServedResultsBitIdenticalToOfflineForAnyBatching) {
  constexpr std::size_t kImages = 24;
  Rng net_rng(7);
  const ConditionalNetwork reference_net = conv_cdln(ConvAlgo::kIm2col, net_rng);
  const std::vector<Tensor> inputs = make_inputs(kImages, 9000);
  std::vector<ClassificationResult> reference;
  reference.reserve(kImages);
  for (const Tensor& x : inputs) reference.push_back(reference_net.classify(x));

  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> forward(kImages);
  std::iota(forward.begin(), forward.end(), 0U);
  orders.push_back(forward);
  std::vector<std::size_t> reversed = forward;
  std::reverse(reversed.begin(), reversed.end());
  orders.push_back(reversed);
  std::vector<std::size_t> shuffled = forward;
  Rng order_rng(123);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[order_rng.index(i)]);
  }
  orders.push_back(shuffled);

  for (const std::size_t max_batch : {1U, 3U, 16U}) {
    for (const std::size_t workers : {0U, 2U}) {
      for (std::size_t o = 0; o < orders.size(); ++o) {
        Rng engine_rng(7);  // fresh but identical network per engine
        ModelRegistry models;
        models.add("cascade", conv_cdln(ConvAlgo::kIm2col, engine_rng));
        ManualClock clock(0);
        EngineConfig config;
        config.workers = workers;
        config.queue_capacity = kImages;
        config.batcher.max_batch = max_batch;
        config.batcher.max_delay_ns = 50'000;
        if (workers == 0) config.clock = &clock;  // inline: fully virtual
        ServingEngine engine(std::move(models), config);

        std::vector<std::future<Response>> futures(kImages);
        for (const std::size_t index : orders[o]) {
          Submitted receipt = engine.submit(0, Tensor(inputs[index]));
          ASSERT_EQ(receipt.status, SubmitStatus::kAccepted);
          futures[index] = std::move(receipt.response);
        }
        engine.shutdown();  // drains everything regardless of triggers
        for (std::size_t i = 0; i < kImages; ++i) {
          Response resp = futures[i].get();
          ASSERT_EQ(resp.status, RequestStatus::kOk);
          expect_identical(resp.result, reference[i],
                           "image " + std::to_string(i) + " order " +
                               std::to_string(o) + " max_batch " +
                               std::to_string(max_batch) + " workers " +
                               std::to_string(workers));
        }
      }
    }
  }
}

/// Worker threads parked on a ManualClock wake on virtual-time advances: the
/// full threaded pipeline runs deterministically with no real sleeps.
TEST(ServingEngine, ThreadedWorkersServeOnManualClock) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 1;
  config.clock = &clock;
  config.batcher.max_batch = 64;  // only the timeout trigger can dispatch
  config.batcher.max_delay_ns = 1'000'000;
  ServingEngine engine(one_model(), config);

  const Tensor image = random_image(kImageShape, 42);
  Submitted receipt = engine.submit(0, Tensor(image));
  ASSERT_EQ(receipt.status, SubmitStatus::kAccepted);
  clock.advance(1'000'000);  // reach the timeout trigger in virtual time
  Response resp = receipt.response.get();  // event wait, not a sleep
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  expect_identical(resp.result, engine.models().net(0).classify(image),
                   "threaded manual clock");
  engine.shutdown();
}

/// A wrong-shape tensor is refused at submit, so it never reaches a batch:
/// the requests around it are served as if it had not been sent.
TEST(ServingEngine, WrongShapeIsRejectedAndItsBatchStillServes) {
  ManualClock clock(0);
  EngineConfig config;
  config.workers = 0;
  config.clock = &clock;
  config.batcher.max_batch = 4;
  config.batcher.max_delay_ns = 1'000'000;
  ServingEngine engine(one_model(), config);

  const std::vector<Tensor> inputs = make_inputs(4, 300);
  std::vector<Submitted> receipts;
  receipts.push_back(engine.submit(0, Tensor(inputs[0])));
  receipts.push_back(engine.submit(0, Tensor(inputs[1])));
  // Same element count as a real image, wrong shape.
  Submitted bad = engine.submit(0, random_image(Shape{12, 12}, 9));
  receipts.push_back(engine.submit(0, Tensor(inputs[2])));
  receipts.push_back(engine.submit(0, Tensor(inputs[3])));
  EXPECT_EQ(bad.status, SubmitStatus::kBadShape);
  EXPECT_EQ(bad.response.get().status, RequestStatus::kRejected);

  EXPECT_EQ(engine.run_once(), 4U) << "the four good requests fill the batch";
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    ASSERT_EQ(receipts[i].status, SubmitStatus::kAccepted);
    Response resp = receipts[i].response.get();
    EXPECT_EQ(resp.status, RequestStatus::kOk);
    EXPECT_EQ(resp.batch_size, 4U);
    expect_identical(resp.result, engine.models().net(0).classify(inputs[i]),
                     "request " + std::to_string(i));
  }
  const SloSummary slo = engine.slo().summary(0);
  EXPECT_EQ(slo.submitted, 5U);
  EXPECT_EQ(slo.accepted, 4U);
  EXPECT_EQ(slo.rejected, 1U);
  EXPECT_EQ(slo.completed, 4U);
}

/// Acceptance is counted before a worker can see the request (and withdrawn
/// when the queue refuses it), so a concurrent snapshot never reads more
/// requests finished than accepted.
TEST(ServingEngine, SnapshotsNeverSeeMoreFinishedThanAccepted) {
  EngineConfig config;
  config.workers = 2;
  config.queue_capacity = 8;  // small: part of the load takes the kFull path
  config.batcher.max_batch = 1;  // finish each request as soon as it is seen
  ServingEngine engine(one_model(), config);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> violations{0};
  std::thread reader([&] {
    while (!done.load()) {
      const SloSummary s = engine.slo().summary(0);
      if (s.completed + s.expired > s.accepted) violations.fetch_add(1);
      samples.fetch_add(1);
    }
  });

  constexpr std::size_t kAccepted = 1000;
  const std::vector<Tensor> inputs = make_inputs(8, 500);
  std::vector<std::future<Response>> responses;
  std::uint64_t submitted = 0;
  while (responses.size() < kAccepted) {
    Submitted r = engine.submit(0, Tensor(inputs[submitted++ % 8]));
    if (r.status == SubmitStatus::kAccepted) {
      responses.push_back(std::move(r.response));
    } else {
      // Queue full: the receipt is already resolved, so it is not kept (a
      // loaded host refuses many submits). Let the workers drain the queue.
      EXPECT_EQ(r.status, SubmitStatus::kQueueFull);
      std::this_thread::yield();
    }
  }
  for (std::future<Response>& r : responses) (void)r.get();
  engine.shutdown();
  done.store(true);
  reader.join();

  EXPECT_EQ(violations.load(), 0U)
      << "of " << samples.load() << " snapshots";
  const SloSummary final_slo = engine.slo().summary(0);
  EXPECT_EQ(final_slo.submitted, submitted);
  EXPECT_EQ(final_slo.accepted, kAccepted);
  EXPECT_EQ(final_slo.completed + final_slo.expired + final_slo.shutdown,
            final_slo.accepted);
}

}  // namespace
}  // namespace cdl::serve
