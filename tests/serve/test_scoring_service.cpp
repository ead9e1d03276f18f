// ScoringService behavior: parity with sequential scanning (bit-identical
// verdicts for any worker count), deterministic natural batching and
// deadline policy under FakeClock (manual-pump mode), backpressure,
// shutdown semantics, and hot-swap under concurrency.
#include "serve/scoring_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "runtime/clock.hpp"

namespace mev::serve {
namespace {

constexpr std::size_t kDim = data::kNumApiFeatures;

math::Matrix random_counts(std::size_t rows, std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, kDim);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.poisson(3.0));
  return m;
}

features::FeaturePipeline make_pipeline(std::uint64_t seed) {
  auto transform = std::make_unique<features::CountTransform>();
  transform->fit(random_counts(64, seed));
  return features::FeaturePipeline(data::ApiVocab::instance(),
                                   std::move(transform));
}

std::shared_ptr<nn::Network> make_network(std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.dims = {kDim, 16, 2};
  cfg.seed = seed;
  return std::make_shared<nn::Network>(nn::make_mlp(cfg));
}

/// An untrained (but deterministic) model is all parity tests need.
struct Fixture {
  features::FeaturePipeline pipeline = make_pipeline(7);
  std::shared_ptr<nn::Network> network = make_network(11);
  core::MalwareDetector reference{pipeline, network};

  ScoringService make_service(ServiceConfig config) {
    return ScoringService(pipeline, network, config);
  }
};

void expect_same_verdicts(const std::vector<core::Verdict>& got,
                          const std::vector<core::Verdict>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].predicted_class, want[i].predicted_class) << i;
    // Bit-identical, not approximately equal: the service runs the same
    // scan_counts code path and per-row results are independent of batch
    // composition.
    EXPECT_EQ(got[i].malware_confidence, want[i].malware_confidence) << i;
  }
}

TEST(ScoringService, ManualModeParityWithSequentialScan) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 8;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  const math::Matrix all = random_counts(20, 42);
  std::vector<ScoreFuture> futures;
  // Mixed request sizes: 1, 2, 3, ... rows — batches will straddle them.
  std::size_t row = 0;
  for (std::size_t n = 1; row + n <= all.rows(); ++n) {
    futures.push_back(service.submit(all.slice_rows(row, row + n)));
    row += n;
  }
  while (service.pump() > 0) {
  }

  const auto want = f.reference.scan_counts(all);
  std::size_t offset = 0;
  for (auto& future : futures) {
    ScoreResult result = future.get();
    ASSERT_TRUE(result.ok());
    const std::vector<core::Verdict> expected(
        want.begin() + offset, want.begin() + offset + result.verdicts.size());
    expect_same_verdicts(result.verdicts, expected);
    offset += result.verdicts.size();
  }
  EXPECT_EQ(offset, row);
}

TEST(ScoringService, ThreadedParityAnyWorkerCountAnyWindow) {
  // Which requests share a batch depends only on scheduling; verdicts
  // must not.
  Fixture f;
  const math::Matrix all = random_counts(120, 43);
  const auto want = f.reference.scan_counts(all);

  for (std::size_t workers : {1u, 4u}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.max_batch_rows = 16;
    auto service = f.make_service(cfg);
    std::vector<ScoreFuture> futures;
    for (std::size_t r = 0; r < all.rows(); r += 3)
      futures.push_back(
          service.submit(all.slice_rows(r, std::min(r + 3, all.rows()))));
    std::size_t offset = 0;
    for (auto& future : futures) {
      ScoreResult result = future.get();
      ASSERT_TRUE(result.ok());
      const std::vector<core::Verdict> expected(
          want.begin() + offset,
          want.begin() + offset + result.verdicts.size());
      expect_same_verdicts(result.verdicts, expected);
      offset += result.verdicts.size();
    }
    EXPECT_EQ(offset, all.rows());
  }
}

TEST(ScoringService, FullBatchFlushesWithoutClockAdvance) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 4;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto future = service.submit(random_counts(4, 1));
  // Batch is full: scored on the next pump with no time passing.
  EXPECT_EQ(service.pump(), 4u);
  EXPECT_TRUE(future.get().ok());
}

TEST(ScoringService, LoneRowScoredByFirstPumpWithoutClockAdvance) {
  // Natural batching: a 1-row request in an otherwise empty service is a
  // batch by itself — no co-rider window, no clock advance.
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 64;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  const math::Matrix row = random_counts(1, 2);
  auto future = service.submit(row);
  EXPECT_EQ(service.pump(), 1u);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ScoreResult result = future.get();
  ASSERT_TRUE(result.ok());
  expect_same_verdicts(result.verdicts, f.reference.scan_counts(row));
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.completed_rows, 1u);
  EXPECT_EQ(stats.queue_delay_us.max(), 0u);  // FakeClock never moved
  EXPECT_EQ(service.pump(), 0u);
}

TEST(ScoringService, BacklogFormsFifoBatchesOfWholeRequests) {
  // A backlog that piled up while no worker was free is taken in natural
  // batches: whole requests, FIFO, each at most max_batch_rows rows —
  // except a request larger than the cap, which forms its own batch.
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 8;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  const std::vector<std::size_t> sizes = {3, 3, 3, 20, 2, 1, 5, 4};
  std::vector<math::Matrix> inputs;
  std::vector<ScoreFuture> futures;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    inputs.push_back(random_counts(sizes[i], 60 + i));
    futures.push_back(service.submit(inputs.back()));
  }

  // Each pump scores one batch; `done` is how many requests (a FIFO
  // prefix) have completed after it.
  const std::vector<std::size_t> batch_rows = {6, 3, 20, 8, 4};
  const std::vector<std::size_t> done = {2, 3, 4, 7, 8};
  for (std::size_t b = 0; b < batch_rows.size(); ++b) {
    EXPECT_EQ(service.pump(), batch_rows[b]) << "batch " << b;
    for (std::size_t i = 0; i < futures.size(); ++i)
      EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready,
                i < done[b])
          << "batch " << b << " request " << i;
  }
  EXPECT_EQ(service.pump(), 0u);

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ScoreResult result = futures[i].get();
    ASSERT_TRUE(result.ok()) << i;
    expect_same_verdicts(result.verdicts, f.reference.scan_counts(inputs[i]));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, batch_rows.size());
  EXPECT_EQ(stats.batch_rows.max(), 20u);
  EXPECT_EQ(stats.completed_rows, 41u);
}

TEST(ScoringService, DeadlinePassedInRingIsRejectedWithoutAScan) {
  Fixture f;
  runtime::FakeClock clock(10);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  SubmitOptions options;
  options.deadline_ms = 5;
  auto doomed = service.submit(random_counts(2, 70), options);
  clock.advance(5);  // the deadline passes while the request sits in a ring
  EXPECT_EQ(service.pump(), 0u);

  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ScoreResult result = doomed.get();
  EXPECT_EQ(result.rejected, RejectReason::kDeadline);
  EXPECT_TRUE(result.verdicts.empty());
  const auto stats = service.stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.batches, 0u);  // no scan call was spent on it
  EXPECT_EQ(stats.completed_rows, 0u);
}

TEST(ScoringService, ThreadedWorkerNeverParksWithPendingWork) {
  // A frozen FakeClock: no amount of waiting makes time pass, so any
  // request a worker parked on (waiting for a window or a co-rider) would
  // never complete. Every request must still resolve, for one worker and
  // for several racing submitters.
  Fixture f;
  runtime::FakeClock clock(1000);
  for (std::size_t workers : {1u, 3u}) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.max_batch_rows = 8;
    cfg.max_queue_rows = 1u << 20;
    cfg.clock = &clock;
    auto service = f.make_service(cfg);

    // A lone row, then a burst from several threads.
    auto lone = service.submit(random_counts(1, 80));
    ASSERT_EQ(lone.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
    EXPECT_TRUE(lone.get().ok());

    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kPerProducer = 30;
    std::vector<std::vector<ScoreFuture>> futures(kProducers);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
      producers.emplace_back([&, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i)
          futures[p].push_back(
              service.submit(random_counts(1 + i % 2, 90 + p * 100 + i)));
      });
    for (auto& t : producers) t.join();
    for (auto& per_producer : futures)
      for (auto& future : per_producer) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "workers=" << workers;
        EXPECT_TRUE(future.get().ok());
      }
    const auto stats = service.stats();
    EXPECT_EQ(stats.completed_requests, 1 + kProducers * kPerProducer);
  }
}

TEST(ScoringService, ExpiredDeadlineIsRejectedNotScored) {
  Fixture f;
  runtime::FakeClock clock(50);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  SubmitOptions options;
  options.deadline_ms = 5;
  auto doomed = service.submit(random_counts(3, 3), options);
  auto alive = service.submit(random_counts(2, 4));
  clock.advance(10);  // past the deadline while both sit in a ring
  service.pump();

  const ScoreResult rejected = doomed.get();
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.rejected, RejectReason::kDeadline);
  EXPECT_TRUE(rejected.verdicts.empty());
  EXPECT_TRUE(alive.get().ok());

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.expired_in_queue, 1u);  // aged out waiting in the queue
  EXPECT_EQ(stats.completed_requests, 1u);
  EXPECT_EQ(stats.completed_rows, 2u);  // the doomed rows never ran
}

TEST(ScoringService, ExpiredAbsoluteDeadlineRejectedAtAdmission) {
  Fixture f;
  runtime::FakeClock clock(100);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  // The propagation form: an upstream hop forwards an absolute deadline
  // that has already passed. Rejected synchronously, before admission
  // charges the queue.
  SubmitOptions options;
  options.deadline_at_ms = 50;
  auto dead_on_arrival = service.submit(random_counts(2, 30), options);
  ASSERT_EQ(dead_on_arrival.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(dead_on_arrival.get().rejected, RejectReason::kDeadline);

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.expired_at_admission, 1u);
  EXPECT_EQ(stats.accepted_requests, 0u);  // never consumed queue capacity
}

TEST(ScoringService, EarlierOfRelativeAndAbsoluteDeadlineWins) {
  Fixture f;
  runtime::FakeClock clock(100);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  // Absolute 110 beats relative 100+100: expired once the clock hits 110.
  SubmitOptions tight_absolute;
  tight_absolute.deadline_ms = 100;
  tight_absolute.deadline_at_ms = 110;
  auto a = service.submit(random_counts(1, 31), tight_absolute);
  // Relative 100+5 beats absolute 500.
  SubmitOptions tight_relative;
  tight_relative.deadline_ms = 5;
  tight_relative.deadline_at_ms = 500;
  auto b = service.submit(random_counts(1, 32), tight_relative);
  // A roomy deadline in the same batch survives.
  SubmitOptions roomy;
  roomy.deadline_at_ms = 10'000;
  auto c = service.submit(random_counts(1, 33), roomy);

  clock.advance(15);  // now 115: past both tight deadlines
  service.pump();
  EXPECT_EQ(a.get().rejected, RejectReason::kDeadline);
  EXPECT_EQ(b.get().rejected, RejectReason::kDeadline);
  EXPECT_TRUE(c.get().ok());

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 2u);
  EXPECT_EQ(stats.expired_in_queue, 2u);
  EXPECT_EQ(stats.completed_rows, 1u);
}

TEST(ScoringService, QueueFullRejectsImmediately) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_queue_rows = 8;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto accepted = service.submit(random_counts(8, 5));
  auto rejected = service.submit(random_counts(1, 6));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().rejected, RejectReason::kQueueFull);

  while (service.pump() > 0) {
  }
  EXPECT_TRUE(accepted.get().ok());
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.accepted_requests, 1u);
}

TEST(ScoringService, ShutdownDrainScoresPending) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto pending = service.submit(random_counts(3, 7));
  service.shutdown(/*drain=*/true);
  EXPECT_TRUE(pending.get().ok());

  auto late = service.submit(random_counts(1, 8));
  EXPECT_EQ(late.get().rejected, RejectReason::kShuttingDown);
  EXPECT_EQ(service.stats().rejected_shutting_down, 1u);
}

TEST(ScoringService, ShutdownWithoutDrainRejectsPending) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto pending = service.submit(random_counts(3, 9));
  service.shutdown(/*drain=*/false);
  EXPECT_EQ(pending.get().rejected, RejectReason::kShuttingDown);
  EXPECT_EQ(service.stats().completed_rows, 0u);
}

TEST(ScoringService, DestructorDrainsInFlightWork) {
  Fixture f;
  ScoreFuture future;
  {
    ServiceConfig cfg;
    cfg.workers = 2;
    auto service = f.make_service(cfg);
    future = service.submit(random_counts(5, 10));
  }  // ~ScoringService: drain
  EXPECT_TRUE(future.get().ok());
}

TEST(ScoringService, EmptySubmissionCompletesImmediately) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);
  auto future = service.submit(math::Matrix(0, kDim));
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ScoreResult result = future.get();
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.verdicts.empty());
  EXPECT_EQ(result.model_version, 1u);
}

TEST(ScoringService, WrongColumnCountThrows) {
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 0;
  auto service = f.make_service(cfg);
  EXPECT_THROW(service.submit(math::Matrix(1, 10)), std::invalid_argument);
}

TEST(ScoringService, OutOfDomainCountsThrowOnBothSubmitPaths) {
  // The in-process door enforces the same count domain as the wire
  // decoders: finite and >= 0. Nothing is admitted.
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 0;
  auto service = f.make_service(cfg);
  for (const float bad : {-1.0f, std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    math::Matrix counts = random_counts(2, 12);
    counts(1, 3) = bad;
    EXPECT_THROW(service.submit(counts), std::invalid_argument) << bad;
    EXPECT_THROW(service.submit_with_callback(
                     counts, SubmitOptions{},
                     [](void*, ScoreResult&&) { FAIL(); }, nullptr),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(service.stats().accepted_requests, 0u);
  try {
    math::Matrix counts = random_counts(1, 13);
    counts(0, 5) = -2.0f;
    service.submit(counts);
    FAIL() << "negative count admitted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("row 0 column 5"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScoringService, HotSwapPublishesNewModelAtomically) {
  Fixture f;
  runtime::FakeClock clock;
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);
  EXPECT_EQ(service.model_version(), 1u);

  const math::Matrix counts = random_counts(4, 11);
  const ScoreResult before = service.score(counts);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.model_version, 1u);
  expect_same_verdicts(before.verdicts, f.reference.scan_counts(counts));

  // Roll out a different model (e.g. a retrained/distilled defender).
  auto swapped_network = make_network(99);
  EXPECT_EQ(service.swap_model(make_pipeline(7), swapped_network), 2u);
  EXPECT_EQ(service.model_version(), 2u);

  const ScoreResult after = service.score(counts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.model_version, 2u);
  core::MalwareDetector swapped_reference(make_pipeline(7), swapped_network);
  expect_same_verdicts(after.verdicts, swapped_reference.scan_counts(counts));
}

TEST(ScoringService, HotSwapRejectsMismatchedModel) {
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 0;
  auto service = f.make_service(cfg);
  // Network input dim does not match the pipeline: detector validation.
  nn::MlpConfig bad;
  bad.dims = {10, 2};
  auto bad_network = std::make_shared<nn::Network>(nn::make_mlp(bad));
  EXPECT_THROW(service.swap_model(make_pipeline(7), std::move(bad_network)),
               std::invalid_argument);
}

TEST(ScoringService, ConcurrentSubmitAndHotSwapExactlyOnce) {
  Fixture f;
  auto network_b = make_network(99);
  core::MalwareDetector reference_b(make_pipeline(7), network_b);

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_batch_rows = 8;
  cfg.max_queue_rows = 1u << 20;  // no backpressure in this test
  auto service = f.make_service(cfg);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 40;
  std::vector<std::vector<math::Matrix>> inputs(kProducers);
  std::vector<std::vector<ScoreFuture>> futures(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p)
    for (std::size_t i = 0; i < kPerProducer; ++i)
      inputs[p].push_back(random_counts(1 + (i % 3), 1000 + p * 100 + i));

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (auto& m : inputs[p]) futures[p].push_back(service.submit(m));
    });

  // Swap back and forth while traffic flows.
  for (int swap = 0; swap < 6; ++swap) {
    service.swap_model(make_pipeline(7),
                       swap % 2 == 0 ? network_b : f.network);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : producers) t.join();

  std::size_t completed = 0;
  for (std::size_t p = 0; p < kProducers; ++p)
    for (std::size_t i = 0; i < futures[p].size(); ++i) {
      ScoreResult result = futures[p][i].get();
      ASSERT_TRUE(result.ok());
      ++completed;
      // Whichever snapshot scored it, the verdicts must match that
      // snapshot's sequential reference bit-for-bit.
      const auto want_a = f.reference.scan_counts(inputs[p][i]);
      const auto want_b = reference_b.scan_counts(inputs[p][i]);
      ASSERT_EQ(result.verdicts.size(), want_a.size());
      bool matches_a = true, matches_b = true;
      for (std::size_t r = 0; r < result.verdicts.size(); ++r) {
        matches_a &= result.verdicts[r].malware_confidence ==
                     want_a[r].malware_confidence;
        matches_b &= result.verdicts[r].malware_confidence ==
                     want_b[r].malware_confidence;
      }
      EXPECT_TRUE(matches_a || matches_b) << "p=" << p << " i=" << i;
    }
  EXPECT_EQ(completed, kProducers * kPerProducer);

  service.shutdown();
  const auto stats = service.stats();
  // Exactly-once: every accepted request completed (plus nothing extra).
  EXPECT_EQ(stats.accepted_requests, completed);
  EXPECT_EQ(stats.completed_requests, completed);
  EXPECT_EQ(stats.rejected_total(), 0u);
  EXPECT_EQ(stats.model_swaps, 6u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.e2e_latency_us.count(), completed);
}

TEST(ScoringService, ConcurrentCallbackSubmittersExactlyOnce) {
  // The frontend's path: submit_with_callback() from many non-worker
  // threads at once, completions racing on worker threads. Every
  // submission's callback must fire exactly once — no drops, no
  // double-fires — and per-submission verdict counts must match the rows
  // submitted. Runs under the TSan stress filter (ScoringService.Concurrent*).
  Fixture f;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.max_batch_rows = 8;
  cfg.max_queue_rows = 1u << 20;  // no backpressure: every submit lands
  auto service = f.make_service(cfg);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 50;
  struct Completion {
    std::atomic<int> fires{0};
    std::size_t rows = 0;
    std::size_t got_verdicts = 0;
    RejectReason rejected = RejectReason::kNone;
  };
  std::vector<std::vector<Completion>> completions(kProducers);
  for (auto& per_producer : completions)
    per_producer = std::vector<Completion>(kPerProducer);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t rows = 1 + (i % 3);
        completions[p][i].rows = rows;
        service.submit_with_callback(
            random_counts(rows, 5000 + p * 1000 + i), SubmitOptions{},
            [](void* ctx, ScoreResult&& result) {
              auto* completion = static_cast<Completion*>(ctx);
              completion->fires.fetch_add(1, std::memory_order_relaxed);
              completion->got_verdicts = result.verdicts.size();
              completion->rejected = result.rejected;
            },
            &completions[p][i]);
      }
    });
  for (auto& t : producers) t.join();
  service.shutdown(/*drain=*/true);

  std::size_t completed = 0;
  for (std::size_t p = 0; p < kProducers; ++p)
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      const Completion& c = completions[p][i];
      // Exactly once, from whichever thread resolved it.
      ASSERT_EQ(c.fires.load(), 1) << "p=" << p << " i=" << i;
      ASSERT_EQ(c.rejected, RejectReason::kNone) << "p=" << p << " i=" << i;
      EXPECT_EQ(c.got_verdicts, c.rows);
      ++completed;
    }
  EXPECT_EQ(completed, kProducers * kPerProducer);
  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted_requests, completed);
  EXPECT_EQ(stats.completed_requests, completed);
  EXPECT_EQ(stats.rejected_total(), 0u);
}

TEST(ScoringService, StatsHistogramsTrackBatchesAndLatency) {
  Fixture f;
  runtime::FakeClock clock(1000);
  ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_batch_rows = 4;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);

  auto a = service.submit(random_counts(4, 21));  // full batch
  service.pump();
  auto b = service.submit(random_counts(2, 22));  // partial
  clock.advance(10);  // sits in its ring for 10ms before the next pump
  service.pump();
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());

  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.batch_rows.count(), 2u);
  EXPECT_EQ(stats.batch_rows.max(), 4u);
  EXPECT_EQ(stats.queue_delay_us.count(), 2u);
  // The partial batch waited 10ms (FakeClock-derived microseconds).
  EXPECT_EQ(stats.queue_delay_us.max(), 10000u);
  EXPECT_EQ(stats.e2e_latency_us.count(), 2u);
  const LatencySummary s = summarize(stats.e2e_latency_us);
  EXPECT_LE(s.p50, s.p99);
}

}  // namespace
}  // namespace mev::serve
