// Unit + property tests for the bounded MPMC queue and the barrier-free
// pipeline scheduler (util/pipeline_scheduler.h): FIFO order per stage,
// blocking push at capacity, no task lost or duplicated across worker
// counts and queue depths, clean shutdown with in-flight work, failure
// isolation + retries, per-item dependency ordering under a seeded random
// perturbation of stage timings, and the fork-join contract of one-stage
// runs.
#include "util/pipeline_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace pinscope::util {
namespace {

using namespace std::chrono_literals;

// --- BoundedMpmcQueue ----------------------------------------------------

TEST(BoundedMpmcQueueTest, PopsInPushOrderFifo) {
  BoundedMpmcQueue<int> queue(128);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(queue.TryPush(i));
  for (int i = 0; i < 100; ++i) {
    const auto popped = queue.TryPop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(*popped, i);
  }
  EXPECT_FALSE(queue.TryPop().has_value());
}

TEST(BoundedMpmcQueueTest, TryPushRefusesWhenFull) {
  BoundedMpmcQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.Size(), 2u);
}

TEST(BoundedMpmcQueueTest, PushBlocksAtCapacityUntilAPopMakesRoom) {
  BoundedMpmcQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));

  std::atomic<bool> third_pushed{false};
  std::thread pusher([&] {
    ASSERT_TRUE(queue.Push(3));  // must block: the queue is at capacity
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(third_pushed.load());  // still blocked

  EXPECT_EQ(queue.Pop().value(), 1);  // makes room; the pusher completes
  pusher.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_EQ(queue.Pop().value(), 3);
}

TEST(BoundedMpmcQueueTest, PopBlocksUntilAPushArrives) {
  BoundedMpmcQueue<int> queue(4);
  std::atomic<int> popped{0};
  std::thread popper([&] { popped.store(queue.Pop().value()); });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(popped.load(), 0);
  ASSERT_TRUE(queue.Push(42));
  popper.join();
  EXPECT_EQ(popped.load(), 42);
}

TEST(BoundedMpmcQueueTest, CloseDrainsInFlightItemsThenEndsStreams) {
  BoundedMpmcQueue<int> queue(8);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));     // closed: push refused
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.Pop().value(), 1);  // in-flight items still drain
  EXPECT_EQ(queue.Pop().value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());  // then end-of-stream
}

TEST(BoundedMpmcQueueTest, CloseWakesBlockedPushersAndPoppers) {
  BoundedMpmcQueue<int> full(1);
  ASSERT_TRUE(full.Push(1));
  std::thread blocked_pusher([&] { EXPECT_FALSE(full.Push(2)); });
  BoundedMpmcQueue<int> empty(1);
  std::thread blocked_popper([&] { EXPECT_FALSE(empty.Pop().has_value()); });
  std::this_thread::sleep_for(20ms);
  full.Close();
  empty.Close();
  blocked_pusher.join();
  blocked_popper.join();
}

TEST(BoundedMpmcQueueTest, TracksPeakSizeHighWaterMark) {
  BoundedMpmcQueue<int> queue(8);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  ASSERT_TRUE(queue.TryPush(3));
  (void)queue.TryPop();
  (void)queue.TryPop();
  ASSERT_TRUE(queue.TryPush(4));
  EXPECT_EQ(queue.PeakSize(), 3u);
  EXPECT_EQ(queue.Size(), 2u);
}

TEST(BoundedMpmcQueueTest, ConcurrentProducersAndConsumersLoseNothing) {
  BoundedMpmcQueue<int> queue(4);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::atomic<int> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (const auto v = queue.Pop()) {
        sum.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();
  const int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- RunPipeline ---------------------------------------------------------

/// Per-(item, stage) execution counter matrix.
struct ExecutionMatrix {
  explicit ExecutionMatrix(std::size_t n, std::size_t stages)
      : counts(n * stages), n_stages(stages) {}
  std::vector<std::atomic<int>> counts;
  std::size_t n_stages;

  std::atomic<int>& at(std::size_t item, std::size_t stage) {
    return counts[item * n_stages + stage];
  }
};

std::vector<PipelineStage> CountingStages(ExecutionMatrix& matrix,
                                          std::size_t n_stages) {
  std::vector<PipelineStage> stages;
  for (std::size_t s = 0; s < n_stages; ++s) {
    stages.push_back({"stage" + std::to_string(s),
                      [&matrix, s](std::size_t i) { matrix.at(i, s)++; }});
  }
  return stages;
}

class PipelineThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineThreadsTest, NoTaskLostOrDuplicatedAtAnyQueueDepth) {
  const int threads = GetParam();
  constexpr std::size_t kItems = 200;
  constexpr std::size_t kStages = 3;
  for (const std::size_t depth : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    ExecutionMatrix matrix(kItems, kStages);
    PipelineOptions options;
    options.threads = threads;
    options.queue_depth = depth;
    const PipelineResult result =
        RunPipeline(kItems, CountingStages(matrix, kStages), options);
    EXPECT_TRUE(result.failures.empty());
    for (std::size_t i = 0; i < kItems; ++i) {
      for (std::size_t s = 0; s < kStages; ++s) {
        EXPECT_EQ(matrix.at(i, s).load(), 1) << "item " << i << " stage " << s;
      }
    }
  }
}

TEST_P(PipelineThreadsTest, DependencyOrderHoldsUnderSeededRandomDelays) {
  // Every stage of every item sleeps a seeded-random sliver, scrambling
  // completion order across items — but each item's own chain must still
  // execute stage 0 → 1 → 2 in order. The global tick counter captures the
  // observed order.
  const int threads = GetParam();
  constexpr std::size_t kItems = 48;
  constexpr std::size_t kStages = 3;
  Rng rng(1234);
  std::vector<int> delay_us(kItems * kStages);
  for (int& d : delay_us) d = rng.UniformInt(0, 300);

  std::atomic<std::uint64_t> ticks{0};
  std::vector<std::atomic<std::uint64_t>> started(kItems * kStages);
  std::vector<PipelineStage> stages;
  for (std::size_t s = 0; s < kStages; ++s) {
    stages.push_back({"stage" + std::to_string(s), [&, s](std::size_t i) {
                        started[i * kStages + s] = ticks.fetch_add(1) + 1;
                        std::this_thread::sleep_for(std::chrono::microseconds(
                            delay_us[i * kStages + s]));
                      }});
  }
  PipelineOptions options;
  options.threads = threads;
  options.queue_depth = 4;
  const PipelineResult result = RunPipeline(kItems, stages, options);
  EXPECT_TRUE(result.failures.empty());
  for (std::size_t i = 0; i < kItems; ++i) {
    for (std::size_t s = 1; s < kStages; ++s) {
      EXPECT_LT(started[i * kStages + s - 1].load(),
                started[i * kStages + s].load())
          << "item " << i << ": stage " << s << " ran before stage " << s - 1;
    }
  }
}

/// {1, 4, hardware threads (at least 2)} without duplicates: gtest rejects
/// two instantiations with the same generated name, which a 4-core host
/// would otherwise produce ("threads4").
std::vector<int> ThreadCounts() {
  std::vector<int> counts = {
      1, 4,
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency()))};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

INSTANTIATE_TEST_SUITE_P(
    Threads, PipelineThreadsTest, ::testing::ValuesIn(ThreadCounts()),
    [](const ::testing::TestParamInfo<int>& info) {
      return "threads" + std::to_string(info.param);
    });

TEST(PipelineSchedulerTest, CleanShutdownWithInFlightWork) {
  // Slow stages keep work in flight right up to the end; RunPipeline must
  // not return until every chain has fully drained, and join all workers.
  constexpr std::size_t kItems = 16;
  std::atomic<int> completed{0};
  std::vector<PipelineStage> stages = {
      {"slow", [&](std::size_t) { std::this_thread::sleep_for(2ms); }},
      {"finish", [&](std::size_t) {
         std::this_thread::sleep_for(1ms);
         completed.fetch_add(1);
       }},
  };
  PipelineOptions options;
  options.threads = 4;
  options.queue_depth = 2;
  const PipelineResult result = RunPipeline(kItems, stages, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(completed.load(), static_cast<int>(kItems));
}

TEST(PipelineSchedulerTest, StageFailureSkipsLaterStagesOfThatItemOnly) {
  constexpr std::size_t kItems = 20;
  ExecutionMatrix matrix(kItems, 2);
  std::vector<PipelineStage> stages = {
      {"flaky", [&](std::size_t i) {
         matrix.at(i, 0)++;
         if (i == 3 || i == 11) throw Error("boom " + std::to_string(i));
       }},
      {"after", [&](std::size_t i) { matrix.at(i, 1)++; }},
  };
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (auto& c : matrix.counts) c.store(0);
    PipelineOptions options;
    options.threads = threads;
    const PipelineResult result = RunPipeline(kItems, stages, options);
    ASSERT_EQ(result.failures.size(), 2u);
    // Failures come back sorted by item regardless of completion order.
    EXPECT_EQ(result.failures[0].item, 3u);
    EXPECT_EQ(result.failures[0].stage_name, "flaky");
    EXPECT_EQ(result.failures[0].message, "boom 3");
    EXPECT_EQ(result.failures[1].item, 11u);
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(matrix.at(i, 0).load(), 1);
      EXPECT_EQ(matrix.at(i, 1).load(), (i == 3 || i == 11) ? 0 : 1) << i;
    }
  }
}

TEST(PipelineSchedulerTest, RetriesRecoverTransientFailures) {
  std::atomic<int> attempts{0};
  std::vector<PipelineStage> stages = {
      {"transient", [&](std::size_t) {
         if (attempts.fetch_add(1) < 2) throw Error("transient");
       }},
  };
  PipelineOptions options;
  options.threads = 1;
  options.max_stage_retries = 2;
  const PipelineResult result = RunPipeline(1, stages, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(result.retries, 2u);
}

TEST(PipelineSchedulerTest, FaultPlanInjectsAtStageEntry) {
  SchedulerFaultPlan plan;
  plan.Set(/*stage=*/0, /*item=*/2, {.delay = 0ms, .fail_times = 1});
  std::atomic<int> ran{0};
  std::vector<PipelineStage> stages = {
      {"only", [&](std::size_t) { ran.fetch_add(1); }},
  };
  PipelineOptions options;
  options.threads = 1;
  options.faults = &plan;
  const PipelineResult first = RunPipeline(4, stages, options);
  ASSERT_EQ(first.failures.size(), 1u);
  EXPECT_EQ(first.failures[0].item, 2u);
  // The faulted item's body never ran: injection precedes the stage.
  EXPECT_EQ(ran.load(), 3);

  // fail_times exhausted: the same plan lets a second run through.
  const PipelineResult second = RunPipeline(4, stages, options);
  EXPECT_TRUE(second.failures.empty());
}

TEST(PipelineSchedulerTest, EmptyInputsAreNoOps) {
  std::vector<PipelineStage> stages = {
      {"stage", [](std::size_t) { FAIL() << "must not run"; }},
  };
  EXPECT_TRUE(RunPipeline(0, stages, {}).failures.empty());
  EXPECT_TRUE(RunPipeline(5, {}, {}).failures.empty());
}

TEST(PipelineSchedulerTest, ReportsBackpressureWhenTheQueueSaturates) {
  // Depth 1 with several workers forces continuations to run inline.
  std::vector<PipelineStage> stages = {
      {"a", [](std::size_t) { std::this_thread::sleep_for(200us); }},
      {"b", [](std::size_t) { std::this_thread::sleep_for(200us); }},
      {"c", [](std::size_t) {}},
  };
  PipelineOptions options;
  options.threads = 4;
  options.queue_depth = 1;
  const PipelineResult result = RunPipeline(64, stages, options);
  EXPECT_TRUE(result.failures.empty());
  EXPECT_GE(result.peak_queue_depth, 1u);
  EXPECT_LE(result.peak_queue_depth, 1u);  // the bound is a hard bound
}

// --- One-stage pipelines: the fork-join contract --------------------------
// With a single stage, RunPipeline is a plain fork-join loop. Exact-once
// execution, failures collected in item order, nesting, and stress, across
// the whole range of interesting thread counts (0 = hardware concurrency).

class SingleStagePipelineTest : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] PipelineResult Run(
      std::size_t n, std::function<void(std::size_t)> body) const {
    PipelineOptions options;
    options.threads = GetParam();
    return RunPipeline(n, {{"body", std::move(body)}}, options);
  }
};

TEST_P(SingleStagePipelineTest, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  EXPECT_TRUE(Run(0, [&](std::size_t) { calls.fetch_add(1); }).failures.empty());
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(SingleStagePipelineTest, FewerItemsThanThreadsRunsEachIndexOnce) {
  // n=3 with up to 16 requested threads: the pool must clamp to n and still
  // hit every index exactly once.
  std::vector<std::atomic<int>> hits(3);
  EXPECT_TRUE(Run(3, [&](std::size_t i) { hits[i].fetch_add(1); })
                  .failures.empty());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(SingleStagePipelineTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  EXPECT_TRUE(Run(kN, [&](std::size_t i) { hits[i].fetch_add(1); })
                  .failures.empty());
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(SingleStagePipelineTest, ThrowingBodyAggregatesFailuresInIndexOrder) {
  constexpr std::size_t kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  const PipelineResult result = Run(kN, [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (i % 7 == 0) throw Error("index " + std::to_string(i) + " failed");
  });
  ASSERT_EQ(result.failures.size(), 15u);  // 0, 7, ..., 98
  for (std::size_t k = 0; k < result.failures.size(); ++k) {
    EXPECT_EQ(result.failures[k].item, k * 7);
    EXPECT_EQ(result.failures[k].message,
              "index " + std::to_string(k * 7) + " failed");
  }
  // A failing sibling must not stop the other indices.
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(SingleStagePipelineTest, NonStdExceptionIsCaptured) {
  const PipelineResult result =
      Run(2, [](std::size_t i) { if (i == 1) throw 42; });
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].item, 1u);
  EXPECT_EQ(result.failures[0].message, "unknown exception");
}

TEST_P(SingleStagePipelineTest, NestedPipelinesAreSafe) {
  // Each call owns its worker threads and queue, so nesting cannot deadlock
  // on a shared pool.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 32;
  std::vector<std::atomic<std::size_t>> sums(kOuter);
  const PipelineResult result = Run(kOuter, [&](std::size_t o) {
    EXPECT_TRUE(Run(kInner, [&](std::size_t i) { sums[o].fetch_add(i + 1); })
                    .failures.empty());
  });
  EXPECT_TRUE(result.failures.empty());
  for (const auto& s : sums) EXPECT_EQ(s.load(), kInner * (kInner + 1) / 2);
}

TEST_P(SingleStagePipelineTest, StressTenThousandTinyTasks) {
  constexpr std::size_t kN = 10'000;
  std::atomic<std::size_t> sum{0};
  EXPECT_TRUE(Run(kN, [&](std::size_t i) { sum.fetch_add(i); }).failures.empty());
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST_P(SingleStagePipelineTest, PerItemSlotsPreserveIndexOrder) {
  // The drivers' merge point: each item writes only its own pre-sized slot,
  // so the output is index-ordered whatever the completion order.
  std::vector<std::size_t> squares(257);
  EXPECT_TRUE(Run(squares.size(), [&](std::size_t i) { squares[i] = i * i; })
                  .failures.empty());
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SingleStagePipelineTest,
                         ::testing::Values(0, 1, 2, 3, 4, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("hw")
                                      : "t" + std::to_string(info.param);
                         });

TEST(ResolveThreadsTest, ClampsAndDefaults) {
  EXPECT_EQ(ResolveThreads(4, 0), 0);    // empty range needs no workers
  EXPECT_EQ(ResolveThreads(4, 2), 2);    // never more workers than items
  EXPECT_EQ(ResolveThreads(4, 100), 4);  // explicit request honored
  EXPECT_EQ(ResolveThreads(1, 100), 1);
  EXPECT_GE(ResolveThreads(0, 100), 1);  // 0 = hardware concurrency, >= 1
}

}  // namespace
}  // namespace pinscope::util
