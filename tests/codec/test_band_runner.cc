// BandRunner contracts: every task runs exactly once on any worker
// count, the lookahead hook sees a task at most once and always before
// its body runs (and nothing is popped ahead without a hook), a serial
// run stays on the caller in order on any runner, the first error is
// rethrown on the caller with the scheduler drained, and one runner
// stays usable run after run. Carries the concurrency label
// (tsan/sanitize repeat 3x).
#include "codec/band_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.h"

namespace recode::codec {
namespace {

std::vector<std::uint32_t> iota_order(std::size_t n) {
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

struct Counts {
  explicit Counts(std::size_t n) : body(n), hint(n) {}
  std::vector<std::atomic<int>> body;
  std::vector<std::atomic<int>> hint;
  // Set by a hint that arrives after its task's body already ran.
  std::atomic<bool> late_hint{false};
  std::size_t fail_at = static_cast<std::size_t>(-1);
};

void count_body(void* ctx, std::uint32_t task, std::size_t) {
  auto& c = *static_cast<Counts*>(ctx);
  if (task == c.fail_at) fail("band runner test fault");
  c.body[task].fetch_add(1);
}

void count_hint(void* ctx, std::uint32_t task) {
  auto& c = *static_cast<Counts*>(ctx);
  if (c.body[task].load() != 0) c.late_hint = true;
  c.hint[task].fetch_add(1);
}

TEST(BandRunner, EveryTaskRunsOnceAtAnyWorkerCount) {
  constexpr std::size_t kTasks = 97;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    BandRunner runner(workers, kTasks);
    for (int run = 0; run < 3; ++run) {  // one runner, reused
      Counts c(kTasks);
      runner.run(order, &count_body, &c);
      for (std::size_t t = 0; t < kTasks; ++t) {
        ASSERT_EQ(c.body[t].load(), 1) << "workers=" << workers << " t=" << t;
        // No hook, no lookahead: nothing is hinted.
        ASSERT_EQ(c.hint[t].load(), 0);
      }
      EXPECT_EQ(runner.last_stats().workers, workers);
      EXPECT_EQ(runner.queued(), 0u);
    }
  }
}

TEST(BandRunner, LookaheadHintsPoppedAheadTasksBeforeTheirBodies) {
  constexpr std::size_t kTasks = 64;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 4u}) {
    BandRunner runner(workers, kTasks);
    Counts c(kTasks);
    runner.run(order, &count_body, &c, &count_hint);
    EXPECT_FALSE(c.late_hint.load()) << "workers=" << workers;
    int hinted = 0;
    for (std::size_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(c.body[t].load(), 1);
      EXPECT_LE(c.hint[t].load(), 1) << "workers=" << workers << " t=" << t;
      hinted += c.hint[t].load();
    }
    if (workers == 1) {
      // Inline: order[0] is hinted before the run and order[i + 1]
      // before order[i] runs, so every task is hinted exactly once.
      EXPECT_EQ(hinted, static_cast<int>(kTasks));
    } else {
      EXPECT_GT(hinted, 0);
    }
  }
}

TEST(BandRunner, SerialRunIsInlineInOrderOnAnyRunner) {
  constexpr std::size_t kTasks = 40;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 4u}) {
    BandRunner runner(workers, kTasks);
    struct Log {
      std::vector<std::uint32_t> ran;
      std::vector<std::uint32_t> hinted;
    } log;
    runner.run(
        order,
        [](void* ctx, std::uint32_t task, std::size_t worker) {
          EXPECT_EQ(worker, 0u);
          static_cast<Log*>(ctx)->ran.push_back(task);
        },
        &log,
        [](void* ctx, std::uint32_t task) {
          static_cast<Log*>(ctx)->hinted.push_back(task);
        },
        /*serial=*/true);
    EXPECT_EQ(log.ran, order) << "workers=" << workers;
    EXPECT_EQ(log.hinted, order) << "workers=" << workers;
    EXPECT_EQ(runner.last_stats().workers, 1u);
  }
}

TEST(BandRunner, FirstErrorRethrowsDrainedAndRunnerStaysUsable) {
  constexpr std::size_t kTasks = 50;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 2u, 5u}) {
    BandRunner runner(workers, kTasks);
    for (const bool lookahead : {false, true}) {
      Counts bad(kTasks);
      bad.fail_at = 17;
      EXPECT_THROW(runner.run(order, &count_body, &bad,
                              lookahead ? &count_hint : nullptr),
                   Error)
          << "workers=" << workers;
      EXPECT_EQ(runner.queued(), 0u) << "workers=" << workers;
      // The same runner completes a clean run afterwards.
      Counts good(kTasks);
      runner.run(order, &count_body, &good);
      for (std::size_t t = 0; t < kTasks; ++t) {
        ASSERT_EQ(good.body[t].load(), 1);
      }
    }
  }
}

}  // namespace
}  // namespace recode::codec
