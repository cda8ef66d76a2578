// BandRunner contracts: every task runs exactly once on any worker count
// under seeded churn, run after run on one runner; the lookahead hook
// hints each worker's next claimed task, which is the body that worker
// runs after the one in hand; a serial run stays on the caller in order
// on any runner; and the first error is rethrown on the caller only once
// no body is running, after which nothing starts and the runner stays
// usable. Carries the concurrency label (tsan/sanitize repeat 3x).
#include "codec/band_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/prng.h"

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
  std::atomic<int> started{0};
  std::atomic<int> running{0};
  std::size_t fail_at = static_cast<std::size_t>(-1);
  // Seeded per-worker churn: a body yields now and then, so workers
  // finish at different rates and claims interleave.
  std::vector<Prng> churn;
};

void count_body(void* ctx, std::uint32_t task, std::size_t worker) {
  auto& c = *static_cast<Counts*>(ctx);
  c.started.fetch_add(1);
  c.running.fetch_add(1);
  if (!c.churn.empty() && c.churn[worker].next_below(16) == 0) {
    std::this_thread::yield();
  }
  if (task == c.fail_at) {
    c.running.fetch_sub(1);
    fail("band runner test fault");
  }
  c.body[task].fetch_add(1);
  c.running.fetch_sub(1);
}

void count_hint(void* ctx, std::uint32_t task) {
  auto& c = *static_cast<Counts*>(ctx);
  if (c.body[task].load() != 0) c.late_hint = true;
  c.hint[task].fetch_add(1);
}

TEST(BandRunner, EveryTaskRunsOnceAtAnyWorkerCount) {
  const std::uint64_t seed = test_seed(1602);
  constexpr std::size_t kTasks = 10000;
  constexpr int kRuns = 200;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
    BandRunner runner(workers);  // one runner, reused for every run
    Counts c(kTasks);
    for (std::size_t w = 0; w < workers; ++w) {
      c.churn.emplace_back(seed ^ (w * 0x9e3779b97f4a7c15ull));
    }
    for (int run = 0; run < kRuns; ++run) {
      const bool hook = run % 2 == 1;
      runner.run(order, &count_body, &c, hook ? &count_hint : nullptr);
      int hinted = 0;
      for (std::size_t t = 0; t < kTasks; ++t) {
        ASSERT_EQ(c.body[t].load(), 1) << "workers=" << workers
                                       << " run=" << run << " t=" << t
                                       << " seed=" << seed;
        ASSERT_LE(c.hint[t].load(), 1) << "workers=" << workers;
        hinted += c.hint[t].load();
        c.body[t].store(0);
        c.hint[t].store(0);
      }
      // Without a hook nothing is hinted; with one, every task but each
      // worker's first claim is hinted, before its body runs.
      if (hook) {
        EXPECT_GE(hinted, static_cast<int>(kTasks - workers));
      } else {
        EXPECT_EQ(hinted, 0);
      }
      ASSERT_FALSE(c.late_hint.load()) << "workers=" << workers;
      EXPECT_EQ(runner.last_stats().workers, workers);
    }
  }
}

// Per-thread event log: a hint ('h') or a body ('b') of a task.
struct Event {
  char kind;
  std::uint32_t task;
  bool operator==(const Event&) const = default;
};

struct Trace {
  std::mutex mu;
  std::map<std::thread::id, std::vector<Event>> threads;

  void log(char kind, std::uint32_t task) {
    const std::lock_guard<std::mutex> lock(mu);
    threads[std::this_thread::get_id()].push_back({kind, task});
  }
};

TEST(BandRunner, LookaheadHintsTheBodyEachWorkerRunsNext) {
  constexpr std::size_t kTasks = 500;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
    BandRunner runner(workers);
    for (int run = 0; run < 5; ++run) {
      Trace trace;
      runner.run(
          order,
          [](void* ctx, std::uint32_t task, std::size_t) {
            static_cast<Trace*>(ctx)->log('b', task);
          },
          &trace,
          [](void* ctx, std::uint32_t task) {
            static_cast<Trace*>(ctx)->log('h', task);
          });
      std::vector<int> ran(kTasks, 0);
      for (const auto& [id, events] : trace.threads) {
        // A worker's bodies b0, b1, ..., bk come with hints of b1..bk,
        // the hint of b[j + 1] just before b[j] runs: each worker hints
        // only the task it runs next, so at most two of its tasks are
        // in flight. The inline walk also hints b0 before the run.
        std::vector<std::uint32_t> bodies;
        for (const Event& e : events) {
          if (e.kind == 'b') bodies.push_back(e.task);
        }
        std::vector<Event> want;
        if (workers == 1 && !bodies.empty()) want.push_back({'h', bodies[0]});
        for (std::size_t j = 0; j < bodies.size(); ++j) {
          if (j + 1 < bodies.size()) want.push_back({'h', bodies[j + 1]});
          want.push_back({'b', bodies[j]});
        }
        EXPECT_EQ(events, want) << "workers=" << workers << " run=" << run;
        for (const std::uint32_t t : bodies) ++ran[t];
      }
      for (std::size_t t = 0; t < kTasks; ++t) {
        ASSERT_EQ(ran[t], 1) << "workers=" << workers << " t=" << t;
      }
    }
  }
}

TEST(BandRunner, SerialRunIsInlineInOrderOnAnyRunner) {
  constexpr std::size_t kTasks = 40;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 4u}) {
    BandRunner runner(workers);
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

TEST(BandRunner, FirstErrorRethrowsAfterEveryBodyAndRunnerStaysUsable) {
  constexpr std::size_t kTasks = 2000;
  const auto order = iota_order(kTasks);
  for (const std::size_t workers : {1u, 2u, 3u, 7u}) {
    BandRunner runner(workers);
    for (const bool lookahead : {false, true}) {
      for (const std::size_t fail_at : {0u, 17u, 1999u}) {
        const std::string tag = "workers=" + std::to_string(workers) +
                                " lookahead=" + std::to_string(lookahead) +
                                " fail_at=" + std::to_string(fail_at);
        Counts bad(kTasks);
        bad.fail_at = fail_at;
        EXPECT_THROW(runner.run(order, &count_body, &bad,
                                lookahead ? &count_hint : nullptr),
                     Error)
            << tag;
        // No body of the failed run is still running, and none starts
        // after the rethrow: the next run gives any straggler time to
        // show.
        EXPECT_EQ(bad.running.load(), 0) << tag;
        const int started = bad.started.load();
        EXPECT_LE(started, static_cast<int>(kTasks)) << tag;
        // The same runner completes a clean, exactly-once run afterwards.
        Counts good(kTasks);
        runner.run(order, &count_body, &good,
                   lookahead ? &count_hint : nullptr);
        for (std::size_t t = 0; t < kTasks; ++t) {
          ASSERT_EQ(good.body[t].load(), 1) << tag << " t=" << t;
        }
        EXPECT_EQ(bad.started.load(), started) << tag;
        EXPECT_EQ(bad.running.load(), 0) << tag;
      }
    }
  }
}

}  // namespace
}  // namespace recode::codec
