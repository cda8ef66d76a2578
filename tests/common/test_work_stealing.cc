// Scheduler-grade battery for the work-stealing primitives under the
// streaming executor (common/work_stealing.h): deque owner/thief
// semantics (LIFO bottom, FIFO top), capacity and overflow behavior,
// empty-steal and last-element races, cancel/drain guarantees, the
// outstanding-task protocol, and a seeded multi-thread churn test that
// hammers concurrent push/pop/steal and checks exactly-once delivery.
// Runs under the `concurrency` ctest label, so the sanitize-concurrency
// and tsan-concurrency presets repeat it 3x — the deque's seq_cst
// formulation exists precisely so TSan's verdict here is authoritative.
#include "common/work_stealing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/prng.h"

namespace recode {
namespace {

using Deque = WorkStealingDeque<std::uint32_t>;
using Steal = Deque::Steal;

TEST(WorkStealingDeque, OwnerPopsLifoThiefStealsFifo) {
  Deque d(8);
  for (std::uint32_t v = 0; v < 6; ++v) ASSERT_TRUE(d.push_bottom(v));
  EXPECT_EQ(d.size(), 6u);

  // Thief takes the oldest.
  std::uint32_t stolen = 99;
  ASSERT_EQ(d.steal_top(stolen), Steal::kStolen);
  EXPECT_EQ(stolen, 0u);

  // Owner takes the newest.
  std::uint32_t popped = 99;
  ASSERT_TRUE(d.pop_bottom(popped));
  EXPECT_EQ(popped, 5u);

  // Interleaved: thief walks 1,2,... while owner walks 4,3,...
  ASSERT_EQ(d.steal_top(stolen), Steal::kStolen);
  EXPECT_EQ(stolen, 1u);
  ASSERT_TRUE(d.pop_bottom(popped));
  EXPECT_EQ(popped, 4u);
  ASSERT_TRUE(d.pop_bottom(popped));
  EXPECT_EQ(popped, 3u);
  ASSERT_TRUE(d.pop_bottom(popped));
  EXPECT_EQ(popped, 2u);
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.pop_bottom(popped));
  EXPECT_EQ(d.steal_top(stolen), Steal::kEmpty);
}

TEST(WorkStealingDeque, CapacityRoundsUpAndPushFailsWhenFull) {
  Deque d(5);  // rounds to 8
  EXPECT_EQ(d.capacity(), 8u);
  for (std::uint32_t v = 0; v < 8; ++v) ASSERT_TRUE(d.push_bottom(v));
  EXPECT_FALSE(d.push_bottom(8));
  // Stealing frees a slot (top advances; the ring index math must keep
  // working across the wrap).
  std::uint32_t out;
  ASSERT_EQ(d.steal_top(out), Steal::kStolen);
  EXPECT_TRUE(d.push_bottom(8));
  EXPECT_FALSE(d.push_bottom(9));
}

TEST(WorkStealingDeque, StealOnEmptyAndResetSemantics) {
  Deque d(4);
  std::uint32_t out = 7;
  EXPECT_EQ(d.steal_top(out), Steal::kEmpty);
  EXPECT_FALSE(d.pop_bottom(out));
  EXPECT_EQ(out, 7u) << "failed ops must not write through";

  ASSERT_TRUE(d.push_bottom(1));
  ASSERT_TRUE(d.pop_bottom(out));
  d.reset();
  EXPECT_TRUE(d.empty());
  ASSERT_TRUE(d.push_bottom(42));
  ASSERT_EQ(d.steal_top(out), Steal::kStolen);
  EXPECT_EQ(out, 42u);
}

// Owner pops and thieves steal from a single deque concurrently; every
// pushed value must be delivered exactly once across all consumers.
// Exercises the last-element CAS race and the kAbort retry path.
TEST(WorkStealingDeque, ConcurrentOwnerAndThievesDeliverExactlyOnce) {
  const std::uint64_t seed = test_seed(1601);
  constexpr std::uint32_t kItems = 20000;
  constexpr int kThieves = 3;
  Deque d(64);
  std::vector<std::atomic<std::uint32_t>> delivered(kItems);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> aborts{0};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::uint32_t v;
      while (!done.load(std::memory_order_acquire)) {
        switch (d.steal_top(v)) {
          case Steal::kStolen:
            delivered[v].fetch_add(1, std::memory_order_relaxed);
            break;
          case Steal::kAbort:
            aborts.fetch_add(1, std::memory_order_relaxed);
            break;
          case Steal::kEmpty:
            std::this_thread::yield();
            break;
        }
      }
      // Final drain so nothing is stranded when the owner finishes.
      while (d.steal_top(v) == Steal::kStolen) {
        delivered[v].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Prng prng(seed);
  std::uint32_t next = 0;
  while (next < kItems) {
    // Bursty producer: push a few, then pop some back (LIFO), so the
    // bottom index repeatedly meets the thieves' top index.
    const std::uint32_t burst =
        static_cast<std::uint32_t>(prng.next_below(8)) + 1;
    for (std::uint32_t i = 0; i < burst && next < kItems; ++i) {
      while (!d.push_bottom(next)) {
        std::uint32_t v;
        if (d.pop_bottom(v)) {
          delivered[v].fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++next;
    }
    if (prng.next_below(2) == 0) {
      std::uint32_t v;
      if (d.pop_bottom(v)) {
        delivered[v].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Owner drains what the thieves haven't taken.
  std::uint32_t v;
  while (d.pop_bottom(v)) delivered[v].fetch_add(1, std::memory_order_relaxed);
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(delivered[i].load(), 1u)
        << "item " << i << " delivered " << delivered[i].load()
        << " times (seed " << seed << ", aborts " << aborts.load() << ")";
  }
}

TEST(WorkStealingScheduler, SeedDistributesAndAcquireDrainsEverything) {
  WorkStealingScheduler<std::uint32_t> sched(4, 4);
  std::vector<std::uint32_t> tasks(13);
  std::iota(tasks.begin(), tasks.end(), 0);
  sched.seed(tasks);
  EXPECT_EQ(sched.remaining(), tasks.size());
  EXPECT_EQ(sched.queued(), tasks.size());

  // A single worker can still acquire every task (steals the other
  // deques dry), and completion releases the waiters.
  std::vector<bool> seen(tasks.size(), false);
  std::uint32_t task;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_TRUE(sched.acquire(0, task));
    ASSERT_LT(task, seen.size());
    EXPECT_FALSE(seen[task]);
    seen[task] = true;
    sched.complete();
  }
  EXPECT_FALSE(sched.acquire(0, task)) << "no tasks left";
  EXPECT_EQ(sched.queued(), 0u);
  EXPECT_GT(sched.stats().steals.load(), 0u);
}

TEST(WorkStealingScheduler, InjectOverflowAndInjectorPops) {
  // Deque capacity 1 forces nearly everything through the injector.
  WorkStealingScheduler<std::uint32_t> sched(2, 1);
  std::vector<std::uint32_t> tasks(6);
  std::iota(tasks.begin(), tasks.end(), 0);
  sched.seed(tasks);
  sched.inject(100);
  sched.inject(101);
  EXPECT_EQ(sched.remaining(), 8u);

  std::vector<bool> seen(102, false);
  std::uint32_t task;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(sched.acquire(1, task));
    EXPECT_FALSE(seen[task]);
    seen[task] = true;
    sched.complete();
  }
  EXPECT_FALSE(sched.acquire(1, task));
  EXPECT_GT(sched.stats().injector_pops.load(), 0u);
}

TEST(WorkStealingScheduler, CancelDrainsOwnDequeAndClearsInjector) {
  WorkStealingScheduler<std::uint32_t> sched(2, 64);
  std::vector<std::uint32_t> tasks(10);
  std::iota(tasks.begin(), tasks.end(), 0);
  sched.seed(tasks);
  sched.inject(50);
  EXPECT_GT(sched.queued(), 0u);

  sched.cancel();
  EXPECT_TRUE(sched.cancelled());
  std::uint32_t task;
  // Each worker's next acquire drains its own deque and refuses work.
  EXPECT_FALSE(sched.acquire(0, task));
  EXPECT_FALSE(sched.acquire(1, task));
  EXPECT_EQ(sched.queued(), 0u) << "cancel must leave nothing queued";

  // reset() restores a usable scheduler.
  sched.reset();
  EXPECT_FALSE(sched.cancelled());
  sched.seed(tasks);
  ASSERT_TRUE(sched.acquire(0, task));
  sched.complete();
}

// Seeded multi-thread churn: N workers acquire/complete a large task
// set, and low-numbered tasks inject a follow-up task from *within*
// their execution (inject-before-complete, the dynamic-splitting
// pattern — the only injection the protocol allows once a run is
// draining). Every task must execute exactly once and the scheduler
// must end drained. The accounting identity local_pops + injector_pops
// + steals == tasks executed is the same one the telemetry schema test
// asserts on the executor.
TEST(WorkStealingScheduler, SeededChurnDeliversEveryTaskExactlyOnce) {
  const std::uint64_t seed = test_seed(1602);
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint32_t kSeeded = 4000;
  constexpr std::uint32_t kInjected = 1000;  // children of tasks 0..999
  WorkStealingScheduler<std::uint32_t> sched(kWorkers, 32);
  std::vector<std::uint32_t> tasks(kSeeded);
  std::iota(tasks.begin(), tasks.end(), 0);
  sched.seed(tasks);

  std::vector<std::atomic<std::uint32_t>> executed(kSeeded + kInjected);
  std::atomic<std::uint64_t> total{0};

  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      Prng prng(seed ^ (w * 0x9e3779b97f4a7c15ull));
      std::uint32_t task;
      while (sched.acquire(w, task)) {
        executed[task].fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
        // The acquired task is still outstanding here, so remaining()
        // cannot hit zero across this inject — the protocol's
        // safe-injection window.
        if (task < kInjected) sched.inject(kSeeded + task);
        // Variable task cost so deques drain at different rates and
        // stealing actually happens.
        if (prng.next_below(16) == 0) std::this_thread::yield();
        sched.complete();
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(total.load(), kSeeded + kInjected);
  for (std::size_t i = 0; i < executed.size(); ++i) {
    ASSERT_EQ(executed[i].load(), 1u)
        << "task " << i << " executed " << executed[i].load()
        << " times (seed " << seed << ")";
  }
  EXPECT_EQ(sched.queued(), 0u);
  EXPECT_EQ(sched.remaining(), 0u);
  const auto& st = sched.stats();
  EXPECT_EQ(st.local_pops.load() + st.injector_pops.load() +
                st.steals.load(),
            kSeeded + kInjected);
}

// Deterministic mid-run cancel: drain part of the task set, cancel, and
// every worker's next acquire must refuse work and leave nothing queued
// — the exact drain guarantee the streaming executor's fault tests
// build on, checked without depending on thread timing.
TEST(WorkStealingScheduler, CancelMidRunLeavesAllDequesDrained) {
  constexpr std::size_t kWorkers = 4;
  WorkStealingScheduler<std::uint32_t> sched(kWorkers, 256);
  std::vector<std::uint32_t> tasks(800);
  std::iota(tasks.begin(), tasks.end(), 0);
  sched.seed(tasks);

  std::uint32_t task;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(sched.acquire(0, task));
    sched.complete();
  }
  sched.cancel();
  EXPECT_GT(sched.queued(), 0u) << "cancel should catch queued tasks";
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_FALSE(sched.acquire(w, task));
  }
  EXPECT_EQ(sched.queued(), 0u)
      << "cancelled scheduler left queued tasks";
}

// Threaded cancel: a worker triggers cancel from inside task execution
// (the executor's error path) while peers churn; after join, nothing
// may remain queued no matter where each worker was when the flag rose.
TEST(WorkStealingScheduler, CancelFromWorkerDrainsUnderConcurrency) {
  const std::uint64_t seed = test_seed(1603);
  constexpr std::size_t kWorkers = 4;
  WorkStealingScheduler<std::uint32_t> sched(kWorkers, 256);
  std::vector<std::uint32_t> tasks(8000);
  std::iota(tasks.begin(), tasks.end(), 0);
  sched.seed(tasks);

  // Cancel fires inside some early task, seeded.
  Prng prng(seed);
  const std::uint32_t cancel_at =
      static_cast<std::uint32_t>(prng.next_below(2000));
  std::atomic<std::uint64_t> executed{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::uint32_t task;
      while (sched.acquire(w, task)) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (task == cancel_at) {
          sched.cancel();
          sched.complete();
          // Mirror the executor's faulting worker: drain our own deque
          // before exiting instead of re-entering the acquire loop.
          std::uint32_t discard;
          ASSERT_FALSE(sched.acquire(w, discard));
          break;
        }
        sched.complete();
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_GE(executed.load(), 1u);
  EXPECT_EQ(sched.queued(), 0u)
      << "cancelled scheduler left queued tasks (seed " << seed << ")";
}

}  // namespace
}  // namespace recode
