// ThreadPool stress tests: many concurrent callers of one team,
// interleaved parallel_for users, repeated runs, and destruction right
// after a run.
// Run these under the sanitize preset (README) to verify the pool is
// data-race- and lifetime-clean, not just functionally correct.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace recode {
namespace {

// Many callers share one team: each run() is a whole run of every worker,
// and concurrent callers serialize rather than interleave (an
// interleaved arming would lose or misroute some workers' calls).
struct Tally {
  std::atomic<int> calls{0};
};

void tally_worker(void* ctx, std::size_t) {
  auto& t = *static_cast<Tally*>(ctx);
  t.calls.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::yield();
}

TEST(ThreadPoolStress, ConcurrentCallersSerializeOnTheTeam) {
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kRunsPerCaller = 200;
  // One Tally per caller, so a misrouted call shows in two counts.
  std::vector<Tally> tallies(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &tallies, c] {
      for (int r = 0; r < kRunsPerCaller; ++r) {
        pool.run(&tally_worker, &tallies[static_cast<std::size_t>(c)]);
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const Tally& t : tallies) {
    EXPECT_EQ(t.calls.load(), kRunsPerCaller * 4);
  }
}

TEST(ThreadPoolStress, RunAndDrainRepeatedly) {
  ThreadPool pool(3);
  Tally t;
  for (int round = 0; round < 500; ++round) {
    pool.run(&tally_worker, &t);
    ASSERT_EQ(t.calls.load(), (round + 1) * 3);
  }
}

TEST(ThreadPoolStress, DestroyRightAfterARun) {
  for (int round = 0; round < 64; ++round) {
    Tally t;
    {
      ThreadPool pool(2);
      pool.run(&tally_worker, &t);
    }  // threads still settling back to idle when the destructor joins
    EXPECT_EQ(t.calls.load(), 2);
  }
}

TEST(ThreadPoolStress, ParallelForFromMultipleThreads) {
  ThreadPool pool(4);
  constexpr std::size_t kRange = 20000;
  std::atomic<std::uint64_t> sum_a{0};
  std::atomic<std::uint64_t> sum_b{0};

  auto accumulate = [&pool](std::atomic<std::uint64_t>& sum) {
    pool.parallel_for(0, kRange, [&sum](std::size_t b, std::size_t e) {
      std::uint64_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  };
  std::thread ta([&] { accumulate(sum_a); });
  std::thread tb([&] { accumulate(sum_b); });
  ta.join();
  tb.join();

  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kRange) * (kRange - 1) / 2;
  EXPECT_EQ(sum_a.load(), kExpected);
  EXPECT_EQ(sum_b.load(), kExpected);
}

TEST(ThreadPoolStress, SingleWorkerPoolFromMultipleThreads) {
  ThreadPool pool(1);  // no threads: every caller runs inline
  std::atomic<int> counter{0};
  std::vector<std::thread> callers;
  for (int p = 0; p < 4; ++p) {
    callers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        pool.parallel_for(0, 8, [&counter](std::size_t b, std::size_t e) {
          counter.fetch_add(static_cast<int>(e - b),
                            std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(counter.load(), 4 * 200 * 8);
}

}  // namespace
}  // namespace recode
