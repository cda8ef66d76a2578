#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace recode {
namespace {

// --- run(): the team protocol --------------------------------------------

struct RunCounts {
  explicit RunCounts(std::size_t n) : hits(n) {}
  std::vector<std::atomic<int>> hits;
  std::atomic<bool> off_caller{true};
  std::thread::id caller = std::this_thread::get_id();
};

void count_worker(void* ctx, std::size_t worker) {
  auto& c = *static_cast<RunCounts*>(ctx);
  c.hits[worker].fetch_add(1);
  if (std::this_thread::get_id() == c.caller) c.off_caller = false;
}

TEST(ThreadPool, RunCallsEveryWorkerOnceAndIsReusable) {
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    RunCounts c(threads);
    for (int run = 1; run <= 5; ++run) {
      pool.run(&count_worker, &c);
      for (std::size_t w = 0; w < threads; ++w) {
        ASSERT_EQ(c.hits[w].load(), run) << "threads=" << threads;
      }
    }
    EXPECT_TRUE(c.off_caller.load()) << "a team body ran on the caller";
  }
}

TEST(ThreadPool, OneWorkerRunIsInlineOnTheCaller) {
  ThreadPool pool(1);
  RunCounts c(1);
  pool.run(&count_worker, &c);
  EXPECT_EQ(c.hits[0].load(), 1);
  EXPECT_FALSE(c.off_caller.load());
}

TEST(ThreadPool, DestructionWhenIdleJoinsTheTeam) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool never_ran(3);  // threads parked since construction
    ThreadPool ran(3);
    RunCounts c(3);
    ran.run(&count_worker, &c);
  }
  SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> data(100, 0);
  pool.parallel_for(0, data.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) data[i] = static_cast<int>(i);
  });
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], static_cast<int>(i));
  }
}

// --- parallel_for exception contract -----------------------------------
// Both paths — pooled chunks and the tiny-range/one-thread inline path —
// must surface a `body` exception on the calling thread. The inline path
// regression: it used to be the only path exercised with throwing bodies,
// and the pooled path would have unwound a worker thread instead.

TEST(ThreadPool, ParallelForPooledPathRethrowsOnCaller) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
      ran.fetch_add(static_cast<int>(e - b));
      throw std::runtime_error("chunk " + std::to_string(b));
    });
    FAIL() << "expected the chunk exception to propagate";
  } catch (const std::runtime_error& e) {
    // Deterministically the first failing chunk in submission order.
    EXPECT_STREQ(e.what(), "chunk 0");
  }
  // Every chunk still ran to completion before the rethrow (no chunk is
  // abandoned mid-range).
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPool, ParallelForInlinePathRethrowsOnCaller) {
  ThreadPool pool(1);  // one-thread pool always takes the inline path
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t, std::size_t) {
                                   throw std::runtime_error("inline");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForTinyRangeRethrowsOnCaller) {
  ThreadPool pool(4);  // n < 2 takes the inline path even on a real pool
  EXPECT_THROW(pool.parallel_for(7, 8,
                                 [](std::size_t, std::size_t) {
                                   throw std::runtime_error("tiny");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForUsableAfterException) {
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [](std::size_t, std::size_t) {
                                     throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
      count.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(count.load(), 64);
  }
}

// --- run() first-error capture and drain ---------------------------------
// A throwing body does not unwind its thread: run() waits for every
// worker to return, then rethrows the first error on the caller.

struct FaultyRun {
  std::atomic<int> returned{0};
  std::atomic<int> threw{0};
  std::size_t clean_worker = 0;  // the one worker that does not throw
};

void faulty_worker(void* ctx, std::size_t worker) {
  auto& f = *static_cast<FaultyRun*>(ctx);
  if (worker != f.clean_worker) {
    f.threw.fetch_add(1);
    throw std::runtime_error("worker " + std::to_string(worker));
  }
  // Finishes last, so the rethrow provably waited for it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  f.returned.fetch_add(1);
}

TEST(ThreadPool, RunWaitsForAllWorkersThenRethrowsFirstError) {
  ThreadPool pool(3);
  FaultyRun f;
  f.clean_worker = 1;
  try {
    pool.run(&faulty_worker, &f);
    FAIL() << "expected a worker's exception to propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what == "worker 0" || what == "worker 2") << what;
  }
  EXPECT_EQ(f.threw.load(), 2);
  EXPECT_EQ(f.returned.load(), 1);
}

TEST(ThreadPool, CleanRunAfterAFailedOneDoesNotThrow) {
  ThreadPool pool(2);
  FaultyRun f;
  EXPECT_THROW(pool.run(&faulty_worker, &f), std::runtime_error);
  // The captured error is consumed by the rethrow: a clean run on the
  // same team reports nothing.
  RunCounts c(2);
  pool.run(&count_worker, &c);
  EXPECT_EQ(c.hits[0].load(), 1);
  EXPECT_EQ(c.hits[1].load(), 1);
}

}  // namespace
}  // namespace recode
