#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace recode {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
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

// --- WorkerGate ---------------------------------------------------------

TEST(WorkerGate, WaitsForAllWorkersThenRethrowsFirstError) {
  WorkerGate gate(3);
  std::atomic<int> arrived{0};
  std::vector<std::thread> workers;
  workers.emplace_back([&] {
    arrived.fetch_add(1);
    gate.arrive();
  });
  workers.emplace_back([&] {
    arrived.fetch_add(1);
    gate.arrive_with_error(
        std::make_exception_ptr(std::runtime_error("first")));
  });
  workers.emplace_back([&] {
    arrived.fetch_add(1);
    gate.arrive();
  });
  EXPECT_THROW(gate.wait(), std::runtime_error);
  EXPECT_TRUE(gate.failed());
  EXPECT_EQ(arrived.load(), 3);
  for (auto& w : workers) w.join();
}

TEST(WorkerGate, CleanShutdownDoesNotThrow) {
  WorkerGate gate(2);
  std::thread a([&] { gate.arrive(); });
  std::thread b([&] { gate.arrive(); });
  gate.wait();
  EXPECT_FALSE(gate.failed());
  a.join();
  b.join();
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ReusableAcrossWaves) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 20);
  }
}

}  // namespace
}  // namespace recode
