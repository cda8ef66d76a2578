// Minimal work-stealing-free thread pool with a parallel_for helper, plus
// the allocation-free team/gate primitives codec::BandRunner fans its band
// tasks out on (WorkerTeam runs a body on every thread, WorkerGate
// collects their completion and first error).
//
// ThreadPool serves the threaded plain-CSR SpMV kernels (spmv/kernels.h),
// the baseline the compressed engines are measured against. Sized from
// std::thread::hardware_concurrency()
// by default but fully functional at any size (including 1, as on the CI
// host).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace recode {

class ThreadPool {
 public:
  // Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueues a task; returns immediately. The task must not throw — an
  // escaping exception would unwind a worker thread. parallel_for wraps
  // its chunks accordingly; direct submitters catch their own.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has completed.
  void wait_idle();

  // Splits [begin, end) into ~3x-oversubscribed chunks and runs `body(b, e)`
  // on the pool, blocking until all chunks finish. Runs inline if the pool
  // has one thread or the range is tiny.
  //
  // Exception contract (identical on the pooled and inline paths): if any
  // chunk's `body` throws, every started chunk still runs to completion
  // (or throws) and the first exception, in chunk submission order, is
  // rethrown on the calling thread.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;        // signals task availability
  std::condition_variable idle_cv_;   // signals pending_ == 0
  std::size_t pending_ = 0;           // queued + running tasks
  bool stop_ = false;
};

// Latch-style completion gate for a fixed set of pipeline workers: the
// owner arms it with the worker count, each worker signals exactly once
// (normally or with the exception it died on), and wait() blocks until
// all have reported, then rethrows the first captured exception on the
// waiting thread. This is how BandRunner guarantees "drain cleanly,
// rethrow on the caller thread".
//
// Reusable: after wait() returns (or throws), reset(n) re-arms the gate
// for the next run without constructing a new one — the zero-steady-state
// allocation path keeps one gate per BandRunner.
class WorkerGate {
 public:
  explicit WorkerGate(std::size_t workers) : remaining_(workers) {}

  WorkerGate(const WorkerGate&) = delete;
  WorkerGate& operator=(const WorkerGate&) = delete;

  // Worker finished without error.
  void arrive() { finish(nullptr); }

  // Worker died on `error`; the first one reported wins.
  void arrive_with_error(std::exception_ptr error) { finish(std::move(error)); }

  // True once any worker reported an error — pipeline peers poll this to
  // stop early.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // Blocks until every worker arrived, then rethrows the first error.
  void wait() {
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return remaining_ == 0; });
      error = first_error_;
    }
    if (error) std::rethrow_exception(error);
  }

  // Re-arms a drained gate for the next run. Only legal once every
  // worker of the previous run has arrived (wait() returned or threw).
  void reset(std::size_t workers) {
    std::lock_guard<std::mutex> lock(mu_);
    remaining_ = workers;
    first_error_ = nullptr;
    failed_.store(false, std::memory_order_release);
  }

 private:
  void finish(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !first_error_) {
      first_error_ = std::move(error);
      failed_.store(true, std::memory_order_release);
    }
    if (--remaining_ == 0) done_cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable done_cv_;
  std::size_t remaining_;
  std::exception_ptr first_error_;
  std::atomic<bool> failed_{false};
};

// Fixed team of persistent threads that re-execute a caller-installed
// body run after run. Unlike ThreadPool::submit (one heap-allocated
// std::function per task), arming a run stores a raw function pointer
// and context — no allocation — which is what keeps a warmed BandRunner
// (and so the streaming executor's multiply) heap-silent while still
// fanning out to real threads.
//
// Protocol: run(body, ctx) wakes every thread; each executes
// body(ctx, worker_index) exactly once; wait() blocks until all have
// finished. The body must not throw (workers would unwind) — callers
// route errors through a WorkerGate instead.
class WorkerTeam {
 public:
  using Body = void (*)(void* ctx, std::size_t worker);

  explicit WorkerTeam(std::size_t threads);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  std::size_t size() const { return threads_.size(); }

  // Launches one execution of body on every thread. Illegal while a
  // previous run is still in flight (call wait() first).
  void run(Body body, void* ctx);

  // Blocks until every thread has finished the current run. No-op when
  // no run is in flight.
  void wait();

 private:
  void thread_loop(std::size_t index);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;  // signals a new generation
  std::condition_variable done_cv_;   // signals working_ == 0
  Body body_ = nullptr;
  void* ctx_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped by run()
  std::size_t working_ = 0;       // threads still in the current run
  bool stop_ = false;
};

}  // namespace recode
