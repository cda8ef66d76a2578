// The one thread team every fan-out in the repo runs on: codec::BandRunner
// (its workers claim the band tasks of the streaming executor, SpGEMM and
// SpMSpV, and the container writer's block encodes, from one cursor) and the threaded plain-CSR SpMV
// kernels (spmv/kernels.h), the baseline the compressed engines are
// measured against.
//
// A pool of size n keeps n persistent threads (none when n == 1: its runs
// execute on the calling thread). run() stores a raw function pointer and
// context, so arming a run performs no heap allocation — what keeps a
// warmed BandRunner, and so the streaming executor's multiply,
// heap-silent while still fanning out to real threads. parallel_for is
// written on top of run().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace recode {

class ThreadPool {
 public:
  using Body = void (*)(void* ctx, std::size_t worker);

  // The thread count a request of `threads` means: 0 is
  // hardware_concurrency (at least 1). The one place that rule lives.
  static std::size_t resolve_size(std::size_t threads);

  // A team of resolve_size(threads) workers.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  // Runs body(ctx, worker) once for every worker in [0, size()), each on
  // its own thread, and blocks until all have returned. If bodies throw,
  // the first exception caught is rethrown on the calling thread after
  // every worker has returned; the pool stays usable. Concurrent callers
  // serialize on the team; a body must not call run() on its own pool.
  void run(Body body, void* ctx);

  // Splits [begin, end) into ~3x-oversubscribed chunks that the workers
  // claim in order and runs `body(b, e)` on each, blocking until all
  // chunks finish. Runs inline if the pool has one thread or the range
  // is tiny.
  //
  // Exception contract (identical on the pooled and inline paths): if any
  // chunk's `body` throws, every chunk still runs to completion (or
  // throws) and the first exception, in chunk order, is rethrown on the
  // calling thread.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void thread_loop(std::size_t worker);

  std::size_t size_;
  std::vector<std::thread> threads_;  // empty when size_ == 1
  std::mutex run_mu_;                 // one run at a time
  std::mutex mu_;
  std::condition_variable start_cv_;  // signals a new generation
  std::condition_variable done_cv_;   // signals working_ == 0
  Body body_ = nullptr;
  void* ctx_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped by run()
  std::size_t working_ = 0;       // threads still in the current run
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace recode
