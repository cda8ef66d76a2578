#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace recode {

namespace {

// One parallel_for call: workers claim chunks in order until none is
// left; the lowest failing chunk's exception wins.
struct ForJob {
  const std::function<void(std::size_t, std::size_t)>* body;
  std::size_t begin;
  std::size_t end;
  std::size_t chunk;
  std::size_t chunks;
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::size_t error_chunk = static_cast<std::size_t>(-1);
  std::exception_ptr error;
};

void run_chunks(void* ctx, std::size_t) {
  auto& job = *static_cast<ForJob*>(ctx);
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) return;
    const std::size_t b = job.begin + c * job.chunk;
    try {
      (*job.body)(b, std::min(job.end, b + job.chunk));
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (c < job.error_chunk) {
        job.error_chunk = c;
        job.error = std::current_exception();
      }
    }
  }
}

}  // namespace

std::size_t ThreadPool::resolve_size(std::size_t threads) {
  return threads != 0
             ? threads
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) : size_(resolve_size(threads)) {
  if (size_ == 1) return;
  threads_.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    threads_.emplace_back([this, i] { thread_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run(Body body, void* ctx) {
  if (threads_.empty()) {
    body(ctx, 0);
    return;
  }
  std::lock_guard<std::mutex> serial(run_mu_);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    body_ = body;
    ctx_ = ctx;
    working_ = threads_.size();
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [this] { return working_ == 0; });
    error = std::move(first_error_);
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::thread_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    Body body;
    void* ctx;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      ctx = ctx_;
    }
    std::exception_ptr error;
    try {
      body(ctx, worker);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !first_error_) first_error_ = std::move(error);
    if (--working_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (size_ == 1 || n < 2) {
    // Inline path: one chunk on the calling thread. An exception from
    // `body` propagates directly — the same caller-thread rethrow the
    // pooled path provides below.
    body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(n, size_ * 3);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  ForJob job;
  job.body = &body;
  job.begin = begin;
  job.end = end;
  job.chunk = chunk;
  job.chunks = (n + chunk - 1) / chunk;
  run(&run_chunks, &job);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace recode
