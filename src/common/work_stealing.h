// Work-stealing scheduling primitives behind codec::BandRunner (the fan-out
// of the streaming executor, SpGEMM and SpMSpV): a Chase–Lev-style
// per-worker deque plus a scheduler that combines one deque per worker
// with a small mutex-guarded injector queue.
//
// Why this replaces the bounded per-band queues: with rigid capacity-2
// band queues the decode stage (96% of the measured busy time,
// core.overlap.decode_fraction) stalls whenever its own band's consumer
// falls behind, even while other workers sit idle. Work stealing makes
// every queued task reachable by every worker — an idle worker helps the
// loaded one instead of waiting on it — which is what lets the executor
// approach linear scaling when one band is much larger than the rest.
//
// Memory-ordering note: the classic C11 Chase–Lev formulation
// (Lê et al., PPoPP'13) relies on standalone atomic_thread_fence, which
// ThreadSanitizer does not model — runs under the tsan preset would
// report false races. This implementation instead puts seq_cst ordering
// on the top/bottom indices and stores elements in atomic cells. That
// costs a few extra fenced operations per op (irrelevant next to a block
// decode, the granularity this repo schedules at) and is exactly
// race-free under the C++ memory model, so the tsan battery is
// authoritative rather than noisy.
//
// Determinism: the streaming executor's bitwise parallel≡serial guarantee
// never depends on who executes a task — tasks own disjoint output row
// ranges — so the scheduler is free to hand tasks to any worker in any
// order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace recode {

// Fixed-capacity Chase–Lev-style deque. The owner pushes and pops at the
// bottom (LIFO — the freshest task is the cache-warm one); thieves steal
// from the top (FIFO — the oldest task, the one the owner will reach
// last, minimizing contention on the same end). Single owner, any number
// of thieves.
//
// T must be trivially copyable and lock-free-atomic sized (task handles:
// indices, small PODs packed into a word).
template <typename T>
class WorkStealingDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "deque cells are atomics; store task handles, not objects");
  static_assert(sizeof(T) <= sizeof(std::uint64_t),
                "deque cells must be lock-free atomic sized");

 public:
  enum class Steal { kStolen, kEmpty, kAbort };

  // Capacity is rounded up to a power of two. The deque never grows:
  // push_bottom fails when full and the caller overflows into the
  // scheduler's injector queue instead (growth would need epoch-based
  // buffer reclamation, unjustified when the task count is known at seed
  // time).
  explicit WorkStealingDeque(std::size_t capacity = 256) {
    std::size_t cap = 1;
    while (cap < capacity) cap *= 2;
    buffer_ = std::vector<std::atomic<T>>(cap);
    mask_ = cap - 1;
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // Owner only. Returns false when the ring is full.
  bool push_bottom(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(capacity())) return false;
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        item, std::memory_order_relaxed);
    // seq_cst publish: the element store above must be visible before any
    // thief can observe the new bottom.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  // Owner only. LIFO: takes the most recently pushed item. Returns false
  // when empty.
  bool pop_bottom(T& out) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // was empty; undo
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return false;
    }
    out = buffer_[static_cast<std::size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Last element: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst)) {
        // A thief won; the deque is empty.
        bottom_.store(b + 1, std::memory_order_seq_cst);
        return false;
      }
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return true;
  }

  // Any thread. FIFO: takes the oldest item. kAbort means a concurrent
  // steal or pop won the race — the caller may retry or move on.
  Steal steal_top(T& out) {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return Steal::kEmpty;
    // Read the element before claiming it; if the CAS fails the value is
    // discarded, and cells are atomic so the read is race-free even when
    // the owner recycles the slot afterwards.
    const T item = buffer_[static_cast<std::size_t>(t) & mask_].load(
        std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      return Steal::kAbort;
    }
    out = item;
    return Steal::kStolen;
  }

  // Approximate (racy) occupancy — the telemetry sampling view.
  std::size_t size() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool empty() const { return size() == 0; }

  // Quiescent-state only (no concurrent owner/thief): rewind to empty so
  // a persistent deque is reused run after run without reallocating.
  void reset() {
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<T>> buffer_;
  std::size_t mask_ = 0;
  // top/bottom use the usual Chase-Lev signed indices; top only ever
  // increases (stolen slots are never reused within a run).
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

// Per-run scheduler statistics, reset with the scheduler. Plain atomics:
// workers bump them concurrently, the owner reads them after the run.
struct StealStats {
  std::atomic<std::uint64_t> steals{0};          // successful steal_top
  std::atomic<std::uint64_t> steal_attempts{0};  // probes incl. empty/abort
  std::atomic<std::uint64_t> injector_pops{0};
  std::atomic<std::uint64_t> local_pops{0};

  void reset() {
    steals.store(0, std::memory_order_relaxed);
    steal_attempts.store(0, std::memory_order_relaxed);
    injector_pops.store(0, std::memory_order_relaxed);
    local_pops.store(0, std::memory_order_relaxed);
  }
};

// N-worker work-stealing scheduler over a fixed task set: one deque per
// worker plus a small mutex-guarded injector queue for overflow and for
// tasks submitted from outside the worker set. acquire() is the only
// entry point workers need — it tries the local deque (LIFO), then the
// injector, then steals (FIFO) from the other workers, and spins with
// backoff until work appears, every task is done, or the run is
// cancelled.
//
// Lifecycle: seed()/inject() while quiescent (or inject concurrently
// from non-workers), workers call acquire()/complete(), then the owner
// calls reset() before the next run. A cancelled run still guarantees
// every deque and the injector end up empty once all workers have
// returned from acquire() — the "drained on error" contract the
// streaming executor's fault tests assert.
template <typename T>
class WorkStealingScheduler {
 public:
  explicit WorkStealingScheduler(std::size_t workers,
                                 std::size_t deque_capacity = 256)
      : injector_open_(true) {
    if (workers == 0) workers = 1;
    deques_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      deques_.push_back(std::make_unique<WorkStealingDeque<T>>(deque_capacity));
    }
  }

  std::size_t workers() const { return deques_.size(); }

  // Quiescent: distribute tasks round-robin across the worker deques,
  // overflowing into the injector when a deque is full. Expects a reset
  // scheduler. Also arms the outstanding-task counter.
  void seed(const std::vector<T>& tasks) {
    std::size_t w = 0;
    for (const T& task : tasks) {
      if (!deques_[w]->push_bottom(task)) {
        std::lock_guard<std::mutex> lock(injector_mu_);
        injector_.push_back(task);
      }
      w = (w + 1) % deques_.size();
    }
    remaining_.store(tasks.size(), std::memory_order_relaxed);
  }

  // Thread-safe submission from any thread (including non-workers).
  // Counts toward the outstanding tasks.
  void inject(T task) {
    {
      std::lock_guard<std::mutex> lock(injector_mu_);
      injector_.push_back(task);
    }
    remaining_.fetch_add(1, std::memory_order_relaxed);
  }

  // Blocks (spinning with yield backoff) until a task is available,
  // every task completed, or cancel(). Returns false when the worker
  // should exit; the worker's own deque is guaranteed drained by then.
  bool acquire(std::size_t worker, T& out) {
    WorkStealingDeque<T>& own = *deques_[worker];
    int idle_sweeps = 0;
    for (;;) {
      if (cancelled_.load(std::memory_order_acquire)) {
        drain_own(worker);
        return false;
      }
      if (own.pop_bottom(out)) {
        stats_.local_pops.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (try_pop_injector(out)) {
        stats_.injector_pops.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      bool any_abort = false;
      for (std::size_t i = 1; i < deques_.size(); ++i) {
        const std::size_t victim = (worker + i) % deques_.size();
        stats_.steal_attempts.fetch_add(1, std::memory_order_relaxed);
        switch (deques_[victim]->steal_top(out)) {
          case WorkStealingDeque<T>::Steal::kStolen:
            stats_.steals.fetch_add(1, std::memory_order_relaxed);
            return true;
          case WorkStealingDeque<T>::Steal::kAbort:
            any_abort = true;
            break;
          case WorkStealingDeque<T>::Steal::kEmpty:
            break;
        }
      }
      if (remaining_.load(std::memory_order_acquire) == 0) return false;
      if (!any_abort) {
        // Nothing visible anywhere: either the last tasks are in flight
        // on other workers or a producer is about to inject. Back off —
        // on a loaded host an aggressive spinner steals cycles from the
        // very worker it is waiting on.
        ++idle_sweeps;
        if (idle_sweeps > 64) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

  // One non-blocking sweep: own deque, then injector, then a single
  // steal round. For callers that must not block while already holding
  // an uncompleted task — acquire() spins until remaining_ hits zero,
  // so re-entering it with a live task would deadlock the last worker.
  // Returns false on a momentarily-empty sweep, after cancel(), or when
  // every task is done; the caller falls back to finishing its held
  // task and calling the blocking acquire() afterwards.
  bool try_acquire(std::size_t worker, T& out) {
    if (cancelled_.load(std::memory_order_acquire)) return false;
    if (deques_[worker]->pop_bottom(out)) {
      stats_.local_pops.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (try_pop_injector(out)) {
      stats_.injector_pops.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    for (std::size_t i = 1; i < deques_.size(); ++i) {
      const std::size_t victim = (worker + i) % deques_.size();
      stats_.steal_attempts.fetch_add(1, std::memory_order_relaxed);
      if (deques_[victim]->steal_top(out) ==
          WorkStealingDeque<T>::Steal::kStolen) {
        stats_.steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  // Worker reports one acquired task finished. When the last outstanding
  // task completes, acquire() everywhere starts returning false.
  void complete() { remaining_.fetch_sub(1, std::memory_order_acq_rel); }

  // Error path: every acquire() returns false after draining the
  // caller's own deque; queued injector tasks are dropped immediately.
  void cancel() {
    cancelled_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(injector_mu_);
    injector_.clear();
  }

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  // Tasks acquired but not yet complete()d, plus tasks still queued.
  std::size_t remaining() const {
    return remaining_.load(std::memory_order_acquire);
  }

  // Total tasks currently queued across every deque and the injector
  // (approximate while workers run; exact when quiescent — the
  // drained-after-error assertion).
  std::size_t queued() const {
    std::size_t total = 0;
    for (const auto& d : deques_) total += d->size();
    std::lock_guard<std::mutex> lock(injector_mu_);
    return total + injector_.size();
  }

  // Approximate occupancy of one worker's deque (telemetry sampling).
  std::size_t deque_size(std::size_t worker) const {
    return deques_[worker]->size();
  }

  const StealStats& stats() const { return stats_; }

  // Quiescent: back to a clean, uncancelled, empty scheduler. Buffers
  // are retained, so reset+seed performs no heap allocation once the
  // injector deque has seen its high-water mark.
  void reset() {
    for (auto& d : deques_) d->reset();
    {
      std::lock_guard<std::mutex> lock(injector_mu_);
      injector_.clear();
    }
    remaining_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    stats_.reset();
  }

 private:
  bool try_pop_injector(T& out) {
    std::lock_guard<std::mutex> lock(injector_mu_);
    if (injector_.empty()) return false;
    out = injector_.front();
    injector_.pop_front();
    return true;
  }

  void drain_own(std::size_t worker) {
    T discard;
    while (deques_[worker]->pop_bottom(discard)) {
    }
  }

  std::vector<std::unique_ptr<WorkStealingDeque<T>>> deques_;
  mutable std::mutex injector_mu_;
  std::deque<T> injector_;
  bool injector_open_;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<bool> cancelled_{false};
  StealStats stats_;
};

}  // namespace recode
