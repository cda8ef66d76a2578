#include "codec/band_runner.h"

#include <algorithm>
#include <exception>
#include <string>

#include "telemetry/telemetry.h"

namespace recode::codec {

namespace {

// Registry handles resolved once (registration locks; workers only touch
// the lock-free instruments).
struct SchedTelemetry {
  telemetry::Histogram& deque_occupancy;  // own-deque depth per acquire
  telemetry::Histogram& acquire_wait_us;  // scheduler spin per acquire

  static SchedTelemetry& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static SchedTelemetry* t = new SchedTelemetry{
        reg.histogram("spmv.sched.deque_occupancy"),
        reg.histogram("spmv.sched.acquire_wait_us"),
    };
    return *t;
  }
};

}  // namespace

BandRunner::BandRunner(std::size_t workers, std::size_t max_tasks)
    : pool_(workers) {
  SchedTelemetry::get();  // register the series before any run
  if (pool_.size() > 1) {
    scheduler_ = std::make_unique<WorkStealingScheduler<std::uint32_t>>(
        pool_.size(), max_tasks + 1);
    acquire_wait_.assign(pool_.size(), 0.0);
  }
}

BandRunner::~BandRunner() = default;

std::size_t BandRunner::queued() const {
  return scheduler_ ? scheduler_->queued() : 0;
}

void BandRunner::run(const std::vector<std::uint32_t>& order, Body body,
                     void* ctx, Lookahead lookahead, bool serial) {
  body_ = body;
  lookahead_ = lookahead;
  ctx_ = ctx;
  stats_ = BandRunStats{};
  if (!scheduler_ || serial) {
    stats_.workers = 1;
    run_inline(order);
    return;
  }

  stats_.workers = pool_.size();
  std::fill(acquire_wait_.begin(), acquire_wait_.end(), 0.0);
  scheduler_->reset();
  scheduler_->seed(order);
  // The pool returns once every worker has drained and rethrows the
  // first error; stats are collected on both paths.
  std::exception_ptr error;
  try {
    pool_.run(&BandRunner::worker_entry, this);
  } catch (...) {
    error = std::current_exception();
  }
  const StealStats& ss = scheduler_->stats();
  stats_.steals = ss.steals.load(std::memory_order_relaxed);
  stats_.steal_attempts = ss.steal_attempts.load(std::memory_order_relaxed);
  stats_.local_pops = ss.local_pops.load(std::memory_order_relaxed);
  stats_.injector_pops = ss.injector_pops.load(std::memory_order_relaxed);
  for (const double w : acquire_wait_) stats_.acquire_wait_seconds += w;
  if (error) std::rethrow_exception(error);
}

void BandRunner::run_inline(const std::vector<std::uint32_t>& order) {
  if (lookahead_ && !order.empty()) lookahead_(ctx_, order[0]);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (lookahead_ && i + 1 < order.size()) lookahead_(ctx_, order[i + 1]);
    body_(ctx_, order[i], 0);
  }
}

void BandRunner::worker_entry(void* self, std::size_t worker) {
  static_cast<BandRunner*>(self)->worker_loop(worker);
}

void BandRunner::worker_loop(std::size_t worker) {
  WorkStealingScheduler<std::uint32_t>& sched = *scheduler_;
  SchedTelemetry& telem = SchedTelemetry::get();
  if (telemetry::Tracer::global().enabled()) {
    telemetry::Tracer::global().set_thread_name("band-" +
                                                std::to_string(worker));
  }
  try {
    // With a lookahead hook the worker pops its NEXT task (one
    // non-blocking sweep) before running the one in hand. The blocking
    // acquire() is only entered with no task in hand: it spins until
    // every task has completed, so entering it while holding an
    // uncompleted task would deadlock the last worker.
    std::uint32_t task = 0;
    bool have_task = false;
    for (;;) {
      if (!have_task) {
        bool got;
        {
          telemetry::WaitTimer wait(telem.acquire_wait_us,
                                    &acquire_wait_[worker]);
          got = sched.acquire(worker, task);
        }
        if (!got) break;
        telem.deque_occupancy.observe(
            static_cast<double>(sched.deque_size(worker)));
      }
      std::uint32_t next = 0;
      have_task = lookahead_ != nullptr && sched.try_acquire(worker, next);
      if (have_task) {
        telem.deque_occupancy.observe(
            static_cast<double>(sched.deque_size(worker)));
        lookahead_(ctx_, next);
      }
      body_(ctx_, task, worker);
      sched.complete();
      task = next;
    }
  } catch (...) {
    sched.cancel();
    // The faulting worker never re-enters the loop's acquire(), so drain
    // its own deque here: the "all deques drained after an error"
    // contract. The pool rethrows the first error on the caller.
    std::uint32_t discard;
    sched.acquire(worker, discard);
    throw;
  }
}

}  // namespace recode::codec
