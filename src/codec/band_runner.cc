#include "codec/band_runner.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

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
    : workers_(workers) {
  if (workers_ == 0) {
    workers_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  SchedTelemetry::get();  // register the series before any run
  if (workers_ > 1) {
    scheduler_ = std::make_unique<WorkStealingScheduler<std::uint32_t>>(
        workers_, max_tasks + 1);
    team_ = std::make_unique<WorkerTeam>(workers_);
    acquire_wait_.assign(workers_, 0.0);
  }
}

BandRunner::~BandRunner() = default;

std::size_t BandRunner::queued() const {
  return scheduler_ ? scheduler_->queued() : 0;
}

void BandRunner::run(const std::vector<std::uint32_t>& order, Body body,
                     void* ctx, Lookahead lookahead) {
  body_ = body;
  lookahead_ = lookahead;
  ctx_ = ctx;
  stats_ = BandRunStats{};
  stats_.workers = workers_;
  if (!scheduler_) {
    run_inline(order);
    return;
  }

  std::fill(acquire_wait_.begin(), acquire_wait_.end(), 0.0);
  scheduler_->reset();
  scheduler_->seed(order);
  gate_.reset(workers_);
  team_->run(&BandRunner::worker_entry, this);
  // gate_.wait() blocks until every worker has drained, then rethrows the
  // first error; team_->wait() parks the threads so the next run() is
  // legal. Stats are collected on both paths.
  std::exception_ptr error;
  try {
    gate_.wait();
  } catch (...) {
    error = std::current_exception();
  }
  team_->wait();
  const StealStats& ss = scheduler_->stats();
  stats_.steals = ss.steals.load(std::memory_order_relaxed);
  stats_.steal_attempts = ss.steal_attempts.load(std::memory_order_relaxed);
  stats_.local_pops = ss.local_pops.load(std::memory_order_relaxed);
  stats_.injector_pops = ss.injector_pops.load(std::memory_order_relaxed);
  for (const double w : acquire_wait_) stats_.acquire_wait_seconds += w;
  if (error) std::rethrow_exception(error);
}

void BandRunner::run_inline(const std::vector<std::uint32_t>& order) {
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
    gate_.arrive();
  } catch (...) {
    sched.cancel();
    // The faulting worker never re-enters the loop's acquire(), so drain
    // its own deque here: the "all deques drained after an error"
    // contract.
    std::uint32_t discard;
    sched.acquire(worker, discard);
    gate_.arrive_with_error(std::current_exception());
  }
}

}  // namespace recode::codec
