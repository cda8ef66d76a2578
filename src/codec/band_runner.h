// Reusable work-stealing fan-out over independent tasks: the one harness
// spmv::BlockStream (spmv/block_decoder.h) runs the streaming executor's
// and SpMSpV's row-disjoint bands and SpGEMM's block ranges on, and the
// streamed container writer (container_writer.h) runs its per-block
// encodes and file I/O tasks on. It lives in the codec layer because the
// writer does; it depends only on common/ and telemetry/.
//
// A BandRunner owns a WorkStealingScheduler (common/work_stealing.h) and
// a ThreadPool and keeps them across runs. run() seeds the scheduler with
// a task order, runs the team, and lets idle workers steal. The body is a
// raw function pointer plus context, so a run on a warmed runner performs
// no heap allocation — the streaming executor and SpMSpV hold one (inside
// their BlockStream) for their lifetime for exactly that reason; SpGEMM
// and the container writer build one per call.
//
// A one-worker runner, or a run asked to be serial, has no scheduler in
// play: it runs the order inline on the calling thread as worker 0.
//
// Lookahead, one rule for every run: with a lookahead hook set, a worker
// hands the hook the task it will run next, once it holds that task and
// before it runs the one in hand. A threaded worker holds its next task
// only by popping it ahead (try_acquire, never blocking); the inline walk
// holds the whole order, so it hints order[0] before the run and
// order[i + 1] before running order[i]. Out-of-core consumers prefetch
// that task's compressed bytes behind the current decode, so in-flight
// bytes stay bounded by about two ranges per worker however stealing
// reorders the run. A task a worker had to wait or steal for is read by
// that worker itself, in parallel with the hinted reads. Without a hook
// nothing is popped ahead.
//
// Determinism contract: callers hand in tasks that own disjoint outputs
// (row ranges, block slots) and a body whose work for a task does not
// depend on the executing worker beyond scratch arenas, so output is
// bitwise-identical for any worker count and steal order.
//
// Error contract: the first exception a body (or hook) throws cancels
// the scheduler; the faulting worker drains its own deque, the others
// drain on their next acquire, and run() rethrows the error on the
// calling thread once every worker has returned. queued() is 0 after
// every run, failed or not, and the runner stays usable.
//
// Telemetry: each blocking acquire is timed into spmv.sched.acquire_wait_us
// (and BandRunStats::acquire_wait_seconds), and each acquisition samples
// the worker's own deque depth into spmv.sched.deque_occupancy. Both are
// zero-cost when RECODE_TELEMETRY=OFF. The series keep their spmv.sched
// names (dashboards and benches read them) although the runner now sits
// in the codec layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "common/work_stealing.h"

namespace recode::codec {

struct BandRunStats {
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t local_pops = 0;
  std::uint64_t injector_pops = 0;
  // Time workers spent waiting in a blocking acquire, summed over
  // workers. Measured by the telemetry wait probe: 0 when telemetry is
  // compiled out, and always 0 on the inline path.
  double acquire_wait_seconds = 0.0;
  std::size_t workers = 0;  // threads that ran (1 = inline)
};

class BandRunner {
 public:
  using Body = void (*)(void* ctx, std::uint32_t task, std::size_t worker);
  using Lookahead = void (*)(void* ctx, std::uint32_t task);

  // `workers` threads (ThreadPool::resolve_size); runs may hand in at
  // most `max_tasks` tasks. The team is spawned here, never during a run.
  BandRunner(std::size_t workers, std::size_t max_tasks);
  ~BandRunner();

  BandRunner(const BandRunner&) = delete;
  BandRunner& operator=(const BandRunner&) = delete;

  // Runs body(ctx, task, worker) once for every task of `order`, seeded
  // in that order (`serial`: inline, in that order). Blocks until the run
  // has drained; rethrows the first error. last_stats() is refreshed
  // either way.
  void run(const std::vector<std::uint32_t>& order, Body body, void* ctx,
           Lookahead lookahead = nullptr, bool serial = false);

  const BandRunStats& last_stats() const { return stats_; }

  // Tasks still queued in the scheduler: 0 whenever no run is in flight,
  // including after an error (the drained-deques contract).
  std::size_t queued() const;

 private:
  static void worker_entry(void* self, std::size_t worker);
  void worker_loop(std::size_t worker);
  void run_inline(const std::vector<std::uint32_t>& order);

  ThreadPool pool_;
  std::unique_ptr<WorkStealingScheduler<std::uint32_t>> scheduler_;
  std::vector<double> acquire_wait_;  // per-worker, reset each run
  // The run in flight.
  Body body_ = nullptr;
  Lookahead lookahead_ = nullptr;
  void* ctx_ = nullptr;
  BandRunStats stats_;
};

}  // namespace recode::codec
