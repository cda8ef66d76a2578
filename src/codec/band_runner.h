// Reusable fan-out over independent tasks: the one harness
// spmv::BlockStream (spmv/block_decoder.h) runs the streaming executor's
// and SpMSpV's row-disjoint bands and SpGEMM's block ranges on, and the
// streamed container writer (container_writer.h) runs its per-block
// encodes and file I/O tasks on. It lives in the codec layer because the
// writer does; it depends only on common/ and telemetry/.
//
// A BandRunner owns a ThreadPool and keeps it across runs. A threaded
// run hands out the task order through one atomic claim cursor: a worker
// claims position i = cursor++ and stops once i >= order.size(). The
// planners cut near-equal tasks, so claiming in plan order balances the
// team without per-worker queues or stealing. The body is a raw function
// pointer plus context, so a run on a warmed runner performs no heap
// allocation — the streaming executor and SpMSpV hold one (inside their
// BlockStream) for their lifetime for exactly that reason; SpGEMM and the
// container writer build one per call.
//
// A one-worker runner, or a run asked to be serial, has no cursor in
// play: it runs the order inline on the calling thread as worker 0.
//
// Lookahead, one rule for every run: with a lookahead hook set, a worker
// hands the hook the task it will run next, once it holds that task and
// before it runs the one in hand. A threaded worker claims its next task
// before running the one in hand, so it hints only tasks it runs itself;
// the inline walk holds the whole order, so it hints order[0] before the
// run and order[i + 1] before running order[i]. Out-of-core consumers
// prefetch that task's compressed bytes behind the current decode, so
// in-flight bytes stay bounded by two ranges per worker. Without a hook
// a worker claims its next task only after each body.
//
// Determinism contract: callers hand in tasks that own disjoint outputs
// (row ranges, block slots) and a body whose work for a task does not
// depend on the executing worker beyond scratch arenas, so output is
// bitwise-identical for any worker count and claim order.
//
// Error contract: the first exception a body (or hook) throws moves the
// cursor past the end, so no worker claims another task; run() rethrows
// the error on the calling thread once every worker has returned, and
// the runner stays usable.
//
// Telemetry: each threaded worker's tail wait — from finding the cursor
// exhausted to the end of the run, when the last body returns — is one
// spmv.sched.acquire_wait_us sample (and adds to
// BandRunStats::acquire_wait_seconds). Zero-cost when
// RECODE_TELEMETRY=OFF. The series keeps its spmv.sched name (dashboards
// and benches read it) although the runner now sits in the codec layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"

namespace recode::codec {

struct BandRunStats {
  // Workers' tail waits from an exhausted cursor to the end of the run,
  // summed over workers. Measured only with telemetry compiled in, and
  // always 0 on the inline path.
  double acquire_wait_seconds = 0.0;
  std::size_t workers = 0;  // threads that ran (1 = inline)
};

class BandRunner {
 public:
  using Body = void (*)(void* ctx, std::uint32_t task, std::size_t worker);
  using Lookahead = void (*)(void* ctx, std::uint32_t task);

  // `workers` threads (ThreadPool::resolve_size). The team is spawned
  // here, never during a run.
  explicit BandRunner(std::size_t workers);

  BandRunner(const BandRunner&) = delete;
  BandRunner& operator=(const BandRunner&) = delete;

  // Runs body(ctx, task, worker) once for every task of `order`, claimed
  // in that order (`serial`: inline, in that order). Blocks until every
  // worker has returned; rethrows the first error. last_stats() is
  // refreshed either way.
  void run(const std::vector<std::uint32_t>& order, Body body, void* ctx,
           Lookahead lookahead = nullptr, bool serial = false);

  const BandRunStats& last_stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  static void worker_entry(void* self, std::size_t worker);
  void worker_loop(std::size_t worker);
  void run_inline();

  ThreadPool pool_;
  std::atomic<std::size_t> cursor_{0};
  std::vector<Clock::time_point> exhausted_at_;  // per worker, each run
  // The run in flight.
  const std::vector<std::uint32_t>* order_ = nullptr;
  Body body_ = nullptr;
  Lookahead lookahead_ = nullptr;
  void* ctx_ = nullptr;
  BandRunStats stats_;
};

}  // namespace recode::codec
