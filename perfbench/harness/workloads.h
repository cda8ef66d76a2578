// The three workloads. Each builds its inputs from the seed, sets up the
// engine several times (setup_s is the median), computes a bitwise
// reference, then runs a closed loop of ops on one caller thread for
// the requested seconds. An untraced run records the end-to-end
// metrics; a traced run splits its loop into an untraced and a traced
// half (telemetry.trace_overhead_frac) and then replays each layer.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/bench.h"
#include "spmv/streaming_executor.h"

namespace perfbench {

Outcome run_cg_mesh(const Options& o, Metrics& m);
Outcome run_spmm_graph(const Options& o, Metrics& m);
Outcome run_spgemm_write(const Options& o, Metrics& m);

// Executor profile summed over the ops of a run (last_stats() per op).
struct ExecutorTotals {
  std::uint64_t ops = 0;
  std::size_t workers = 0;
  double busy_s = 0, blocked_s = 0, wall_s = 0;
  double steals = 0, tasks = 0, fused_ops = 0;
  double blocks_decoded = 0;

  void add(const recode::spmv::OverlapStats& s) {
    ++ops;
    workers = s.workers;
    busy_s += s.decode_busy_seconds + s.compute_busy_seconds;
    blocked_s += s.decode_blocked_seconds + s.compute_blocked_seconds;
    wall_s += s.wall_seconds;
    steals += static_cast<double>(s.steals);
    tasks += static_cast<double>(s.bands);
    fused_ops += s.fused ? 1.0 : 0.0;
    blocks_decoded += static_cast<double>(s.blocks_decoded);
  }
};

// Per-layer facts every traced run records: codec.compress_s and
// codec.encode_mb_s from the setup compressions of `cm`, the trace
// overhead, the library threads seen after the loop, and the seed.
void record_run_facts(Metrics& m, const Options& o, const Loop& loop,
                      const recode::codec::CompressedMatrix& cm,
                      const std::vector<double>& compress_s,
                      std::size_t threads);

// Records the spmv executor metrics, codec.decoded_mb_per_op, and the
// ratios against the replayed baselines (call after replay_layers).
void record_executor(Metrics& m, const ExecutorTotals& t,
                     const recode::codec::CompressedMatrix& cm, double op_ms_p50);

// Records op_ms_p50, op_ms_p90 and ops_per_s from the untraced ops.
void record_latency(Metrics& m, const OpTimes& times);

// Prints one line per span name (count, total, self seconds) and writes
// the spans to <work_dir>/<workload>-trace.json.
void finish_trace(const SpanLog& log, const Options& o);

}  // namespace perfbench
