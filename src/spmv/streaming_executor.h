// Parallel decode->SpMV execution engine (the paper's §V-B co-scheduling,
// host-side). The matrix is cut into near-equal row-aligned *tasks*
// (sub-bands) and fanned out over the band runner (codec/band_runner.h):
// each worker claims the next task of the run order from one atomic
// cursor, so a worker that finishes early simply claims more.
//
// One execution mode, fused: every worker decodes AND accumulates its own
// tasks back-to-back, each block straight from the worker's decode arena
// into y. Decoded data never crosses a thread and is never copied except
// into the band cache. Small matrices (at most fused_inline_blocks
// blocks, or a single task) run the same loop inline on the calling
// thread: one worker, no claim cursor, no handoff.
//
// Every block reaches the executor through its BlockStream
// (spmv/block_decoder.h), which owns the workers' decoders, the band
// runner and the source's lease protocol; resident matrices are served
// by codec::make_resident_source, out-of-core ones by the caller's
// source.
//
// Determinism contract: tasks are maximal runs of consecutive blocks cut
// only where a block boundary coincides with a row boundary, so tasks own
// disjoint row ranges. Each task's blocks are decoded and accumulated in
// stream order by exactly one worker, through the same accumulate kernels
// as the serial engine, into rows no other task touches. Output is
// therefore bitwise-identical to serial RecodedSpmv::multiply for any
// worker count, any schedule, any claim order and any cache budget.
//
// Dynamic band splitting: a band whose block count exceeds
// split_blocks_threshold is re-cut at interior row-aligned boundaries so
// one oversized band cannot serialize the run. A band with no interior
// row boundary is unsplittable and streams as one task.
//
// Error contract: a recode::Error thrown mid-stream (corrupt block, lane
// fault) stops every worker from claiming another task and is rethrown
// on the calling thread once all have returned. The executor stays
// usable afterwards.
//
// Steady-state allocation: the stream (runner, worker team, decoders and
// arenas) is executor-owned and reused run after run — a
// warmed multiply performs zero heap allocations, with or without a warm
// band cache (asserted by the operator-new counting tests in
// tests/spmv/test_streaming_stress.cc).
//
// Decoded-band cache: with cache_budget_bytes > 0, tasks whose decoded
// CSR streams fit the budget are pinned (exact-sized copies, LRU
// evicted) after their first decode and served without touching the
// codec chain — bitwise-identical at any budget.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codec/pipeline.h"
#include "spmv/band_cache.h"
#include "spmv/block_decoder.h"
#include "spmv/recoded.h"

namespace recode::spmv {

struct StreamingConfig {
  // Worker pool = decode_threads + compute_threads. Every worker both
  // decodes and accumulates its own tasks, so only the sum matters.
  // decode_threads: 0 = max(1, hardware_concurrency - compute_threads).
  std::size_t decode_threads = 0;
  std::size_t compute_threads = 1;
  // Band granularity target: bands are grown to at least this many blocks
  // before cutting at the next row-aligned boundary.
  std::size_t blocks_per_band = 8;
  // Bands with more blocks than this are re-cut at interior row-aligned
  // boundaries (dynamic band splitting). 0 = auto: spread the matrix over
  // at least 4 tasks per worker when the block count allows it.
  std::size_t split_blocks_threshold = 0;
  // Matrices with at most this many blocks (or a single task) run the
  // fused loop inline on the calling thread.
  std::size_t fused_inline_blocks = 16;
  DecodeEngine engine = DecodeEngine::kSoftware;
  // Decoded-band cache budget in bytes (0 = off). See band_cache.h.
  std::size_t cache_budget_bytes = 0;
};

// A row band: consecutive blocks [first_block, first_block + block_count)
// whose rows [first_row, end_row) no other band touches. Also the unit of
// scheduling (a post-split band == one task).
struct RowBand {
  std::size_t first_block = 0;
  std::size_t block_count = 0;
  sparse::index_t first_row = 0;
  sparse::index_t end_row = 0;  // exclusive
};

// Cuts the blocking plan into row-aligned bands of >= target_blocks
// blocks (the final band may be smaller; a long row can force a larger
// one). Always returns at least one band for a non-empty matrix.
std::vector<RowBand> make_row_bands(const sparse::Blocking& blocking,
                                    std::size_t target_blocks);

// Dynamic band splitting: bands with more than max_blocks blocks are
// re-cut at interior row-aligned boundaries — each piece ends at the
// latest boundary within max_blocks of its start, so a piece only
// exceeds the cap when the nnz stream has no interior row boundary in
// that window (long rows spanning many blocks). Bands at or under the
// limit pass through unchanged. Returns the number of extra tasks
// created via `splits` (nullable).
std::vector<RowBand> split_row_bands(const sparse::Blocking& blocking,
                                     const std::vector<RowBand>& bands,
                                     std::size_t max_blocks,
                                     std::size_t* splits = nullptr);

// Measured profile of the last multiply()/multiply_batch() call, the
// input core::analyze_overlap() consumes.
struct OverlapStats {
  double wall_seconds = 0.0;
  double decode_busy_seconds = 0.0;   // summed across workers
  double compute_busy_seconds = 0.0;  // summed across workers
  // Workers' tail waits: from finding the claim cursor exhausted to the
  // end of the run, summed. 0 when RECODE_TELEMETRY=OFF.
  double decode_blocked_seconds = 0.0;
  // Always 0: no worker waits on another's decode. Kept so profile
  // readers that sum both blocked fields keep working.
  double compute_blocked_seconds = 0.0;
  std::size_t workers = 0;    // threads that actually ran
  bool fused = true;          // always true: the only execution mode
  bool inline_run = false;    // small-matrix path: no threads at all
  std::size_t bands = 0;      // tasks scheduled (post-split partition)
  std::size_t split_bands = 0;  // extra tasks created by dynamic splitting
  // Always 0: workers claim tasks from one cursor and nothing is stolen.
  // Kept for the perfbench harness's spmv.steals; goes with ROADMAP item
  // 10's benchmark-type cleanup.
  std::uint64_t steals = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t udp_cycles = 0;  // kUdpSimulated only
  // Decoded-band cache activity for this call. blocks_decoded /
  // compressed_bytes count only real decodes, so on a fully warm cache
  // both are 0 — the data-movement saving the cache models.
  std::size_t cache_hit_bands = 0;
  std::size_t cache_miss_bands = 0;
  std::uint64_t cache_hit_blocks = 0;
  std::size_t cache_bytes_pinned = 0;  // after the call
};

class StreamingExecutor {
 public:
  explicit StreamingExecutor(const codec::CompressedMatrix& cm,
                             StreamingConfig config = {});

  // Out-of-core variant: compressed streams come from `source` (cm may
  // be header-only). The source reads at least one band ahead of
  // decode: the stream's lookahead hint stages each worker's next band
  // before the band in hand decodes (claim-order lookahead: a worker
  // hints only the band it claimed next, so in-flight compressed bytes
  // stay bounded by two bands per worker; the inline path hints the next
  // task of the run order once the task in hand holds its lease). Bands the
  // BandCache serves are skipped (warm runs re-stream only what the
  // cache couldn't pin).
  // kUdpSimulated needs resident blocks and throws recode::Error here.
  StreamingExecutor(const codec::CompressedMatrix& cm,
                    std::shared_ptr<codec::ContainerSource> source,
                    StreamingConfig config = {});

  ~StreamingExecutor();

  StreamingExecutor(const StreamingExecutor&) = delete;
  StreamingExecutor& operator=(const StreamingExecutor&) = delete;

  // y = A*x. Bitwise-identical to serial RecodedSpmv::multiply.
  void multiply(std::span<const double> x, std::span<double> y);

  // Y = A*X for k right-hand sides, row-major (X is cols x k, Y is
  // rows x k, the spmm_csr layout). Each block is decoded once and
  // multiplied against all k vectors. k == 1 is exactly multiply().
  void multiply_batch(std::span<const double> x, std::span<double> y, int k);

  // The scheduled task partition (bands after dynamic splitting).
  const std::vector<RowBand>& bands() const { return bands_; }
  const StreamingConfig& config() const { return config_; }
  const OverlapStats& last_stats() const { return stats_; }

  // Switches the decode engine for subsequent multiplies. Invalidates
  // the decoded-band cache: pinned bands were produced by the previous
  // engine, and the cache must never mix provenance within one run even
  // though both engines are decode-differential-identical.
  void set_engine(DecodeEngine engine);

  // Drops every pinned band (the next multiply re-warms from cold).
  void clear_cache();

  // Cache policy counters / pinned-byte accounting; all-zero when the
  // cache is disabled (cache_budget_bytes == 0).
  BandCache::Stats cache_stats() const;

  // Totals across all calls (mirrors RecodedSpmv's counters).
  std::uint64_t blocks_decoded() const { return stream_->totals().blocks; }
  std::uint64_t compressed_bytes_streamed() const {
    return stream_->totals().bytes;
  }

 private:
  struct WorkerSlot;  // per-worker stats

  // BlockStream hooks (ctx = this).
  static std::span<const BlockRun> task_ranges(void* self,
                                               std::uint32_t task);
  static void run_task(void* self, std::uint32_t task, std::size_t worker);

  void execute_task(std::size_t worker, std::uint32_t task);
  void finish_run(double wall_seconds);

  const codec::CompressedMatrix* cm_;
  StreamingConfig config_;
  std::vector<RowBand> bands_;
  std::vector<BlockRun> band_runs_;  // each band's block range
  std::size_t split_bands_ = 0;  // tasks added by dynamic splitting
  // Seed orders, alternated per run (serpentine scan): a fixed scan
  // direction plus an LRU band cache is the textbook sequential-thrash
  // pattern — with a budget of half the matrix every pass would evict
  // exactly the bands the next pass is about to ask for. Reversing
  // direction each run makes consecutive passes re-touch the most
  // recently pinned bands first. Legal because task order never affects
  // output (disjoint row ranges).
  std::vector<std::uint32_t> task_ids_fwd_;
  std::vector<std::uint32_t> task_ids_rev_;
  std::uint64_t run_counter_ = 0;
  std::vector<WorkerSlot> slots_;
  // Operands of the multiply in flight, read by the workers.
  std::span<const double> x_;
  std::span<double> y_;
  int k_ = 1;
  std::unique_ptr<BandCache> cache_;  // null when cache_budget_bytes == 0
  OverlapStats stats_;
  // Lifetime cache counters already published to telemetry, so each run
  // adds only its delta to the process-wide insert/evict counters.
  std::uint64_t cache_inserts_seen_ = 0;
  std::uint64_t cache_evictions_seen_ = 0;
  // One worker == the inline path. Declared last: its threads reach the
  // members above through the hooks, so it is destroyed first.
  std::unique_ptr<BlockStream> stream_;
};

}  // namespace recode::spmv
