#include "spmv/streaming_executor.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// Registry handles resolved once (registration locks; the workers only
// touch the lock-free instruments). All of this is a no-op skeleton when
// RECODE_TELEMETRY=OFF. The tail-wait histogram lives with the band
// runner (spmv.sched.*).
struct StreamTelemetry {
  telemetry::Counter& runs;
  telemetry::Counter& fused_runs;
  telemetry::Counter& inline_runs;
  telemetry::Counter& blocks;
  telemetry::Counter& bytes;
  telemetry::Counter& udp_cycles;
  telemetry::Counter& tasks_scheduled;
  telemetry::Counter& tasks_split;
  telemetry::Counter& cache_hit_bands;
  telemetry::Counter& cache_miss_bands;
  telemetry::Counter& cache_hit_blocks;
  telemetry::Counter& cache_insert_bands;
  telemetry::Counter& cache_evict_bands;
  telemetry::Gauge& cache_bytes_pinned;
  telemetry::Counter& decode_busy_ns;
  telemetry::Counter& decode_blocked_ns;
  telemetry::Counter& compute_busy_ns;
  telemetry::Counter& compute_blocked_ns;

  static StreamTelemetry& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static StreamTelemetry* t = new StreamTelemetry{
        reg.counter("spmv.stream.runs"),
        reg.counter("spmv.exec.fused_runs"),
        reg.counter("spmv.exec.inline_runs"),
        reg.counter("spmv.stream.blocks_decoded"),
        reg.counter("spmv.stream.compressed_bytes"),
        reg.counter("spmv.stream.udp_cycles"),
        reg.counter("spmv.tasks.scheduled"),
        reg.counter("spmv.tasks.split_bands"),
        reg.counter("spmv.cache.hit_bands"),
        reg.counter("spmv.cache.miss_bands"),
        reg.counter("spmv.cache.hit_blocks"),
        reg.counter("spmv.cache.insert_bands"),
        reg.counter("spmv.cache.evict_bands"),
        reg.gauge("spmv.cache.bytes_pinned"),
        reg.counter("spmv.decode.busy_ns"),
        reg.counter("spmv.decode.blocked_ns"),
        reg.counter("spmv.compute.busy_ns"),
        reg.counter("spmv.compute.blocked_ns"),
    };
    return *t;
  }
};

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

// Counter tracks alongside the spans: cumulative ledger byte totals
// sampled once per completed task, so Perfetto renders the slope of each
// track as the corresponding bandwidth over time (decoded, cache-served,
// kernel-consumed). One snapshot per *task*, only while tracing.
void trace_ledger_counters() {
  if constexpr (telemetry::kEnabled) {
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    if (!tracer.enabled()) return;
    const telemetry::LedgerSnapshot s =
        telemetry::MovementLedger::global().snapshot();
    tracer.counter("ledger", "bytes_decoded", "bytes",
                   s.hop(telemetry::Hop::kTransform).bytes_out);
    tracer.counter("ledger", "bytes_cache_served", "bytes",
                   s.hop(telemetry::Hop::kCache).bytes_out);
    tracer.counter("ledger", "bytes_kernel", "bytes",
                   s.hop(telemetry::Hop::kKernel).bytes_in);
  }
}

}  // namespace

std::vector<RowBand> make_row_bands(const sparse::Blocking& blocking,
                                    std::size_t target_blocks) {
  std::vector<RowBand> bands;
  const auto& blocks = blocking.blocks;
  if (blocks.empty()) return bands;
  if (target_blocks == 0) target_blocks = 1;

  std::size_t first = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const bool last = b + 1 == blocks.size();
    // A cut between b and b+1 is legal only when no row spans the
    // boundary; rows then partition cleanly between the two bands.
    const bool row_aligned =
        last || blocks[b].last_row < blocks[b + 1].first_row;
    if (row_aligned && (last || b + 1 - first >= target_blocks)) {
      RowBand band;
      band.first_block = first;
      band.block_count = b + 1 - first;
      band.first_row = blocks[first].first_row;
      band.end_row = blocks[b].last_row + 1;
      bands.push_back(band);
      first = b + 1;
    }
  }
  return bands;
}

std::vector<RowBand> split_row_bands(const sparse::Blocking& blocking,
                                     const std::vector<RowBand>& bands,
                                     std::size_t max_blocks,
                                     std::size_t* splits) {
  if (splits) *splits = 0;
  if (max_blocks == 0) max_blocks = 1;
  std::vector<RowBand> out;
  out.reserve(bands.size());
  const auto& blocks = blocking.blocks;
  for (const RowBand& band : bands) {
    if (band.block_count <= max_blocks) {
      out.push_back(band);
      continue;
    }
    // Greedy under the cap: each piece cuts at the LATEST row-aligned
    // boundary within max_blocks of its start, so no piece exceeds the
    // cap unless the stream has no interior row boundary inside that
    // window at all (then it extends to the first boundary beyond —
    // tasks must stay row-disjoint for bitwise determinism).
    const std::size_t end = band.first_block + band.block_count;
    const auto row_aligned = [&](std::size_t b) {
      return b + 1 == end || blocks[b].last_row < blocks[b + 1].first_row;
    };
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t emitted = 0;
    std::size_t first = band.first_block;
    while (first < end) {
      const std::size_t limit = std::min(first + max_blocks, end);
      std::size_t cut = npos;
      for (std::size_t b = first; b < limit; ++b) {
        if (row_aligned(b)) cut = b;
      }
      if (cut == npos) {
        for (std::size_t b = limit; b < end; ++b) {
          if (row_aligned(b)) {
            cut = b;
            break;
          }
        }
      }
      RowBand piece;
      piece.first_block = first;
      piece.block_count = cut + 1 - first;
      piece.first_row = blocks[first].first_row;
      piece.end_row = blocks[cut].last_row + 1;
      out.push_back(piece);
      ++emitted;
      first = cut + 1;
    }
    if (splits && emitted > 1) *splits += emitted - 1;
  }
  return out;
}

// Per-worker stats slot, written only by the owning worker during a run
// and read by the caller after it returns. Aligned so neighbouring
// workers' slots never share a cache line.
struct alignas(64) StreamingExecutor::WorkerSlot {
  double compute_busy = 0.0;
  std::uint64_t hit_blocks = 0;
  std::size_t hit_bands = 0;
  std::size_t miss_bands = 0;
};

StreamingExecutor::StreamingExecutor(const codec::CompressedMatrix& cm,
                                     StreamingConfig config)
    : StreamingExecutor(cm, nullptr, config) {}

StreamingExecutor::StreamingExecutor(
    const codec::CompressedMatrix& cm,
    std::shared_ptr<codec::ContainerSource> source, StreamingConfig config)
    : cm_(&cm), config_(config) {
  if (config_.compute_threads == 0) config_.compute_threads = 1;
  if (config_.decode_threads == 0) {
    const std::size_t hw = ThreadPool::resolve_size(0);
    config_.decode_threads =
        hw > config_.compute_threads ? hw - config_.compute_threads : 1;
  }
  if (config_.blocks_per_band == 0) config_.blocks_per_band = 1;
  const std::size_t pool = config_.decode_threads + config_.compute_threads;

  std::size_t threshold = config_.split_blocks_threshold;
  if (threshold == 0) {
    // Auto: enough tasks for claiming to balance (>= 4 per worker) but
    // never finer than the configured band granularity.
    const std::size_t total = cm_->blocking.blocks.size();
    const std::size_t want_tasks = pool * 4;
    threshold = std::max(config_.blocks_per_band,
                         (total + want_tasks - 1) / std::max<std::size_t>(
                                                        1, want_tasks));
  }
  bands_ = split_row_bands(cm_->blocking,
                           make_row_bands(cm_->blocking,
                                          config_.blocks_per_band),
                           threshold, &split_bands_);
  task_ids_fwd_.resize(bands_.size());
  for (std::size_t i = 0; i < task_ids_fwd_.size(); ++i) {
    task_ids_fwd_[i] = static_cast<std::uint32_t>(i);
  }
  task_ids_rev_.assign(task_ids_fwd_.rbegin(), task_ids_fwd_.rend());

  band_runs_.reserve(bands_.size());
  for (const RowBand& band : bands_) {
    band_runs_.push_back({band.first_block, band.block_count});
  }

  // Small matrices run inline: one worker, no threads.
  const bool inline_run =
      bands_.size() <= 1 ||
      cm_->blocking.blocks.size() <= config_.fused_inline_blocks;
  // Throws for an engine the source cannot serve (UDP out of core).
  stream_ = std::make_unique<BlockStream>(*cm_, std::move(source),
                                          inline_run ? 1 : pool,
                                          bands_.size(), config_.engine);
  slots_.resize(stream_->workers());
  if (config_.cache_budget_bytes > 0) {
    cache_ = std::make_unique<BandCache>(config_.cache_budget_bytes);
  }
}

StreamingExecutor::~StreamingExecutor() = default;

void StreamingExecutor::run_task(void* self, std::uint32_t task,
                                 std::size_t worker) {
  static_cast<StreamingExecutor*>(self)->execute_task(worker, task);
  trace_ledger_counters();
}

// A task leases its band, or nothing when the band cache holds it, so
// warm runs re-stream only what the cache couldn't pin. contains() is
// non-perturbing, so the lookahead's probe doesn't spend scan protection;
// a band evicted between the probe and its lookup just reads
// synchronously.
std::span<const BlockRun> StreamingExecutor::task_ranges(void* self,
                                                         std::uint32_t task) {
  auto* exec = static_cast<StreamingExecutor*>(self);
  if (exec->cache_ && exec->cache_->contains(task)) return {};
  return {&exec->band_runs_[task], 1};
}

// One task: decode every block and accumulate it immediately on the same
// worker, in stream order. Serves/warms the band cache.
void StreamingExecutor::execute_task(std::size_t worker, std::uint32_t task) {
  const RowBand& band = bands_[task];
  WorkerSlot& slot = slots_[worker];
  RECODE_TRACE_SPAN_ARG("spmv", "task_fused", "task", task);
  Timer timer;

  if (cache_) {
    if (auto cached = cache_->lookup(task)) {
      // Warm task: accumulate straight from the pinned decoded copy; the
      // local shared_ptr keeps it alive past any concurrent eviction.
      ++slot.hit_bands;
      for (const CachedBlock& cb : cached->blocks) {
        timer.reset();
        accumulate_block_batch(cm_->blocking.blocks[cb.block], cm_->row_ptr,
                               cb.indices, cb.values, x_, y_, k_);
        slot.compute_busy += timer.seconds();
        ++slot.hit_blocks;
      }
      return;
    }
    ++slot.miss_bands;
  }

  // Cold task: decide up front (exact decoded size from the blocking
  // plan) whether it can ever fit the budget, so the copy into
  // cache-owned memory is only paid for admissible tasks.
  std::shared_ptr<CachedBand> pending;
  if (cache_) {
    std::size_t task_nnz = 0;
    for (std::size_t i = 0; i < band.block_count; ++i) {
      task_nnz += cm_->blocking.blocks[band.first_block + i].count;
    }
    const std::size_t decoded_bytes = decoded_band_bytes(task_nnz);
    if (cache_->admissible(decoded_bytes)) {
      pending = std::make_shared<CachedBand>();
      pending->blocks.reserve(band.block_count);
      pending->bytes = decoded_bytes;
    }
  }

  // Only this task inserts its band, so after the miss above
  // task_ranges() lists the whole band.
  stream_->decode_task(worker, task, [&](std::size_t b, const BlockStreams& s) {
    if (pending) {
      CachedBlock cb;
      cb.block = b;
      cb.indices.assign(s.indices.begin(), s.indices.end());
      cb.values.assign(s.values.begin(), s.values.end());
      pending->blocks.push_back(std::move(cb));
    }
    RECODE_TRACE_SPAN_ARG("spmv", "accumulate_block", "block", b);
    timer.reset();
    accumulate_block_batch(cm_->blocking.blocks[b], cm_->row_ptr, s.indices,
                           s.values, x_, y_, k_);
    slot.compute_busy += timer.seconds();
  });
  if (pending) cache_->insert(task, std::move(pending));
}

void StreamingExecutor::multiply(std::span<const double> x,
                                 std::span<double> y) {
  multiply_batch(x, y, 1);
}

void StreamingExecutor::multiply_batch(std::span<const double> x,
                                       std::span<double> y, int k) {
  RECODE_CHECK(k >= 1);
  RECODE_CHECK(x.size() == static_cast<std::size_t>(cm_->cols) *
                               static_cast<std::size_t>(k));
  RECODE_CHECK(y.size() == static_cast<std::size_t>(cm_->rows) *
                               static_cast<std::size_t>(k));
  std::fill(y.begin(), y.end(), 0.0);

  stats_ = OverlapStats{};
  stats_.bands = bands_.size();
  stats_.split_bands = split_bands_;
  if (bands_.empty()) return;

  std::fill(slots_.begin(), slots_.end(), WorkerSlot{});
  // Run boundary for the cache's scan protection: bands resident now
  // are exactly the ones this run is about to want — shield them from
  // eviction until this run has consumed them, whatever order the
  // workers claim them in.
  if (cache_) cache_->begin_run();
  // Serpentine scan: see the task_ids_ member comment.
  const bool reverse = (run_counter_++ & 1) == 1;
  x_ = x;
  y_ = y;
  k_ = k;
  stats_.workers = stream_->workers();
  stats_.inline_run = stats_.workers == 1;

  RECODE_TRACE_SPAN_ARG("spmv", "multiply_batch", "rhs", k);
  Timer wall;
  try {
    stream_->run(reverse ? task_ids_rev_ : task_ids_fwd_,
                 &StreamingExecutor::task_ranges, &StreamingExecutor::run_task,
                 this);
  } catch (...) {
    finish_run(wall.seconds());
    throw;
  }
  finish_run(wall.seconds());
}

// Aggregates the per-worker stats slots, the stream's decode tally and
// its runner's tail waits into last_stats(), publishes telemetry, and
// bumps the lifetime totals. Runs on the caller thread after every
// multiply, including failed ones (partial progress still counts).
void StreamingExecutor::finish_run(double wall_seconds) {
  StreamTelemetry& telem = StreamTelemetry::get();
  stats_.wall_seconds = wall_seconds;
  const StreamTally& decoded = stream_->last_run();
  stats_.decode_busy_seconds = decoded.decode_seconds;
  stats_.blocks_decoded = decoded.blocks;
  stats_.compressed_bytes = decoded.bytes;
  stats_.udp_cycles = decoded.udp_cycles;
  for (const WorkerSlot& slot : slots_) {
    stats_.compute_busy_seconds += slot.compute_busy;
    stats_.cache_hit_bands += slot.hit_bands;
    stats_.cache_miss_bands += slot.miss_bands;
    stats_.cache_hit_blocks += slot.hit_blocks;
  }
  const codec::BandRunStats& rs = stream_->run_stats();
  stats_.decode_blocked_seconds = rs.acquire_wait_seconds;

  telem.runs.add(1);
  if (stats_.inline_run) {
    telem.inline_runs.add(1);
  } else {
    telem.fused_runs.add(1);
  }
  telem.tasks_scheduled.add(stats_.bands);
  telem.tasks_split.add(stats_.split_bands);
  telem.blocks.add(stats_.blocks_decoded);
  telem.bytes.add(stats_.compressed_bytes);
  telem.udp_cycles.add(stats_.udp_cycles);
  telem.decode_busy_ns.add(to_ns(stats_.decode_busy_seconds));
  telem.decode_blocked_ns.add(to_ns(stats_.decode_blocked_seconds));
  telem.compute_busy_ns.add(to_ns(stats_.compute_busy_seconds));
  telem.compute_blocked_ns.add(to_ns(stats_.compute_blocked_seconds));
  telem.cache_hit_bands.add(stats_.cache_hit_bands);
  telem.cache_miss_bands.add(stats_.cache_miss_bands);
  telem.cache_hit_blocks.add(stats_.cache_hit_blocks);
  if (cache_) {
    const BandCache::Stats cs = cache_->stats();
    stats_.cache_bytes_pinned = cs.bytes_pinned;
    telem.cache_insert_bands.add(cs.inserts - cache_inserts_seen_);
    telem.cache_evict_bands.add(cs.evictions - cache_evictions_seen_);
    cache_inserts_seen_ = cs.inserts;
    cache_evictions_seen_ = cs.evictions;
    telem.cache_bytes_pinned.set(static_cast<double>(cs.bytes_pinned));
  }
}

void StreamingExecutor::set_engine(DecodeEngine engine) {
  if (engine == config_.engine) return;
  stream_->set_engine(engine);
  config_.engine = engine;
  clear_cache();
}

void StreamingExecutor::clear_cache() {
  if (cache_) cache_->clear();
}

BandCache::Stats StreamingExecutor::cache_stats() const {
  return cache_ ? cache_->stats() : BandCache::Stats{};
}

}  // namespace recode::spmv
