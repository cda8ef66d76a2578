#include "spmv/block_decoder.h"

#include <algorithm>

#include "common/error.h"
#include "common/timer.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// walk()'s lease granularity: enough blocks that an out-of-core source's
// prefetch covers real read latency, small enough that at most two
// chunks of compressed bytes are addressable at once.
constexpr std::size_t kChunkBlocks = 16;

std::size_t stream_workers(std::size_t workers, std::size_t max_tasks) {
  return std::min(ThreadPool::resolve_size(workers),
                  std::max<std::size_t>(1, max_tasks));
}

// The one place engine/source compatibility is decided: the UDP
// simulator walks cm.blocks directly, so it needs a resident source.
void check_engine(const codec::ContainerSource& source, DecodeEngine engine) {
  if (engine == DecodeEngine::kUdpSimulated && source.out_of_core()) {
    fail("the UDP simulator needs resident blocks; out-of-core sources "
         "support the software engine only");
  }
}

}  // namespace

const char* decode_engine_name(DecodeEngine engine) {
  switch (engine) {
    case DecodeEngine::kSoftware: return "software";
    case DecodeEngine::kUdpSimulated: return "udp-sim";
  }
  return "?";
}

void check_block_indices(std::span<const sparse::index_t> indices,
                         sparse::index_t cols) {
  for (const sparse::index_t c : indices) {
    RECODE_PARSE_CHECK(c >= 0 && c < cols,
                       "decoded column index out of range");
  }
}

StreamTally& StreamTally::operator+=(const StreamTally& o) {
  blocks += o.blocks;
  bytes += o.bytes;
  udp_cycles += o.udp_cycles;
  decode_seconds += o.decode_seconds;
  return *this;
}

BlockStream::BlockStream(const codec::CompressedMatrix& cm,
                         std::shared_ptr<codec::ContainerSource> source,
                         std::size_t workers, std::size_t max_tasks,
                         DecodeEngine engine)
    : cm_(&cm),
      source_(source ? std::move(source) : codec::make_resident_source(cm)),
      engine_(engine),
      runner_(stream_workers(workers, max_tasks)) {
  check_engine(*source_, engine);
  workers_.resize(stream_workers(workers, max_tasks));
  for (auto& w : workers_) w = std::make_unique<Worker>();
  const std::size_t nblocks = cm.blocking.blocks.size();
  for (std::size_t first = 0; first < nblocks; first += kChunkBlocks) {
    chunk_order_.push_back(static_cast<std::uint32_t>(chunks_.size()));
    chunks_.push_back({first, std::min(kChunkBlocks, nblocks - first)});
  }
}

BlockStream::~BlockStream() = default;

BlockStreams BlockStream::decode_block(Worker& w, std::size_t b) {
  RECODE_TRACE_SPAN_ARG("spmv", "decode_block", "block", b);
  const Timer timer;
  BlockStreams s;
  if (engine_ == DecodeEngine::kSoftware) {
    const codec::SourceBlockBytes bytes = source_->block(b);
    const codec::DecodedBlock decoded = codec::decompress_block_fast(
        *cm_, b, bytes.index_data, bytes.value_data, w.scratch, w.out);
    s.indices = decoded.indices;
    s.values = decoded.values;
    s.stream_bytes = bytes.index_data.size() + bytes.value_data.size() + 1;
  } else {
    if (!w.udp) w.udp = std::make_unique<udpprog::UdpPipelineDecoder>(*cm_);
    w.udp_result = w.udp->decode_block(b);
    s.indices = w.udp_result.indices;
    s.values = w.udp_result.values;
    s.stream_bytes = cm_->blocks[b].bytes() + 1;
    s.udp_cycles = w.udp_result.lane_cycles();
  }
  check_block_indices(s.indices, cm_->cols);
  w.tally += {1, s.stream_bytes, s.udp_cycles, timer.seconds()};
  return s;
}

void BlockStream::run_body(void* self, std::uint32_t task,
                           std::size_t worker) {
  auto* s = static_cast<BlockStream*>(self);
  s->body_(s->ctx_, task, worker);
}

// Stages a task's lease ranges. Never blocks: a full window budget or
// queue drops the hint, and acquire() then reads synchronously.
void BlockStream::hint(void* self, std::uint32_t task) {
  auto* s = static_cast<BlockStream*>(self);
  for (const BlockRun& r : s->ranges_(s->ctx_, task)) {
    s->source_->prefetch(r.first, r.count);
  }
}

void BlockStream::run(const std::vector<std::uint32_t>& order, Ranges ranges,
                      Body body, void* ctx, bool serial) {
  ranges_ = ranges;
  body_ = body;
  ctx_ = ctx;
  for (auto& w : workers_) w->tally = StreamTally{};
  const bool hints = source_->out_of_core();
  try {
    if (hints) {
      // Each worker stages at most two ranges (the one in hand and its
      // lookahead); provisioning them keeps a warm run allocation-free.
      std::size_t max_extent = 0;
      for (const std::uint32_t t : order) {
        for (const BlockRun& r : ranges(ctx, t)) {
          max_extent = std::max(
              max_extent, source_->range_extent_bytes(r.first, r.count));
        }
      }
      source_->reserve(2 * (serial ? 1 : workers_.size()), max_extent);
    }
    runner_.run(order, &BlockStream::run_body, this,
                hints ? &BlockStream::hint : nullptr, serial);
  } catch (...) {
    finish_run();
    throw;
  }
  finish_run();
}

// Runs on the calling thread after every run, failed ones included.
void BlockStream::finish_run() {
  // The run boundary reclaims prefetched ranges no task leased.
  source_->end_run();
  run_stats_ = runner_.last_stats();
  last_ = StreamTally{};
  for (const auto& w : workers_) last_ += w->tally;
  totals_ += last_;
  // Grow every worker's arenas to the per-slot high-water: a block needs
  // the same capacity whichever worker decodes it, so after one full pass
  // no claim order can make a later run regrow an arena.
  for (std::size_t slot = 0; slot < codec::DecodeArena::kSlotCount; ++slot) {
    std::size_t scratch_max = 0;
    std::size_t out_max = 0;
    for (const auto& w : workers_) {
      scratch_max = std::max(scratch_max, w->scratch.slot_capacity(slot));
      out_max = std::max(out_max, w->out.slot_capacity(slot));
    }
    for (const auto& w : workers_) {
      if (scratch_max > 0) w->scratch.slab(slot, scratch_max);
      if (out_max > 0) w->out.slab(slot, out_max);
    }
  }
}

void BlockStream::set_engine(DecodeEngine engine) {
  check_engine(*source_, engine);
  engine_ = engine;
}

}  // namespace recode::spmv
