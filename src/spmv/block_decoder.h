// One path from a block range to its decoded streams. Every decoding
// consumer (RecodedSpmv, StreamingExecutor, SpGEMM, SpMSpV) reaches blocks
// through a BlockStream, which owns the codec::ContainerSource (null = a
// resident source over cm.blocks), one decode state per worker and a
// persistent codec::BandRunner, and is the only driver of the source's
// lease protocol (codec/container_source.h).
//
// A consumer hands run() its task order, a `ranges` function listing the
// block ranges each task leases (a band, the runs of frontier-needed
// blocks, a chunk) and a body. The lookahead hint prefetches exactly
// those ranges and decode_task() leases exactly those ranges, so a
// prefetched range is always leased with the same (first, count). Every
// run, with one worker or many, goes through the BandRunner and its one
// lookahead rule (codec/band_runner.h): the inline walk hints order[0]
// before the run and order[i + 1] before running order[i]; a threaded
// worker hints the task it claimed next before running the one in hand.
// The source never lets a synchronous read wait on window budget that
// only unleased prefetches hold, so no hint timing can stall a run.
// Resident sources get no hints.
//
// Each block is one decode call: read its bytes from the source, dispatch
// on the engine, range-check the decoded indices. The spans alias the
// worker's arenas until its next decode; consumers that keep decoded data
// (the band cache, SpGEMM's band-flat copy) copy it out.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codec/arena.h"
#include "codec/band_runner.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "udpprog/block_decoder.h"

namespace recode::spmv {

enum class DecodeEngine {
  kSoftware,      // software codecs (the functional reference)
  kUdpSimulated,  // every block through the UDP lane simulator
};

const char* decode_engine_name(DecodeEngine engine);

// Throws recode::Error if any decoded column index falls outside
// [0, cols). A corrupt-but-well-framed index stream must surface as a
// recoverable error, never as an out-of-bounds gather in a kernel.
void check_block_indices(std::span<const sparse::index_t> indices,
                         sparse::index_t cols);

// One decoded block. indices/values alias the decoding worker's memory.
struct BlockStreams {
  std::span<const sparse::index_t> indices;
  std::span<const double> values;
  // Compressed bytes the block streamed: both payloads plus the codec-id
  // dispatch byte (container v2), matching CompressedMatrix::stream_bytes.
  std::size_t stream_bytes = 0;
  std::uint64_t udp_cycles = 0;  // lane cycles, kUdpSimulated only
};

// A contiguous block range leased as one unit.
struct BlockRun {
  std::size_t first = 0;
  std::size_t count = 0;
};

// Decode totals of one run (failed ones included), or of a lifetime.
struct StreamTally {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;  // BlockStreams::stream_bytes, summed
  std::uint64_t udp_cycles = 0;
  double decode_seconds = 0.0;  // summed over workers

  StreamTally& operator+=(const StreamTally& o);
};

class BlockStream {
 public:
  // The lease ranges of `task`, in stream order, in consumer-owned memory
  // that stays valid for the run. Called concurrently by the workers.
  using Ranges = std::span<const BlockRun> (*)(void* ctx, std::uint32_t task);
  using Body = codec::BandRunner::Body;

  // A null `source` serves cm.blocks. `workers` workers
  // (ThreadPool::resolve_size), never more than max(1, max_tasks), the most
  // tasks a run may hand in. Throws recode::Error for an engine the
  // source cannot serve (UDP on an out-of-core source).
  BlockStream(const codec::CompressedMatrix& cm,
              std::shared_ptr<codec::ContainerSource> source,
              std::size_t workers = 1, std::size_t max_tasks = 1,
              DecodeEngine engine = DecodeEngine::kSoftware);
  ~BlockStream();

  BlockStream(const BlockStream&) = delete;
  BlockStream& operator=(const BlockStream&) = delete;

  // Runs body(ctx, task, worker) once for every task of `order`, after
  // reserving source capacity for the run's ranges. Ends the source's run
  // and sums the workers' tallies on every path, then grows every
  // worker's arenas to their common high-water mark. `serial` runs the
  // order on the calling thread as worker 0. Rethrows the first error.
  void run(const std::vector<std::uint32_t>& order, Ranges ranges, Body body,
           void* ctx, bool serial = false);

  // Leases [first, first + count), calls fn(b, BlockStreams) for each
  // block in stream order, and releases the lease, also on a throw.
  template <typename Fn>
  void decode(std::size_t worker, std::size_t first, std::size_t count,
              Fn&& fn) {
    Worker& w = *workers_[worker];
    source_->acquire(first, count);
    try {
      for (std::size_t b = first; b < first + count; ++b) {
        fn(b, decode_block(w, b));
      }
    } catch (...) {
      source_->release(first, count);
      throw;
    }
    source_->release(first, count);
  }

  // decode() over every range `ranges` lists for `task`.
  template <typename Fn>
  void decode_task(std::size_t worker, std::uint32_t task, Fn&& fn) {
    for (const BlockRun& r : ranges_(ctx_, task)) {
      decode(worker, r.first, r.count, fn);
    }
  }

  // A one-worker run over every block in 16-block chunks, in stream
  // order, on the calling thread.
  template <typename Fn>
  void walk(Fn&& fn) {
    struct Walk {
      BlockStream* stream;
      Fn* fn;
    } state{this, &fn};
    run(
        chunk_order_,
        [](void* ctx, std::uint32_t chunk) {
          return std::span<const BlockRun>(
              &static_cast<Walk*>(ctx)->stream->chunks_[chunk], 1);
        },
        [](void* ctx, std::uint32_t chunk, std::size_t) {
          auto& w = *static_cast<Walk*>(ctx);
          w.stream->decode_task(0, chunk, *w.fn);
        },
        &state, /*serial=*/true);
  }

  // Same check as the constructor; throws with the engine unchanged.
  void set_engine(DecodeEngine engine);

  std::size_t workers() const { return workers_.size(); }
  const StreamTally& last_run() const { return last_; }
  const StreamTally& totals() const { return totals_; }
  // Runner stats of the last run (workers == 1 on the inline path).
  const codec::BandRunStats& run_stats() const { return run_stats_; }

 private:
  // Per-worker decode state: the arenas the software engine writes into
  // (the zero-steady-state-allocation reservoir), the lazily built UDP
  // lane simulator, and this run's tally (written only by the worker).
  struct Worker {
    codec::DecodeArena scratch;
    codec::DecodeArena out;
    std::unique_ptr<udpprog::UdpPipelineDecoder> udp;
    udpprog::BlockResult udp_result;  // backs the spans of a UDP decode
    StreamTally tally;
  };

  BlockStreams decode_block(Worker& w, std::size_t b);
  static void run_body(void* self, std::uint32_t task, std::size_t worker);
  static void hint(void* self, std::uint32_t task);
  void finish_run();

  const codec::CompressedMatrix* cm_;
  std::shared_ptr<codec::ContainerSource> source_;
  DecodeEngine engine_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // walk(): fixed-size chunks and their order.
  std::vector<BlockRun> chunks_;
  std::vector<std::uint32_t> chunk_order_;
  // The run in flight.
  Ranges ranges_ = nullptr;
  Body body_ = nullptr;
  void* ctx_ = nullptr;
  StreamTally last_;
  StreamTally totals_;
  codec::BandRunStats run_stats_;
  // Declared last: its threads reach the members above, so it is
  // destroyed (and its threads joined) first.
  codec::BandRunner runner_;
};

}  // namespace recode::spmv
