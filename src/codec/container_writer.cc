#include "codec/container_writer.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <numeric>
#include <vector>

#include "codec/arena.h"
#include "codec/band_runner.h"
#include "codec/container.h"
#include "codec/registry.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "common/varint.h"

namespace recode::codec {

namespace {

void put_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
}

template <typename T>
void put_pod(std::ostream& out, T v) {
  put_bytes(out, &v, sizeof(v));
}

// Through a stack buffer: no heap traffic per varint.
void put_varint(std::ostream& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  put_bytes(out, buf, varint_store(buf, v));
}

void put_blob(std::ostream& out, const Bytes& data) {
  put_varint(out, data.size());
  put_bytes(out, data.data(), data.size());
}

std::uint64_t tell_out(std::ostream& out) {
  const std::ostream::pos_type p = out.tellp();
  if (p == std::ostream::pos_type(-1)) {
    fail("rcm: index requires a seekable stream");
  }
  return static_cast<std::uint64_t>(p);
}

// Per-worker scratch: the raw streams of the block in hand, the
// worker's EncodeArena, and its own pass-1 histograms (summed after the
// run; integer sums do not depend on which worker saw which block).
// Cache-line aligned so workers never share a line.
struct alignas(64) WorkerScratch {
  std::vector<sparse::index_t> indices;
  std::vector<double> values;
  EncodeArena arena;
  std::array<std::uint64_t, 256> index_hist{};
  std::array<std::uint64_t, 256> value_hist{};
};

// One write's shared state, handed to the BandRunner bodies as ctx.
// Pass-1 tasks are block ids; pass-2 task t is block first_block + t and
// owns slots[t], whose buffers keep their capacity from window to window.
struct WriteJob {
  const CompressedMatrix* cm = nullptr;
  const BlockFiller* fill = nullptr;
  BlockCodec codec;
  std::vector<WorkerScratch> scratch;  // one per worker
  std::vector<CompressedBlock> slots;  // pass 2: the window's records
  std::size_t first_block = 0;

  // Fills block b into the worker's scratch.
  void fill_block(std::size_t b, WorkerScratch& ws) const {
    const auto& range = cm->blocking.blocks[b];
    ws.indices.resize(range.count);
    ws.values.resize(range.count);
    (*fill)(b, static_cast<std::uint64_t>(range.first_nnz),
            std::span<sparse::index_t>(ws.indices),
            std::span<double>(ws.values));
  }
};

// Blocks per pass-2 window, per worker: enough tasks that stealing evens
// out per-block cost, few enough that the window's records stay small.
constexpr std::size_t kWindowBlocksPerWorker = 16;

}  // namespace

StreamWriteResult write_compressed_stream(
    const std::string& path, sparse::index_t rows, sparse::index_t cols,
    std::span<const sparse::offset_t> row_ptr, const PipelineConfig& cfg,
    const BlockFiller& fill, std::size_t threads) {
  if (cfg.selection != CodecSelection::kSingle) {
    fail("rcm: streamed write supports single-codec selection only");
  }
  RECODE_CHECK(cfg.nnz_per_block > 0);
  RECODE_CHECK(cfg.huffman_sample_fraction > 0.0 &&
               cfg.huffman_sample_fraction <= 1.0);
  RECODE_CHECK(row_ptr.size() == static_cast<std::size_t>(rows) + 1);
  RECODE_CHECK(row_ptr.empty() || row_ptr.front() == 0);

  // Header-side view: everything write_container_header needs, plus the
  // blocking plan that defines each block's nnz range.
  CompressedMatrix cm;
  cm.rows = rows;
  cm.cols = cols;
  cm.config = cfg;
  cm.row_ptr.assign(row_ptr.begin(), row_ptr.end());
  cm.blocking = sparse::make_blocking(row_ptr, cfg.nnz_per_block);
  const std::size_t nblocks = cm.blocking.block_count();

  WriteJob job;
  job.cm = &cm;
  job.fill = &fill;
  // Never more workers than blocks.
  const std::size_t workers = std::min(ThreadPool::resolve_size(threads),
                                       std::max<std::size_t>(1, nblocks));
  BandRunner runner(workers, nblocks);
  job.scratch.resize(workers);

  // Pass 1 (only when training Huffman tables): the same block-sampling
  // Prng walk compress() performs, histogramming the post-Snappy mid
  // streams of the sampled blocks. The walk is serial and advances once
  // per block, so the sampled set matches compress() bit-for-bit;
  // unsampled blocks are skipped entirely.
  if (cfg.huffman) {
    std::vector<std::uint32_t> sampled;
    Prng sampler(cfg.sample_seed);
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (sampler.next_double() < cfg.huffman_sample_fraction) {
        sampled.push_back(static_cast<std::uint32_t>(b));
      }
    }
    job.codec = BlockCodec{cfg.index_transform, cfg.value_transform,
                           cfg.snappy, false};
    runner.run(sampled, [](void* ctx, std::uint32_t b, std::size_t worker) {
      auto& j = *static_cast<WriteJob*>(ctx);
      WorkerScratch& ws = j.scratch[worker];
      j.fill_block(b, ws);
      const MidStreams mid = encode_mid(ws.indices, ws.values, j.codec,
                                        ws.arena);
      for (const std::uint8_t byte : mid.index) ++ws.index_hist[byte];
      for (const std::uint8_t byte : mid.value) ++ws.value_hist[byte];
    }, &job);
    std::array<std::uint64_t, 256> index_hist{};
    std::array<std::uint64_t, 256> value_hist{};
    for (const WorkerScratch& ws : job.scratch) {
      for (std::size_t s = 0; s < 256; ++s) {
        index_hist[s] += ws.index_hist[s];
        value_hist[s] += ws.value_hist[s];
      }
    }
    cm.index_table =
        std::make_shared<const HuffmanTable>(HuffmanTable::build(index_hist));
    cm.value_table =
        std::make_shared<const HuffmanTable>(HuffmanTable::build(value_hist));
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) fail("rcm: cannot open for write: " + path);
  write_container_header(out, cm);
  put_varint(out, nblocks);

  // Pass 2: encode a window of blocks on the team into per-slot records,
  // then append them in block order on this thread, tracking each
  // record's offset for the index. Memory stays O(row_ptr + window).
  const CodecId id = codec_id_for(cfg);
  job.codec = codec_from_id(id);
  const std::size_t window = kWindowBlocksPerWorker * workers;
  job.slots.resize(std::min(window, nblocks));
  std::vector<std::uint32_t> order;
  StreamWriteResult result;
  result.block_count = nblocks;
  std::vector<std::uint64_t> offsets;
  offsets.reserve(nblocks + 1);
  for (std::size_t first = 0; first < nblocks; first += window) {
    const std::size_t count = std::min(window, nblocks - first);
    order.resize(count);
    std::iota(order.begin(), order.end(), 0u);
    job.first_block = first;
    runner.run(order, [](void* ctx, std::uint32_t t, std::size_t worker) {
      auto& j = *static_cast<WriteJob*>(ctx);
      WorkerScratch& ws = j.scratch[worker];
      j.fill_block(j.first_block + t, ws);
      encode_block(ws.indices, ws.values, j.codec, j.cm->index_table.get(),
                   j.cm->value_table.get(), ws.arena, j.slots[t]);
    }, &job);
    for (std::size_t t = 0; t < count; ++t) {
      const CompressedBlock& rec = job.slots[t];
      offsets.push_back(tell_out(out));
      put_pod<std::uint8_t>(out, id);
      put_blob(out, rec.index_data);
      put_blob(out, rec.value_data);
      result.payload_bytes += rec.bytes();
    }
    if (!out) fail("rcm: write failed: " + path);
  }

  const std::uint64_t index_offset = tell_out(out);
  offsets.push_back(index_offset);
  for (const std::uint64_t off : offsets) put_pod<std::uint64_t>(out, off);
  for (std::size_t b = 0; b < nblocks; ++b) put_pod<std::uint8_t>(out, id);
  put_pod<std::uint64_t>(out, index_offset);
  put_bytes(out, kIndexFooterMagic, sizeof(kIndexFooterMagic));
  if (!out) fail("rcm: write failed: " + path);
  result.file_bytes = tell_out(out);
  return result;
}

}  // namespace recode::codec
