#include "codec/container_writer.h"

#include <algorithm>
#include <array>
#include <limits>
#include <ostream>
#include <span>
#include <vector>

#include "codec/arena.h"
#include "codec/band_runner.h"
#include "codec/container.h"
#include "codec/file_sink.h"
#include "codec/registry.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "common/varint.h"

namespace recode::codec {

namespace {

// Each put_* returns the bytes it wrote, so the writer counts record
// offsets instead of reading them back with tellp().
std::size_t put_bytes(std::ostream& out, const void* data, std::size_t size) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  return size;
}

template <typename T>
std::size_t put_pod(std::ostream& out, T v) {
  return put_bytes(out, &v, sizeof(v));
}

// Through a stack buffer: no heap traffic per varint.
std::size_t put_varint(std::ostream& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  return put_bytes(out, buf, varint_store(buf, v));
}

std::size_t put_blob(std::ostream& out, const Bytes& data) {
  return put_varint(out, data.size()) +
         put_bytes(out, data.data(), data.size());
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

// The task id of a pass-2 run's one file-I/O task: the append of the
// previous window's records.
constexpr std::uint32_t kIoTask = std::numeric_limits<std::uint32_t>::max();

// One write's shared state, handed to the BandRunner bodies as ctx.
// Pass-1 tasks are block ids; pass-2 task t is block first_block + t and
// owns (*encoding)[t]. The two slot sets alternate from window to window
// and keep their buffers' capacity.
struct WriteJob {
  const CompressedMatrix* cm = nullptr;
  const BlockFiller* fill = nullptr;
  BlockCodec codec;
  CodecId id{};
  std::vector<WorkerScratch> scratch;  // one per worker
  std::array<std::vector<CompressedBlock>, 2> slots;
  std::vector<CompressedBlock>* encoding = nullptr;  // this window's records
  std::span<const CompressedBlock> pending;  // the previous window's
  std::size_t first_block = 0;
  // The file, touched by one task or the caller at a time: the run
  // boundary orders every access.
  std::ostream* out = nullptr;
  std::uint64_t pos = 0;  // counted offset of the next byte
  std::vector<std::uint64_t> offsets;
  std::uint64_t payload_bytes = 0;

  // Fills block b into the worker's scratch.
  void fill_block(std::size_t b, WorkerScratch& ws) const {
    const auto& range = cm->blocking.blocks[b];
    ws.indices.resize(range.count);
    ws.values.resize(range.count);
    (*fill)(b, static_cast<std::uint64_t>(range.first_nnz),
            std::span<sparse::index_t>(ws.indices),
            std::span<double>(ws.values));
  }

  // Appends records in block order, each at its counted offset.
  void append(std::span<const CompressedBlock> records) {
    for (const CompressedBlock& rec : records) {
      offsets.push_back(pos);
      pos += put_pod<std::uint8_t>(*out, id);
      pos += put_blob(*out, rec.index_data);
      pos += put_blob(*out, rec.value_data);
      payload_bytes += rec.bytes();
    }
  }
};

// Blocks per pass-2 window, per worker: enough tasks that claiming evens
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

  // Opening zeroes the old file's magic before any block is filled, so a
  // write that fails anywhere below leaves a file readers reject.
  FileSink sink(path);
  std::ostream out(&sink);
  out.exceptions(std::ios::badbit);  // the sink's errors name the path

  WriteJob job;
  job.out = &out;
  job.cm = &cm;
  job.fill = &fill;
  // Never more workers than blocks.
  const std::size_t workers = std::min(ThreadPool::resolve_size(threads),
                                       std::max<std::size_t>(1, nblocks));
  BandRunner runner(workers);
  job.scratch.resize(workers);

  // Pass 1 (only when training Huffman tables): the same block-sampling
  // Prng walk compress() performs, histogramming the post-Snappy mid
  // streams of the sampled blocks. The walk is serial and advances once
  // per block, so the sampled set matches compress() bit-for-bit;
  // unsampled blocks are skipped entirely.
  if (cfg.huffman) {
    std::vector<std::uint32_t> order;
    Prng sampler(cfg.sample_seed);
    for (std::size_t b = 0; b < nblocks; ++b) {
      if (sampler.next_double() < cfg.huffman_sample_fraction) {
        order.push_back(static_cast<std::uint32_t>(b));
      }
    }
    job.codec = BlockCodec{cfg.index_transform, cfg.value_transform,
                           cfg.snappy, false};
    runner.run(order, [](void* ctx, std::uint32_t b, std::size_t worker) {
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

  write_container_header(out, cm);
  put_varint(out, nblocks);
  job.pos = static_cast<std::uint64_t>(out.tellp());

  // Pass 2: encode a window of blocks on the team into one slot set while
  // the run's I/O task appends the previous window's records from the
  // other, in block order, counting each record's offset for the index.
  // The I/O task is first in the order, so the first claim takes it. The
  // last window appends after the loop. Memory stays O(row_ptr + two
  // windows).
  job.id = codec_id_for(cfg);
  job.codec = codec_from_id(job.id);
  const std::size_t window = kWindowBlocksPerWorker * workers;
  for (auto& slots : job.slots) slots.resize(std::min(window, nblocks));
  job.offsets.reserve(nblocks + 1);
  std::vector<std::uint32_t> order;
  for (std::size_t first = 0, w = 0; first < nblocks; first += window, ++w) {
    const std::size_t count = std::min(window, nblocks - first);
    order.clear();
    if (!job.pending.empty()) order.push_back(kIoTask);
    for (std::uint32_t t = 0; t < count; ++t) order.push_back(t);
    job.first_block = first;
    job.encoding = &job.slots[w % 2];
    runner.run(order, [](void* ctx, std::uint32_t t, std::size_t worker) {
      auto& j = *static_cast<WriteJob*>(ctx);
      if (t == kIoTask) {
        j.append(j.pending);
        return;
      }
      WorkerScratch& ws = j.scratch[worker];
      j.fill_block(j.first_block + t, ws);
      encode_block(ws.indices, ws.values, j.codec, j.cm->index_table.get(),
                   j.cm->value_table.get(), ws.arena, (*j.encoding)[t]);
    }, &job);
    job.pending = std::span<const CompressedBlock>(job.encoding->data(), count);
  }
  job.append(job.pending);

  const std::uint64_t index_offset = job.pos;
  job.offsets.push_back(index_offset);
  std::uint64_t end = index_offset;
  for (const std::uint64_t off : job.offsets) end += put_pod(out, off);
  for (std::size_t b = 0; b < nblocks; ++b) {
    end += put_pod<std::uint8_t>(out, job.id);
  }
  end += put_pod<std::uint64_t>(out, index_offset);
  end += put_bytes(out, kIndexFooterMagic, sizeof(kIndexFooterMagic));
  // Checks the counted end against the bytes put, then the file's size.
  sink.finish(end);

  StreamWriteResult result;
  result.block_count = nblocks;
  result.payload_bytes = job.payload_bytes;
  result.file_bytes = end;
  return result;
}

}  // namespace recode::codec
