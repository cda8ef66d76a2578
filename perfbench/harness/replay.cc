#include "harness/replay.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "codec/arena.h"
#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/fast_decode.h"
#include "codec/huffman.h"
#include "codec/registry.h"
#include "codec/snappy.h"
#include "common/thread_pool.h"
#include "spmv/kernels.h"
#include "spmv/recoded.h"

namespace perfbench {
namespace {

namespace codec = recode::codec;
namespace sparse = recode::sparse;
namespace spmv = recode::spmv;

enum Stage { kHuffman, kSnappy, kTransform, kStages };

constexpr const char* kStageSpan[kStages] = {
    "codec.huffman_decode", "codec.snappy_decode", "codec.transform_decode"};

// Per-stage totals of one replay pass.
struct StageTotals {
  double seconds[kStages] = {};
  std::size_t bytes_out[kStages] = {};
};

std::uint8_t* room(std::vector<std::uint8_t>& buf, std::size_t n) {
  if (buf.size() < n + codec::kArenaSlop) buf.resize(n + codec::kArenaSlop);
  return buf.data();
}

// One pass over every block's two streams, each run through its stage
// chain the way the decoder runs it (Huffman -> Snappy -> inverse
// transform, each stage reading the previous one's output while it is
// still in cache), with a span around every stage call.
StageTotals replay_codec_pass(const codec::CompressedMatrix& cm, SpanLog& log,
                              std::vector<std::uint8_t> (&bufs)[kStages]) {
  StageTotals t;
  const auto stage = [&](Stage s, std::size_t out_bytes, auto&& call) {
    std::uint8_t* dst = room(bufs[s], out_bytes);
    t.seconds[s] += timed_span(log, kStageSpan[s], SpanLog::kRoot,
                               [&] { call(dst); });
    t.bytes_out[s] += out_bytes;
    return codec::ByteSpan(dst, out_bytes);
  };
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    const codec::BlockCodec bc = codec::block_codec_checked(cm, b);
    const std::size_t count = cm.blocking.blocks[b].count;
    for (int stream = 0; stream < 2; ++stream) {
      codec::ByteSpan cur = stream == 0 ? codec::ByteSpan(cm.blocks[b].index_data)
                                        : codec::ByteSpan(cm.blocks[b].value_data);
      const codec::HuffmanTable* table =
          stream == 0 ? cm.index_table.get() : cm.value_table.get();
      const codec::Transform transform =
          stream == 0 ? bc.index_transform : bc.value_transform;
      const std::size_t raw_bytes =
          count * (stream == 0 ? sizeof(sparse::index_t) : sizeof(double));
      if (bc.huffman) {
        cur = stage(kHuffman, codec::HuffmanCodec::decoded_length(cur),
                    [&](std::uint8_t* dst) {
                      codec::fast::huffman_decode(*table, cur, dst);
                    });
      }
      if (bc.snappy) {
        cur = stage(kSnappy, codec::SnappyCodec::decoded_length(cur),
                    [&](std::uint8_t* dst) { codec::fast::snappy_decode(cur, dst); });
      }
      switch (transform) {
        case codec::Transform::kNone:
          break;
        case codec::Transform::kDelta32:
          stage(kTransform, raw_bytes,
                [&](std::uint8_t* dst) { codec::fast::delta_decode(cur, dst); });
          break;
        case codec::Transform::kVarintDelta:
          stage(kTransform, raw_bytes, [&](std::uint8_t* dst) {
            codec::fast::varint_delta_decode(cur, dst, raw_bytes);
          });
          break;
        case codec::Transform::kByteTranspose:
          stage(kTransform, raw_bytes,
                [&](std::uint8_t* dst) { codec::fast::byte_untranspose(cur, dst); });
          break;
      }
    }
  }
  return t;
}

template <typename Fn>
double median_ms(int passes, SpanLog& log, const char* name, Fn&& fn) {
  std::vector<double> ms;
  for (int p = 0; p < passes; ++p) {
    ms.push_back(timed_span(log, name, SpanLog::kRoot, fn) * 1e3);
  }
  return median(ms);
}

}  // namespace

void replay_layers(const codec::CompressedMatrix& cm, const sparse::Csr& csr,
                   const ReplayConfig& cfg, SpanLog& log, Metrics& m) {
  const int k = cfg.k;
  const int passes = cfg.passes;
  const auto rows = static_cast<std::size_t>(cm.rows);
  const auto cols = static_cast<std::size_t>(cm.cols);
  const std::size_t nnz = cm.nnz();
  const std::size_t nb = cm.blocks.size();

  // --- codec stages: median pass time per stage, output bytes per second.
  double stage_s[kStages] = {};
  {
    std::vector<std::uint8_t> bufs[kStages];
    replay_codec_pass(cm, log, bufs);  // sizes the buffers
    std::vector<double> per_pass[kStages];
    StageTotals t;
    for (int p = 0; p < passes; ++p) {
      t = replay_codec_pass(cm, log, bufs);
      for (int s = 0; s < kStages; ++s) per_pass[s].push_back(t.seconds[s]);
    }
    constexpr const char* kMetric[kStages] = {
        "codec.huffman_gbps", "codec.snappy_gbps", "codec.transform_gbps"};
    for (int s = 0; s < kStages; ++s) {
      stage_s[s] = median(per_pass[s]);
      m.set(kMetric[s], stage_s[s] > 0
                            ? static_cast<double>(t.bytes_out[s]) / stage_s[s] / 1e9
                            : 0.0);
    }
  }

  // --- whole-block decode (stage chain + checks + dispatch), second pass
  // after the arenas warmed.
  {
    codec::DecodeArena scratch, out;
    std::vector<double> us;
    for (int p = 0; p < 2; ++p) {
      us.clear();
      for (std::size_t b = 0; b < nb; ++b) {
        us.push_back(timed_span(log, "codec.decompress_block", SpanLog::kRoot, [&] {
                       codec::decompress_block_fast(cm, b, scratch, out);
                     }) * 1e6);
      }
    }
    m.set("codec.block_decode_us_p50", median(us));
  }

  // --- accumulate kernel over pre-decoded blocks.
  std::vector<std::vector<sparse::index_t>> idx(nb);
  std::vector<std::vector<double>> val(nb);
  for (std::size_t b = 0; b < nb; ++b) codec::decompress_block(cm, b, idx[b], val[b]);
  const std::vector<double> x = random_vector(cols * static_cast<std::size_t>(k), 99);
  std::vector<double> y(rows * static_cast<std::size_t>(k));
  std::vector<double> kernel_s;
  for (int p = 0; p < passes; ++p) {
    std::fill(y.begin(), y.end(), 0.0);
    double total = 0.0;
    for (std::size_t b = 0; b < nb; ++b) {
      total += timed_span(log, "spmv.accumulate", SpanLog::kRoot, [&] {
        if (k == 1) {
          spmv::accumulate_block(cm.blocking.blocks[b], cm.row_ptr, idx[b],
                                 val[b], x, y);
        } else {
          spmv::accumulate_block_batch(cm.blocking.blocks[b], cm.row_ptr,
                                       idx[b], val[b], x, y, k);
        }
      });
    }
    kernel_s.push_back(total);
  }
  idx.clear();
  val.clear();
  const double kernel_sec = median(kernel_s);
  // Computed, not measured: 12 B/nnz matrix stream, one 8k-byte x row
  // gathered per nnz, each 8k-byte y row read and written once.
  const double kernel_bytes =
      static_cast<double>(nnz) * (12.0 + 8.0 * k) + static_cast<double>(rows) * 16.0 * k;
  m.set("spmv.kernel_gbps", kernel_sec > 0 ? kernel_bytes / kernel_sec / 1e9 : 0);

  // --- one serial RecodedSpmv apply (decode + kernel on one thread).
  {
    spmv::RecodedSpmv serial(cm);
    serial.multiply_batch(x, y, k);  // warm the arenas
    const double serial_ms = median_ms(passes, log, "spmv.serial_apply",
                                       [&] { serial.multiply_batch(x, y, k); });
    m.set("spmv.serial_ms", serial_ms);
    const double codec_s = stage_s[kHuffman] + stage_s[kSnappy] + stage_s[kTransform];
    m.set("layers.decode_frac", codec_s * 1e3 / serial_ms);
    m.set("layers.residual_frac", 1.0 - (codec_s + kernel_sec) * 1e3 / serial_ms);
  }

  // --- plain-CSR baselines on the same matrix: 1 thread, then nproc.
  m.set("spmv.csr_ms", median_ms(passes + 2, log, "spmv.csr", [&] {
          if (k == 1) {
            spmv::spmv_csr(csr, x, y);
          } else {
            spmv::spmm_csr(csr, x, y, k);
          }
        }));
  {
    // spmv_csr_parallel is single-vector: k right-hand sides run as k
    // parallel SpMVs over de-interleaved columns.
    std::vector<std::vector<double>> xs(static_cast<std::size_t>(k),
                                        std::vector<double>(cols));
    std::vector<double> yc(rows);
    for (std::size_t c = 0; c < cols; ++c) {
      for (int j = 0; j < k; ++j) xs[j][c] = x[c * k + j];
    }
    recode::ThreadPool pool(host_nproc());
    m.set("spmv.csr_par_ms", median_ms(passes + 2, log, "spmv.csr_parallel", [&] {
            for (int j = 0; j < k; ++j) spmv::spmv_csr_parallel(csr, xs[j], yc, pool);
          }));
  }

  // --- storage: write the container, then stream every block through
  // the lease protocol (prefetch next chunk, acquire, touch, release).
  m.set("codec.write_s", timed_span(log, "codec.write_container", SpanLog::kRoot, [&] {
          codec::write_compressed_file(cfg.container_path, cm, true);
        }));
  {
    codec::OpenedContainer opened =
        codec::open_container(cfg.container_path, codec::SourceKind::kStreamed);
    codec::ContainerSource& src = *opened.source;
    constexpr std::size_t kChunk = 16;
    timed_span(log, "source.stream_pass", SpanLog::kRoot, [&] {
      src.prefetch(0, std::min(kChunk, nb));
      for (std::size_t first = 0; first < nb; first += kChunk) {
        const std::size_t count = std::min(kChunk, nb - first);
        if (first + count < nb) {
          src.prefetch(first + count, std::min(kChunk, nb - first - count));
        }
        src.acquire(first, count);
        for (std::size_t b = first; b < first + count; ++b) src.block(b);
        src.release(first, count);
      }
      src.end_run();
    });
    const codec::SourceStats st = src.stats();
    m.set("source.read_gbps",
          st.read_ns ? static_cast<double>(st.bytes_read) / st.read_ns : 0.0);
    m.set("source.peak_window_mb", static_cast<double>(st.peak_window_bytes) / 1e6);
    m.set("source.sync_reads", static_cast<double>(st.sync_reads));
    m.set("source.prefetch_hits", static_cast<double>(st.prefetch_hits));
  }
  std::remove(cfg.container_path.c_str());
}

}  // namespace perfbench
