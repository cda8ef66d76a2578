#include "spmv/spgemm.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "sparse/stats.h"
#include "codec/band_runner.h"
#include "spmv/block_decoder.h"
#include "spmv/streaming_executor.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// Kernel-hop ledger feed, one call per band (never per row or product).
// Byte model: the kernel consumes A's decoded stream (12 B/nnz) and
// writes C's stream (12 B/nnz); the B-row gathers are the vector-side
// traffic (12 B per expanded product), the SpGEMM analog of the SpMV x
// gather. Conservation holds because B is decoded outside the run window
// (see spgemm.h): in-window transform.out is exactly A's decoded bytes.
inline void ledger_kernel_band(std::uint64_t a_nnz, std::uint64_t c_nnz,
                               std::uint64_t products) {
  if constexpr (telemetry::kEnabled) {
    telemetry::MovementLedger& ledger = telemetry::MovementLedger::global();
    telemetry::MovementLedger::HopFlow& f =
        ledger.hop(telemetry::Hop::kKernel);
    f.bytes_in.add(a_nnz * 12);
    f.bytes_out.add(c_nnz * 12);
    f.ops.add(1);
    ledger.kernel_vector_bytes().add(products * 12);
    ledger.kernel_flops().add(2 * products);
    ledger.kernel_nnz().add(a_nnz);
  }
}

// Per-worker scratch reused across every band the worker executes.
struct WorkerScratch {
  WorkerScratch(const codec::CompressedMatrix& a,
                codec::ContainerSource& source)
      : decoder(a, source) {}

  BlockDecoder decoder;
  // Band-local contiguous copies of A's decoded streams (rows span block
  // boundaries, so the Gustavson row loop needs the whole band flat).
  std::vector<sparse::index_t> a_idx;
  std::vector<double> a_val;
  // Dense accumulator: value + row-stamp per column of B, plus the
  // touched-column list the emit phase sorts.
  std::vector<double> acc;
  std::vector<std::uint32_t> stamp;
  std::uint32_t stamp_cur = 0;
  std::vector<sparse::index_t> touched;
  // Sort-based merge: expanded (col, val) products of one row.
  std::vector<std::pair<sparse::index_t, double>> pairs;

  void ensure_cols(std::size_t cols) {
    if (acc.size() < cols) {
      acc.resize(cols, 0.0);
      stamp.resize(cols, 0);
    }
  }
};

// Per-band output and accounting, stitched after the fan-out. One task
// owns each band, so no synchronization is needed.
struct BandOut {
  std::vector<sparse::index_t> cols;
  std::vector<double> vals;
  std::uint64_t rows_dense = 0;
  std::uint64_t rows_merge = 0;
  std::uint64_t products = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t compressed_bytes = 0;
};

// The per-block merge-vs-dense cut: dense-run blocks expand to heavily
// colliding products (consecutive A columns select consecutive B rows),
// so the dense accumulator wins earlier; scattered blocks rarely collide,
// so sorting a small product list stays cheaper for longer.
std::size_t block_merge_threshold(const sparse::BlockStats& bs,
                                  std::size_t base) {
  if (bs.fraction_unit_gaps > 0.5) return std::max<std::size_t>(1, base / 2);
  if (bs.mean_abs_gap > 64.0) return base * 2;
  return base;
}

struct SpgemmJob {
  const codec::CompressedMatrix* a = nullptr;
  codec::ContainerSource* source = nullptr;
  const sparse::Csr* b = nullptr;
  const SpgemmConfig* cfg = nullptr;
  std::vector<RowBand> bands;
  std::vector<BandOut> outs;
  // Per-row C lengths; disjoint row ranges per band, so plain writes.
  std::vector<sparse::offset_t> c_row_len;
  std::vector<std::unique_ptr<WorkerScratch>> scratch;  // one per worker
};

void process_band(SpgemmJob& job, std::size_t band_id, WorkerScratch& ws) {
  const RowBand& band = job.bands[band_id];
  const codec::CompressedMatrix& a = *job.a;
  const sparse::Csr& b = *job.b;
  BandOut& out = job.outs[band_id];
  const auto& blocks = a.blocking.blocks;

  const std::size_t band_first_nnz = blocks[band.first_block].first_nnz;
  const sparse::BlockRange& last =
      blocks[band.first_block + band.block_count - 1];
  const std::size_t band_nnz = last.first_nnz + last.count - band_first_nnz;

  ws.a_idx.resize(band_nnz);
  ws.a_val.resize(band_nnz);
  ws.ensure_cols(static_cast<std::size_t>(b.cols));

  // Decode the band's blocks into the flat band-local streams, recording
  // each block's merge threshold for the row strategy choice below.
  std::vector<std::size_t> block_threshold(band.block_count);
  job.source->acquire(band.first_block, band.block_count);
  try {
    for (std::size_t i = 0; i < band.block_count; ++i) {
      const std::size_t bi = band.first_block + i;
      const BlockStreams decoded = ws.decoder.decode(bi);
      out.compressed_bytes += decoded.stream_bytes;
      ++out.blocks_decoded;
      const std::size_t off = blocks[bi].first_nnz - band_first_nnz;
      std::memcpy(ws.a_idx.data() + off, decoded.indices.data(),
                  decoded.indices.size() * sizeof(sparse::index_t));
      std::memcpy(ws.a_val.data() + off, decoded.values.data(),
                  decoded.values.size() * sizeof(double));
      block_threshold[i] = block_merge_threshold(
          sparse::compute_block_stats(decoded.indices, decoded.values),
          job.cfg->merge_max_products);
    }
  } catch (...) {
    job.source->release(band.first_block, band.block_count);
    throw;
  }
  job.source->release(band.first_block, band.block_count);

  // Gustavson row loop over the band's rows. Timed as the kernel hop.
  telemetry::StageTimer ledger_timer(
      telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
  std::size_t block_cursor = 0;  // band-relative block holding the row start
  for (sparse::index_t r = band.first_row; r < band.end_row; ++r) {
    const auto row_begin = static_cast<std::size_t>(a.row_ptr[r]);
    const auto row_end = static_cast<std::size_t>(a.row_ptr[r + 1]);
    if (row_begin == row_end) continue;  // empty row: c_row_len stays 0
    while (block_cursor + 1 < band.block_count &&
           row_begin >= blocks[band.first_block + block_cursor + 1].first_nnz) {
      ++block_cursor;
    }

    // Upper bound on this row's expanded products (the Gustavson flop
    // count), which is also the exact product count.
    std::uint64_t row_products = 0;
    for (std::size_t k = row_begin; k < row_end; ++k) {
      const auto col =
          static_cast<std::size_t>(ws.a_idx[k - band_first_nnz]);
      row_products += static_cast<std::uint64_t>(b.row_ptr[col + 1] -
                                                 b.row_ptr[col]);
    }
    if (row_products == 0) continue;
    out.products += row_products;

    const std::size_t first_out = out.cols.size();
    if (row_products <= block_threshold[block_cursor]) {
      // Sort-based merge: expand products in A-entry order, stable-sort
      // by column, sum runs. The stable sort keeps each column's products
      // in A-entry order, and the run sum seeds by assignment — the same
      // operation sequence per column as the dense accumulator below.
      ++out.rows_merge;
      ws.pairs.clear();
      for (std::size_t k = row_begin; k < row_end; ++k) {
        const auto col =
            static_cast<std::size_t>(ws.a_idx[k - band_first_nnz]);
        const double av = ws.a_val[k - band_first_nnz];
        for (sparse::offset_t j = b.row_ptr[col]; j < b.row_ptr[col + 1];
             ++j) {
          ws.pairs.emplace_back(b.col_idx[static_cast<std::size_t>(j)],
                                av * b.val[static_cast<std::size_t>(j)]);
        }
      }
      std::stable_sort(ws.pairs.begin(), ws.pairs.end(),
                       [](const auto& x, const auto& y) {
                         return x.first < y.first;
                       });
      std::size_t p = 0;
      while (p < ws.pairs.size()) {
        const sparse::index_t col = ws.pairs[p].first;
        double sum = ws.pairs[p].second;
        ++p;
        while (p < ws.pairs.size() && ws.pairs[p].first == col) {
          sum += ws.pairs[p].second;
          ++p;
        }
        out.cols.push_back(col);
        out.vals.push_back(sum);
      }
    } else {
      // Dense accumulator: stamped scatter-add in A-entry order, then
      // emit the touched columns sorted.
      ++out.rows_dense;
      if (ws.stamp_cur == std::numeric_limits<std::uint32_t>::max()) {
        std::fill(ws.stamp.begin(), ws.stamp.end(), 0);
        ws.stamp_cur = 0;
      }
      const std::uint32_t tag = ++ws.stamp_cur;
      ws.touched.clear();
      for (std::size_t k = row_begin; k < row_end; ++k) {
        const auto col =
            static_cast<std::size_t>(ws.a_idx[k - band_first_nnz]);
        const double av = ws.a_val[k - band_first_nnz];
        for (sparse::offset_t j = b.row_ptr[col]; j < b.row_ptr[col + 1];
             ++j) {
          const auto c = static_cast<std::size_t>(
              b.col_idx[static_cast<std::size_t>(j)]);
          const double prod = av * b.val[static_cast<std::size_t>(j)];
          if (ws.stamp[c] == tag) {
            ws.acc[c] += prod;
          } else {
            ws.stamp[c] = tag;
            ws.acc[c] = prod;
            ws.touched.push_back(static_cast<sparse::index_t>(c));
          }
        }
      }
      std::sort(ws.touched.begin(), ws.touched.end());
      for (const sparse::index_t col : ws.touched) {
        out.cols.push_back(col);
        out.vals.push_back(ws.acc[static_cast<std::size_t>(col)]);
      }
    }
    job.c_row_len[static_cast<std::size_t>(r)] =
        static_cast<sparse::offset_t>(out.cols.size() - first_out);
  }

  ledger_kernel_band(band_nnz, out.cols.size(), out.products);
}

}  // namespace

sparse::Csr spgemm(const codec::CompressedMatrix& a,
                   std::shared_ptr<codec::ContainerSource> a_source,
                   const sparse::Csr& b, const SpgemmConfig& cfg,
                   SpgemmStats* stats) {
  RECODE_PARSE_CHECK(b.rows == a.cols,
                     "spgemm: b.rows must equal a.cols");
  RECODE_PARSE_CHECK(b.row_ptr.size() == static_cast<std::size_t>(b.rows) + 1,
                     "spgemm: malformed b.row_ptr");

  sparse::Csr c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);
  if (stats) *stats = SpgemmStats{};

  if (!a_source) a_source = codec::make_resident_source(a);
  SpgemmJob job;
  job.a = &a;
  job.source = a_source.get();
  job.b = &b;
  job.cfg = &cfg;
  job.bands = make_row_bands(a.blocking, cfg.blocks_per_band);
  if (job.bands.empty()) {
    if (stats) stats->workers = 1;
    return c;  // nnz == 0: C is all-empty rows
  }
  std::size_t workers = cfg.threads;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (workers > 1 && job.bands.size() > 1) {
    // Spread the matrix over ~4 tasks per worker so stealing has slack.
    const std::size_t max_blocks = std::max<std::size_t>(
        1, a.blocking.block_count() / (4 * workers));
    job.bands = split_row_bands(a.blocking, job.bands, max_blocks);
  }
  workers = std::min(workers, job.bands.size());
  job.outs.resize(job.bands.size());
  job.c_row_len.assign(static_cast<std::size_t>(a.rows), 0);
  for (std::size_t w = 0; w < workers; ++w) {
    job.scratch.push_back(std::make_unique<WorkerScratch>(a, *job.source));
  }

  // An out-of-core source stages at most two bands per worker: the one in
  // hand plus its lookahead prefetch.
  std::size_t max_extent = 0;
  for (const RowBand& band : job.bands) {
    max_extent = std::max(max_extent, job.source->range_extent_bytes(
                                          band.first_block, band.block_count));
  }
  if (max_extent > 0) job.source->reserve(2 * workers, max_extent);
  codec::BandRunner::Lookahead prefetch = nullptr;
  if (job.source->out_of_core()) {
    prefetch = [](void* ctx, std::uint32_t t) {
      const auto& j = *static_cast<SpgemmJob*>(ctx);
      j.source->prefetch(j.bands[t].first_block, j.bands[t].block_count);
    };
  }

  std::vector<std::uint32_t> order(job.bands.size());
  std::iota(order.begin(), order.end(), 0u);
  codec::BandRunner runner(workers, order.size());
  try {
    runner.run(
        order,
        [](void* ctx, std::uint32_t band_id, std::size_t worker) {
          auto& j = *static_cast<SpgemmJob*>(ctx);
          process_band(j, band_id, *j.scratch[worker]);
        },
        &job, prefetch);
  } catch (...) {
    job.source->end_run();
    throw;
  }
  job.source->end_run();
  const codec::BandRunStats& run_stats = runner.last_stats();

  // Stitch: bands are row-ordered and own disjoint row ranges, so C is
  // the in-order concatenation of the band outputs.
  for (sparse::index_t r = 0; r < a.rows; ++r) {
    c.row_ptr[static_cast<std::size_t>(r) + 1] =
        c.row_ptr[static_cast<std::size_t>(r)] +
        job.c_row_len[static_cast<std::size_t>(r)];
  }
  std::size_t total = 0;
  for (const BandOut& out : job.outs) total += out.cols.size();
  c.col_idx.resize(total);
  c.val.resize(total);
  std::size_t off = 0;
  for (const BandOut& out : job.outs) {
    if (out.cols.empty()) continue;
    std::memcpy(c.col_idx.data() + off, out.cols.data(),
                out.cols.size() * sizeof(sparse::index_t));
    std::memcpy(c.val.data() + off, out.vals.data(),
                out.vals.size() * sizeof(double));
    off += out.cols.size();
  }

  if (stats) {
    for (const BandOut& out : job.outs) {
      stats->rows_dense += out.rows_dense;
      stats->rows_merge += out.rows_merge;
      stats->products += out.products;
      stats->a_blocks_decoded += out.blocks_decoded;
      stats->a_compressed_bytes += out.compressed_bytes;
    }
    stats->tasks = job.bands.size();
    stats->workers = run_stats.workers;
    stats->steals = run_stats.steals;
  }
  return c;
}

sparse::Csr spgemm(const codec::CompressedMatrix& a, const sparse::Csr& b,
                   const SpgemmConfig& cfg, SpgemmStats* stats) {
  return spgemm(a, nullptr, b, cfg, stats);
}

codec::StreamWriteResult spgemm_to_container(
    const std::string& path, const codec::CompressedMatrix& a,
    std::shared_ptr<codec::ContainerSource> a_source, const sparse::Csr& b,
    const codec::PipelineConfig& out_cfg, const SpgemmConfig& cfg,
    SpgemmStats* stats) {
  const sparse::Csr c = spgemm(a, std::move(a_source), b, cfg, stats);
  return codec::write_compressed_stream(
      path, c.rows, c.cols, c.row_ptr, out_cfg,
      [&c](std::size_t, std::uint64_t first_nnz,
           std::span<sparse::index_t> indices, std::span<double> values) {
        if (indices.empty()) return;
        std::memcpy(indices.data(), c.col_idx.data() + first_nnz,
                    indices.size() * sizeof(sparse::index_t));
        std::memcpy(values.data(), c.val.data() + first_nnz,
                    values.size() * sizeof(double));
      },
      cfg.threads);
}

}  // namespace recode::spmv
