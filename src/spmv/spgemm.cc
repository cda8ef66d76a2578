#include "spmv/spgemm.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
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

// A row emits from its sorted touched list instead of walking the bitmap
// when it touched fewer than one column per kSortSpanWords words of its
// bitmap span: sorting k columns then costs less than loading the span.
constexpr std::size_t kSortSpanWords = 16;

// Per-worker scratch reused across every band the worker executes.
struct WorkerScratch {
  WorkerScratch(const codec::CompressedMatrix& a,
                codec::ContainerSource& source, std::size_t cols)
      : decoder(a, source), acc(cols), stamp(cols), bits((cols + 63) / 64) {}

  BlockDecoder decoder;
  // Band-local contiguous copies of A's decoded streams (rows span block
  // boundaries, so the Gustavson row loop needs the whole band flat).
  std::vector<sparse::index_t> a_idx;
  std::vector<double> a_val;
  // The accumulator, per column of B: value, row stamp (set = touched by
  // the current row), and one bit in a cols/64-word bitmap; plus the
  // row's touched columns in first-touch order. Emit clears every bit it
  // set, so the bitmap is all-zero between rows.
  std::vector<double> acc;
  std::vector<std::uint32_t> stamp;
  std::uint32_t stamp_cur = 0;
  std::vector<std::uint64_t> bits;
  std::vector<sparse::index_t> touched;

  std::uint32_t next_stamp() {
    if (stamp_cur == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp.begin(), stamp.end(), 0);
      stamp_cur = 0;
    }
    return ++stamp_cur;
  }
};

// One band's slice of C — its rows' columns and values, concatenated —
// allocated once at the exact size the count pass found, and left
// uninitialized because the fill pass writes every element. One task
// owns each band, so no synchronization is needed.
struct BandOut {
  std::size_t nnz = 0;
  std::unique_ptr<sparse::index_t[]> cols;
  std::unique_ptr<double[]> vals;
  std::uint64_t rows_bitmap = 0;
  std::uint64_t rows_sorted = 0;
  std::uint64_t products = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t compressed_bytes = 0;
};

// C as the kernel leaves it: the final row_ptr plus the row-ordered band
// slices, outs[i] holding C's nnz range [first_nnz[i], first_nnz[i + 1]).
struct BandedC {
  std::vector<sparse::offset_t> row_ptr;
  std::vector<BandOut> outs;
  std::vector<std::size_t> first_nnz;

  // Copies C's nnz range [first, first + idx.size()) out of the slices it
  // spans, starting at the last band that begins at or before `first`.
  void copy(std::size_t first, std::span<sparse::index_t> idx,
            std::span<double> val) const {
    auto i = static_cast<std::size_t>(
        std::upper_bound(first_nnz.begin(), first_nnz.end(), first) -
        first_nnz.begin() - 1);
    for (std::size_t done = 0; done < idx.size(); ++i) {
      const std::size_t off = first + done - first_nnz[i];
      const std::size_t n = std::min(idx.size() - done, outs[i].nnz - off);
      std::copy_n(outs[i].cols.get() + off, n, idx.data() + done);
      std::copy_n(outs[i].vals.get() + off, n, val.data() + done);
      done += n;
    }
  }
};

struct SpgemmJob {
  const codec::CompressedMatrix* a = nullptr;
  codec::ContainerSource* source = nullptr;
  const sparse::Csr* b = nullptr;
  std::vector<RowBand> bands;
  // Band i fills c.outs[i] and writes its rows' lengths into
  // c.row_ptr[r + 1] (disjoint rows, so plain writes); the caller
  // prefix-sums row_ptr after the run.
  BandedC c;
  std::vector<std::unique_ptr<WorkerScratch>> scratch;  // one per worker
};

void process_band(SpgemmJob& job, std::size_t band_id, WorkerScratch& ws) {
  const RowBand& band = job.bands[band_id];
  const codec::CompressedMatrix& a = *job.a;
  const sparse::Csr& b = *job.b;
  BandOut& out = job.c.outs[band_id];
  const auto& blocks = a.blocking.blocks;

  const std::size_t band_first_nnz = blocks[band.first_block].first_nnz;
  const sparse::BlockRange& last =
      blocks[band.first_block + band.block_count - 1];
  const std::size_t band_nnz = last.first_nnz + last.count - band_first_nnz;

  ws.a_idx.resize(band_nnz);
  ws.a_val.resize(band_nnz);

  // Decode the band's blocks into the flat band-local streams.
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
    }
  } catch (...) {
    job.source->release(band.first_block, band.block_count);
    throw;
  }
  job.source->release(band.first_block, band.block_count);

  // Gustavson row loop over the band's rows. Timed as the kernel hop.
  telemetry::StageTimer ledger_timer(
      telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
  // Row r's entries in the band-local streams: [row_lo(r), row_lo(r + 1)).
  const auto row_lo = [&](sparse::index_t r) {
    return static_cast<std::size_t>(a.row_ptr[r]) - band_first_nnz;
  };

  // Count: a stamp-only sweep gives each row's C length and the band's.
  for (sparse::index_t r = band.first_row; r < band.end_row; ++r) {
    const std::uint32_t tag = ws.next_stamp();
    std::size_t len = 0;
    for (std::size_t k = row_lo(r), k1 = row_lo(r + 1); k < k1; ++k) {
      const auto col = static_cast<std::size_t>(ws.a_idx[k]);
      const auto j0 = static_cast<std::size_t>(b.row_ptr[col]);
      const auto j1 = static_cast<std::size_t>(b.row_ptr[col + 1]);
      out.products += j1 - j0;
      for (std::size_t j = j0; j < j1; ++j) {
        const auto c = static_cast<std::size_t>(b.col_idx[j]);
        len += ws.stamp[c] != tag;
        ws.stamp[c] = tag;
      }
    }
    job.c.row_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<sparse::offset_t>(len);
    out.nnz += len;
  }

  // Size: the band's slice of C, once, exactly.
  out.cols = std::make_unique_for_overwrite<sparse::index_t[]>(out.nnz);
  out.vals = std::make_unique_for_overwrite<double[]>(out.nnz);

  // Fill: scatter-add in A-entry order, seeding each column's sum by
  // assignment (the reference's operation order, so the bits match), then
  // emit the row's columns in ascending order.
  std::size_t pos = 0;
  for (sparse::index_t r = band.first_row; r < band.end_row; ++r) {
    if (job.c.row_ptr[static_cast<std::size_t>(r) + 1] == 0) continue;
    const std::uint32_t tag = ws.next_stamp();
    ws.touched.clear();
    for (std::size_t k = row_lo(r), k1 = row_lo(r + 1); k < k1; ++k) {
      const auto col = static_cast<std::size_t>(ws.a_idx[k]);
      const double av = ws.a_val[k];
      const auto j1 = static_cast<std::size_t>(b.row_ptr[col + 1]);
      for (auto j = static_cast<std::size_t>(b.row_ptr[col]); j < j1; ++j) {
        const auto c = static_cast<std::size_t>(b.col_idx[j]);
        const double prod = av * b.val[j];
        if (ws.stamp[c] == tag) {
          ws.acc[c] += prod;
        } else {
          ws.stamp[c] = tag;
          ws.acc[c] = prod;
          ws.bits[c >> 6] |= std::uint64_t{1} << (c & 63);
          ws.touched.push_back(static_cast<sparse::index_t>(c));
        }
      }
    }
    const auto emit = [&](std::size_t c) {
      out.cols[pos] = static_cast<sparse::index_t>(c);
      out.vals[pos++] = ws.acc[c];
    };
    const auto [lo, hi] =
        std::minmax_element(ws.touched.begin(), ws.touched.end());
    const auto word_lo = static_cast<std::size_t>(*lo) >> 6;
    const auto word_hi = static_cast<std::size_t>(*hi) >> 6;
    if (ws.touched.size() * kSortSpanWords < word_hi - word_lo + 1) {
      ++out.rows_sorted;
      std::sort(ws.touched.begin(), ws.touched.end());
      for (const sparse::index_t col : ws.touched) {
        ws.bits[static_cast<std::size_t>(col) >> 6] = 0;
        emit(static_cast<std::size_t>(col));
      }
    } else {
      ++out.rows_bitmap;
      for (std::size_t w = word_lo; w <= word_hi; ++w) {
        std::uint64_t word = ws.bits[w];
        if (word == 0) continue;
        ws.bits[w] = 0;
        do {
          emit(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
          word &= word - 1;
        } while (word != 0);
      }
    }
  }

  ledger_kernel_band(band_nnz, out.nnz, out.products);
}

BandedC run_spgemm(const codec::CompressedMatrix& a,
                   std::shared_ptr<codec::ContainerSource> a_source,
                   const sparse::Csr& b, const SpgemmConfig& cfg,
                   SpgemmStats* stats) {
  RECODE_PARSE_CHECK(b.rows == a.cols,
                     "spgemm: b.rows must equal a.cols");
  RECODE_PARSE_CHECK(b.row_ptr.size() == static_cast<std::size_t>(b.rows) + 1,
                     "spgemm: malformed b.row_ptr");

  if (!a_source) a_source = codec::make_resident_source(a);
  SpgemmJob job;
  job.a = &a;
  job.source = a_source.get();
  job.b = &b;
  job.c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);
  job.bands = make_row_bands(a.blocking, cfg.blocks_per_band);
  if (job.bands.empty()) {
    if (stats) *stats = SpgemmStats{.workers = 1};
    job.c.first_nnz = {0};
    return std::move(job.c);  // nnz == 0: all-empty rows
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
  job.c.outs.resize(job.bands.size());
  for (std::size_t w = 0; w < workers; ++w) {
    job.scratch.push_back(std::make_unique<WorkerScratch>(
        a, *job.source, static_cast<std::size_t>(b.cols)));
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

  std::partial_sum(job.c.row_ptr.begin(), job.c.row_ptr.end(),
                   job.c.row_ptr.begin());
  job.c.first_nnz.assign(1, 0);
  SpgemmStats st;
  for (const BandOut& out : job.c.outs) {
    job.c.first_nnz.push_back(job.c.first_nnz.back() + out.nnz);
    st.rows_dense += out.rows_bitmap;
    st.rows_merge += out.rows_sorted;
    st.products += out.products;
    st.a_blocks_decoded += out.blocks_decoded;
    st.a_compressed_bytes += out.compressed_bytes;
  }
  st.tasks = job.bands.size();
  st.workers = run_stats.workers;
  st.steals = run_stats.steals;
  if (stats) *stats = st;
  return std::move(job.c);
}

}  // namespace

sparse::Csr spgemm(const codec::CompressedMatrix& a,
                   std::shared_ptr<codec::ContainerSource> a_source,
                   const sparse::Csr& b, const SpgemmConfig& cfg,
                   SpgemmStats* stats) {
  BandedC bc = run_spgemm(a, std::move(a_source), b, cfg, stats);
  sparse::Csr c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr = std::move(bc.row_ptr);
  // Stitch: bands are row-ordered and own disjoint row ranges, so C is
  // the in-order concatenation of the band slices.
  c.col_idx.resize(bc.first_nnz.back());
  c.val.resize(bc.first_nnz.back());
  bc.copy(0, c.col_idx, c.val);
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
  const BandedC c = run_spgemm(a, std::move(a_source), b, cfg, stats);
  return codec::write_compressed_stream(
      path, a.rows, b.cols, c.row_ptr, out_cfg,
      [&c](std::size_t, std::uint64_t first_nnz,
           std::span<sparse::index_t> indices, std::span<double> values) {
        c.copy(static_cast<std::size_t>(first_nnz), indices, values);
      },
      cfg.threads);
}

}  // namespace recode::spmv
