#include "spmv/spmspv.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/error.h"
#include "codec/band_runner.h"
#include "spmv/recoded.h"

namespace recode::spmv {

SpmspvEngine::SpmspvEngine(const codec::CompressedMatrix& cm, SpmspvConfig cfg)
    : SpmspvEngine(cm, nullptr, cfg) {}

SpmspvEngine::SpmspvEngine(const codec::CompressedMatrix& cm,
                           std::shared_ptr<codec::ContainerSource> source,
                           SpmspvConfig cfg)
    : cm_(&cm),
      source_(source ? std::move(source) : codec::make_resident_source(cm)),
      cfg_(cfg) {
  bands_ = make_row_bands(cm_->blocking, cfg_.blocks_per_band);
  in_frontier_.assign(static_cast<std::size_t>(cm_->cols), 0);
  x_dense_.assign(static_cast<std::size_t>(cm_->cols), 0.0);
  band_stats_.resize(bands_.size());
  std::size_t workers = cfg_.threads;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, std::max<std::size_t>(1, bands_.size()));
  for (std::size_t i = 0; i < workers; ++i) {
    decoders_.push_back(std::make_unique<BlockDecoder>(*cm_, *source_));
  }
  survey_blocks();
}

// One streaming pass over every block to record column spans and
// signatures — the metadata multiply() skips against. Runs at
// construction, outside any ledger run window (see spmspv.h).
void SpmspvEngine::survey_blocks() {
  const auto& blocks = cm_->blocking.blocks;
  summaries_.resize(blocks.size());
  if (blocks.empty()) return;
  BlockDecoder& decoder = *decoders_[0];
  constexpr std::size_t kChunk = 16;
  std::size_t first = 0;
  std::size_t count = std::min(kChunk, blocks.size());
  source_->prefetch(first, count);
  try {
    while (first < blocks.size()) {
      source_->acquire(first, count);
      const std::size_t next_first = first + count;
      const std::size_t next_count =
          std::min(kChunk, blocks.size() - next_first);
      if (next_count > 0) source_->prefetch(next_first, next_count);
      for (std::size_t b = first; b < first + count; ++b) {
        const BlockStreams decoded = decoder.decode(b);
        BlockSummary& s = summaries_[b];
        s.col_min = cm_->cols;
        s.col_max = -1;
        s.signature = 0;
        for (const sparse::index_t c : decoded.indices) {
          s.col_min = std::min(s.col_min, c);
          s.col_max = std::max(s.col_max, c);
          s.signature |= column_bit(c);
        }
      }
      source_->release(first, count);
      first = next_first;
      count = next_count;
    }
  } catch (...) {
    source_->release(first, count);
    source_->end_run();
    throw;
  }
  source_->end_run();
}

bool SpmspvEngine::block_needed(const BlockSummary& s) const {
  if (s.col_min > frontier_max_ || s.col_max < frontier_min_ ||
      (s.signature & frontier_signature_) == 0) {
    return false;
  }
  // Exact span membership: a scattered frontier overlaps almost every
  // block's span in the min/max sense, but binary search tells us
  // whether a frontier column actually lands inside [col_min, col_max].
  const auto it = std::lower_bound(frontier_cols_.begin(),
                                   frontier_cols_.end(), s.col_min);
  return it != frontier_cols_.end() && *it <= s.col_max;
}

template <typename Fn>
void SpmspvEngine::for_each_needed_run(const RowBand& band, Fn&& fn) const {
  const std::size_t end = band.first_block + band.block_count;
  std::size_t b = band.first_block;
  while (b < end) {
    if (!block_needed(summaries_[b])) {
      ++b;
      continue;
    }
    std::size_t run = 1;
    while (b + run < end && block_needed(summaries_[b + run])) ++run;
    fn(b, run);
    b += run;
  }
}

void SpmspvEngine::process_band(std::size_t band_id, BlockDecoder& decoder) {
  const RowBand& band = bands_[band_id];
  SpmspvStats& bs = band_stats_[band_id];
  bs = SpmspvStats{};
  bs.blocks_total = band.block_count;
  const auto& blocks = cm_->blocking.blocks;

  // Lease exactly the runs the lookahead hinted, so out-of-core leases
  // cover only the bytes that will be decoded.
  for_each_needed_run(band, [&](std::size_t first, std::size_t run) {
    source_->acquire(first, run);
    try {
      for (std::size_t b = first; b < first + run; ++b) {
        const BlockStreams decoded = decoder.decode(b);
        bs.compressed_bytes += decoded.stream_bytes;
        ++bs.blocks_decoded;

        for (const sparse::index_t col : decoded.indices) {
          bs.products += in_frontier_[static_cast<std::size_t>(col)];
        }
        // The shared kernel over the dense frontier scatter (0.0 outside
        // the frontier): the same operations as a dense multiply.
        accumulate_block(blocks[b], cm_->row_ptr, decoded.indices,
                         decoded.values, x_dense_, y_);
      }
    } catch (...) {
      source_->release(first, run);
      throw;
    }
    source_->release(first, run);
  });
  bs.blocks_skipped = band.block_count - bs.blocks_decoded;
  if (bs.blocks_skipped == band.block_count) bs.bands_skipped = 1;
}

void SpmspvEngine::multiply(const SparseVector& x, std::span<double> y) {
  RECODE_PARSE_CHECK(x.indices.size() == x.values.size(),
                     "spmspv: frontier indices/values size mismatch");
  RECODE_CHECK(y.size() == static_cast<std::size_t>(cm_->rows));
  std::fill(y.begin(), y.end(), 0.0);

  // Validate before scattering so a bad frontier leaves the engine clean.
  sparse::index_t prev = -1;
  for (const sparse::index_t c : x.indices) {
    RECODE_PARSE_CHECK(c >= 0 && c < cm_->cols,
                       "spmspv: frontier index out of range");
    RECODE_PARSE_CHECK(c > prev,
                       "spmspv: frontier must be sorted and duplicate-free");
    prev = c;
  }

  // Scatter the frontier and build its span + signature.
  frontier_signature_ = 0;
  frontier_min_ = cm_->cols;
  frontier_max_ = -1;
  frontier_cols_.assign(x.indices.begin(), x.indices.end());
  for (std::size_t i = 0; i < x.indices.size(); ++i) {
    const sparse::index_t c = x.indices[i];
    in_frontier_[static_cast<std::size_t>(c)] = 1;
    x_dense_[static_cast<std::size_t>(c)] = x.values[i];
    frontier_signature_ |= column_bit(c);
    frontier_min_ = std::min(frontier_min_, c);
    frontier_max_ = std::max(frontier_max_, c);
  }

  SpmspvStats totals;
  totals.frontier_nnz = x.indices.size();
  if (!bands_.empty() && !x.indices.empty()) {
    std::size_t max_extent = 0;
    for (const RowBand& band : bands_) {
      max_extent = std::max(max_extent,
                            source_->range_extent_bytes(band.first_block,
                                                        band.block_count));
    }
    if (max_extent > 0) source_->reserve(2 * decoders_.size(), max_extent);
    codec::BandRunner::Lookahead prefetch = nullptr;
    if (source_->out_of_core()) {
      prefetch = [](void* ctx, std::uint32_t t) {
        // Hint exactly the runs process_band will lease.
        const auto& e = *static_cast<SpmspvEngine*>(ctx);
        e.for_each_needed_run(e.bands_[t],
                              [&e](std::size_t first, std::size_t count) {
                                e.source_->prefetch(first, count);
                              });
      };
    }
    std::vector<std::uint32_t> order(bands_.size());
    std::iota(order.begin(), order.end(), 0u);
    y_ = y;
    codec::BandRunner runner(decoders_.size(), order.size());
    try {
      runner.run(
          order,
          [](void* ctx, std::uint32_t band_id, std::size_t worker) {
            auto& e = *static_cast<SpmspvEngine*>(ctx);
            e.process_band(band_id, *e.decoders_[worker]);
          },
          this, prefetch);
    } catch (...) {
      source_->end_run();
      // Un-scatter before propagating so the engine stays usable.
      for (const sparse::index_t c : x.indices) {
        in_frontier_[static_cast<std::size_t>(c)] = 0;
        x_dense_[static_cast<std::size_t>(c)] = 0.0;
      }
      throw;
    }
    source_->end_run();
    for (const SpmspvStats& bs : band_stats_) {
      totals.blocks_total += bs.blocks_total;
      totals.blocks_skipped += bs.blocks_skipped;
      totals.bands_skipped += bs.bands_skipped;
      totals.products += bs.products;
      totals.blocks_decoded += bs.blocks_decoded;
      totals.compressed_bytes += bs.compressed_bytes;
    }
  } else {
    // Empty frontier (or empty matrix): every block is skipped.
    totals.blocks_total = cm_->blocking.block_count();
    totals.blocks_skipped = totals.blocks_total;
    totals.bands_skipped = bands_.size();
  }

  // Un-scatter the frontier (O(|x|), keeps the dense buffers warm).
  for (const sparse::index_t c : x.indices) {
    in_frontier_[static_cast<std::size_t>(c)] = 0;
    x_dense_[static_cast<std::size_t>(c)] = 0.0;
  }

  total_blocks_decoded_ += totals.blocks_decoded;
  total_blocks_skipped_ += totals.blocks_skipped;
  last_stats_ = totals;
}

}  // namespace recode::spmv
