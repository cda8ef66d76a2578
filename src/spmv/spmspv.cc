#include "spmv/spmspv.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "spmv/recoded.h"

namespace recode::spmv {

SpmspvEngine::SpmspvEngine(const codec::CompressedMatrix& cm, SpmspvConfig cfg)
    : SpmspvEngine(cm, nullptr, cfg) {}

SpmspvEngine::SpmspvEngine(const codec::CompressedMatrix& cm,
                           std::shared_ptr<codec::ContainerSource> source,
                           SpmspvConfig cfg)
    : cm_(&cm),
      bands_(make_row_bands(cm.blocking, cfg.blocks_per_band)),
      stream_(cm, std::move(source), cfg.threads, bands_.size()) {
  in_frontier_.assign(static_cast<std::size_t>(cm_->cols), 0);
  x_dense_.assign(static_cast<std::size_t>(cm_->cols), 0.0);
  // Sized once so a multiply never allocates: a band holds at most one
  // run per block.
  runs_.reserve(cm_->blocking.blocks.size());
  band_runs_.resize(bands_.size() + 1);
  band_products_.resize(bands_.size());
  order_.resize(bands_.size());
  std::iota(order_.begin(), order_.end(), 0u);
  survey_blocks();
}

// One streaming pass over every block to record column spans and
// signatures — the metadata multiply() skips against. Runs at
// construction, outside any ledger run window (see spmspv.h).
void SpmspvEngine::survey_blocks() {
  summaries_.resize(cm_->blocking.blocks.size());
  stream_.walk([this](std::size_t b, const BlockStreams& decoded) {
    BlockSummary& s = summaries_[b];
    s.col_min = cm_->cols;
    s.col_max = -1;
    s.signature = 0;
    for (const sparse::index_t c : decoded.indices) {
      s.col_min = std::min(s.col_min, c);
      s.col_max = std::max(s.col_max, c);
      s.signature |= column_bit(c);
    }
  });
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

// Lists each band's maximal runs of consecutive blocks the current
// frontier needs, in stream order. The lookahead hint and process_band
// both read this plan, so out-of-core leases cover exactly the bytes that
// will be decoded.
void SpmspvEngine::plan_runs() {
  runs_.clear();
  for (std::size_t i = 0; i < bands_.size(); ++i) {
    band_runs_[i] = runs_.size();
    const std::size_t end = bands_[i].first_block + bands_[i].block_count;
    std::size_t b = bands_[i].first_block;
    while (b < end) {
      if (!block_needed(summaries_[b])) {
        ++b;
        continue;
      }
      std::size_t run = 1;
      while (b + run < end && block_needed(summaries_[b + run])) ++run;
      runs_.push_back({b, run});
      b += run;
    }
  }
  band_runs_[bands_.size()] = runs_.size();
}

void SpmspvEngine::process_band(std::uint32_t band_id, std::size_t worker) {
  std::uint64_t products = 0;
  stream_.decode_task(
      worker, band_id, [&](std::size_t b, const BlockStreams& decoded) {
        for (const sparse::index_t col : decoded.indices) {
          products += in_frontier_[static_cast<std::size_t>(col)];
        }
        // The shared kernel over the dense frontier scatter (0.0 outside
        // the frontier): the same operations as a dense multiply.
        accumulate_block(cm_->blocking.blocks[b], cm_->row_ptr,
                         decoded.indices, decoded.values, x_dense_, y_);
      });
  band_products_[band_id] = products;
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

  // Un-scatter on every path (O(|x|), keeps the dense buffers warm and
  // the engine usable after a failed multiply).
  const auto unscatter = [&] {
    for (const sparse::index_t c : x.indices) {
      in_frontier_[static_cast<std::size_t>(c)] = 0;
      x_dense_[static_cast<std::size_t>(c)] = 0.0;
    }
  };
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
  totals.blocks_total = cm_->blocking.block_count();
  totals.blocks_skipped = totals.blocks_total;
  totals.bands_skipped = bands_.size();
  if (!bands_.empty() && !x.indices.empty()) {
    plan_runs();
    y_ = y;
    try {
      stream_.run(
          order_,
          [](void* ctx, std::uint32_t band_id) {
            const auto& e = *static_cast<const SpmspvEngine*>(ctx);
            return std::span<const BlockRun>(
                e.runs_.data() + e.band_runs_[band_id],
                e.band_runs_[band_id + 1] - e.band_runs_[band_id]);
          },
          [](void* ctx, std::uint32_t band_id, std::size_t worker) {
            static_cast<SpmspvEngine*>(ctx)->process_band(band_id, worker);
          },
          this);
    } catch (...) {
      unscatter();
      throw;
    }
    totals.blocks_decoded = stream_.last_run().blocks;
    totals.compressed_bytes = stream_.last_run().bytes;
    totals.blocks_skipped = totals.blocks_total - totals.blocks_decoded;
    for (std::size_t i = 0; i < bands_.size(); ++i) {
      if (band_runs_[i] != band_runs_[i + 1]) --totals.bands_skipped;
      totals.products += band_products_[i];
    }
  }

  unscatter();

  total_blocks_decoded_ += totals.blocks_decoded;
  total_blocks_skipped_ += totals.blocks_skipped;
  last_stats_ = totals;
}

}  // namespace recode::spmv
