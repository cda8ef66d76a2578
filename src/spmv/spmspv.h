// Frontier-driven sparse-vector SpMV over the decoded-block stream:
// y = A * x for a sparse x (a mask/frontier with values), the kernel
// behind BFS-style graph traversal where most of the vector is zero on
// any one step.
//
// Block skipping: at construction the engine makes one pass over the
// compressed blocks and records each block's column span [col_min,
// col_max] plus a 64-bit column signature (one hashed bit per distinct
// column). A multiply intersects the frontier's span and signature with
// each block's; blocks that cannot contain a frontier column are never
// decoded — that skipped decode (and its storage read, out of core) is
// the data-movement win, reported as SpmspvStats::skip_ratio(). Build
// the engine *outside* any ledger run window: the survey pass decodes
// without a kernel consuming, so a window that contains it will fail the
// conservation check by design.
//
// Accumulate: processed blocks run the shared accumulate_block kernel
// (recoded.h) against the dense scatter of the frontier (0.0 outside
// it). That kernel is the row-segment fold of Liu & Vinter's segmented
// sum (arXiv 1504.06474): each row's partial sum is seeded from y, held
// in a register across the row's run of the block, and stored once, so
// rows spanning block boundaries accumulate exactly like the serial
// kernel.
//
// Bitwise contract: every processed block runs the very kernel a dense
// multiply runs, over the dense expansion of x. Skipped blocks would
// contribute only v * 0.0 = ±0.0 terms, and a partial sum seeded from
// +0.0 can never be -0.0, so dropping them never changes a bit:
// multiply() is bitwise-identical to RecodedSpmv::multiply with the
// dense expansion of x, for any frontier, thread count, or backend
// (asserted by tests/spmv/test_spmspv.cc).
//
// Parallelism: row-aligned bands (make_row_bands) fanned out over the
// engine's BlockStream (spmv/block_decoder.h), which keeps its decoders
// and worker team across multiplies; each worker claims the next band of
// the run order from the band runner's cursor. Bands own disjoint y
// rows, so parallel ≡ serial bitwise for any claim order. A warmed multiply performs no heap
// allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "sparse/formats.h"
#include "spmv/block_decoder.h"
#include "spmv/streaming_executor.h"  // RowBand / make_row_bands

namespace recode::spmv {

// A sparse vector: strictly increasing indices with matching values.
struct SparseVector {
  std::vector<sparse::index_t> indices;
  std::vector<double> values;

  std::size_t nnz() const { return indices.size(); }
};

struct SpmspvConfig {
  // Worker threads for the band fan-out (0 = hardware_concurrency,
  // 1 = inline serial on the calling thread).
  std::size_t threads = 1;
  std::size_t blocks_per_band = 8;
};

// Per-multiply accounting (last_stats()) — the frontier-skip ratio is
// the headline: the fraction of blocks the frontier let the engine skip.
struct SpmspvStats {
  std::size_t blocks_total = 0;
  std::size_t blocks_skipped = 0;
  std::size_t bands_skipped = 0;  // whole bands with no frontier overlap
  std::uint64_t frontier_nnz = 0;
  std::uint64_t products = 0;  // frontier-hit multiplies accumulated
  std::uint64_t blocks_decoded = 0;
  std::uint64_t compressed_bytes = 0;

  double skip_ratio() const {
    return blocks_total == 0
               ? 0.0
               : static_cast<double>(blocks_skipped) /
                     static_cast<double>(blocks_total);
  }
};

class SpmspvEngine {
 public:
  // Resident matrix: blocks come from cm.blocks.
  explicit SpmspvEngine(const codec::CompressedMatrix& cm,
                        SpmspvConfig cfg = {});

  // Out-of-core: compressed streams come from `source` (cm may be
  // header-only). The construction survey streams every block once.
  SpmspvEngine(const codec::CompressedMatrix& cm,
               std::shared_ptr<codec::ContainerSource> source,
               SpmspvConfig cfg = {});

  // y = A*x for the sparse frontier x. Overwrites y (rows the frontier
  // cannot reach are 0.0). Requires sorted, in-range, duplicate-free
  // x.indices; throws recode::Error otherwise.
  void multiply(const SparseVector& x, std::span<double> y);

  const SpmspvStats& last_stats() const { return last_stats_; }

  sparse::index_t rows() const { return cm_->rows; }
  sparse::index_t cols() const { return cm_->cols; }

  // Totals across all multiplies.
  std::uint64_t blocks_decoded() const { return total_blocks_decoded_; }
  std::uint64_t blocks_skipped() const { return total_blocks_skipped_; }

 private:
  struct BlockSummary {
    sparse::index_t col_min = 0;
    sparse::index_t col_max = -1;  // min > max encodes an impossible span
    std::uint64_t signature = 0;
  };

  void survey_blocks();
  void plan_runs();
  void process_band(std::uint32_t band_id, std::size_t worker);
  // True when the block can contribute a nonzero product: the 64-bit
  // signatures intersect AND some frontier column falls inside the
  // block's exact column span (binary search over the sorted frontier —
  // the frontier's global min/max is useless for scattered frontiers).
  bool block_needed(const BlockSummary& s) const;

  static std::uint64_t column_bit(sparse::index_t col) {
    // Multiplicative hash onto 64 signature bits (Knuth's 2^64/phi).
    return 1ull << ((static_cast<std::uint64_t>(col) *
                     0x9E3779B97F4A7C15ull) >>
                    58);
  }

  const codec::CompressedMatrix* cm_;
  std::vector<BlockSummary> summaries_;
  std::vector<RowBand> bands_;
  std::vector<std::uint32_t> order_;  // every band, in stream order
  std::vector<std::uint8_t> in_frontier_;         // dense frontier mask
  std::vector<double> x_dense_;                   // dense frontier scatter
  std::uint64_t frontier_signature_ = 0;
  sparse::index_t frontier_min_ = 0;
  sparse::index_t frontier_max_ = -1;
  std::vector<sparse::index_t> frontier_cols_;    // sorted, current multiply
  // The current multiply's plan: band i leases
  // runs_[band_runs_[i], band_runs_[i + 1]).
  std::vector<BlockRun> runs_;
  std::vector<std::size_t> band_runs_;
  std::vector<std::uint64_t> band_products_;  // per band, worker-disjoint
  std::span<double> y_;  // output of the multiply in flight
  SpmspvStats last_stats_;
  std::uint64_t total_blocks_decoded_ = 0;
  std::uint64_t total_blocks_skipped_ = 0;
  // The caller's source (or cm.blocks), the decoders and the worker team.
  // Declared last: its threads reach the members above.
  BlockStream stream_;
};

}  // namespace recode::spmv
