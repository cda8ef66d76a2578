// Compressed-domain SpGEMM: C = A * B with A streamed block-by-block
// from its compressed container (resident or out-of-core) — the
// sparse×sparse consumer of the decoded-block stream (ROADMAP item 3,
// merge strategy grounded in SparseZipper, arXiv 2502.11353).
//
// The kernel is row-by-row Gustavson: for each row i of A, the rows of B
// selected by A's column indices are scaled and combined. Two accumulator
// strategies produce each output row, chosen per row from the A-block's
// structural statistics (sparse::BlockStats):
//
//   dense    a cols(B)-sized stamped accumulator: scatter-add every
//            product, then emit the touched columns in sorted order.
//            Wins when a row expands to many colliding products.
//   merge    gather every product into a (col, val) list, stable-sort by
//            column, and sum runs — the sort-based merge. Wins when the
//            expansion is small enough that sorting a tiny list beats
//            touching a cols-sized array.
//
// Both strategies combine the products of one output column in the same
// order (A-row entry order; the stable sort preserves it), and both seed
// a column's sum by assignment before adding, so their outputs are
// bitwise-identical — the per-row choice is a pure performance decision,
// and the whole kernel matches a reference dense-accumulator multiply
// bit for bit (asserted by tests/spmv/test_spgemm.cc).
//
// Parallelism: A's blocking plan is cut into row-aligned bands
// (make_row_bands) and fanned out over the work-stealing band runner.
// Tasks own disjoint C row ranges and each row is produced by exactly one
// task, so output is bitwise-identical serial vs parallel for any worker
// count and steal order. B is a decoded operand (Gustavson needs random
// row access); decode it once up front — the caller owns that pass, so a
// ledger run window around spgemm() sees only A's decode chain and stays
// conservation-checkable (kernel.in == A bytes decoded in-window).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "codec/container_source.h"
#include "codec/container_writer.h"
#include "codec/pipeline.h"
#include "sparse/formats.h"

namespace recode::spmv {

struct SpgemmConfig {
  // Worker threads for the band fan-out (0 = hardware_concurrency,
  // 1 = inline serial on the calling thread).
  std::size_t threads = 1;
  // Band granularity over A's blocking plan (make_row_bands target).
  std::size_t blocks_per_band = 8;
  // Rows whose expanded product count is at most this use the sort-based
  // merge accumulator; larger rows use the dense accumulator. The
  // per-block BlockStats shift the cut: dense-run blocks (fraction of
  // unit column gaps > 1/2) halve it, scattered blocks (mean |gap| > 64)
  // double it.
  std::size_t merge_max_products = 48;
};

struct SpgemmStats {
  std::uint64_t rows_dense = 0;      // rows through the dense accumulator
  std::uint64_t rows_merge = 0;      // rows through the sort-based merge
  std::uint64_t products = 0;        // expanded a_ik * b_kj multiplies
  std::uint64_t a_blocks_decoded = 0;
  std::uint64_t a_compressed_bytes = 0;  // A payload + codec-id bytes
  std::size_t tasks = 0;             // bands scheduled
  std::size_t workers = 0;           // threads that ran (1 = inline)
  std::uint64_t steals = 0;
};

// C = A * B over A's decoded-block stream. `a_source` serves A's
// compressed bytes (lease protocol per band); pass nullptr to read the
// resident cm.blocks. Requires b.rows == a.cols. Throws recode::Error on
// corrupt streams (decode faults, out-of-range indices).
sparse::Csr spgemm(const codec::CompressedMatrix& a,
                   std::shared_ptr<codec::ContainerSource> a_source,
                   const sparse::Csr& b, const SpgemmConfig& cfg = {},
                   SpgemmStats* stats = nullptr);

// Resident convenience overload.
sparse::Csr spgemm(const codec::CompressedMatrix& a, const sparse::Csr& b,
                   const SpgemmConfig& cfg = {}, SpgemmStats* stats = nullptr);

// Computes C = A * B and writes it straight to an .rcm container through
// the two-pass streaming writer, so the compressed result never exists as
// a CompressedMatrix in RAM. The writer encodes C's blocks on
// cfg.threads workers — the same count as the SpGEMM team, which is idle
// by then — so the call never runs more threads than cfg.threads (plus
// an out-of-core source's IO thread). The file is byte-identical to
// compress(C, out_cfg) + write_compressed_file with the index appended,
// for every thread count (the write_compressed_stream contract; kSingle
// configs only).
codec::StreamWriteResult spgemm_to_container(
    const std::string& path, const codec::CompressedMatrix& a,
    std::shared_ptr<codec::ContainerSource> a_source, const sparse::Csr& b,
    const codec::PipelineConfig& out_cfg, const SpgemmConfig& cfg = {},
    SpgemmStats* stats = nullptr);

}  // namespace recode::spmv
