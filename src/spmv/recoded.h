// Recoding-enhanced SpMV (the paper's Fig 7 tiled loop).
//
// The matrix lives in memory compressed; each block of col_idx/val is
// decompressed on the fly — by the software codecs (fast functional mode)
// or by the UDP cycle simulator (full-fidelity mode) — and the unchanged
// CSR multiply runs over the recovered streams. This is the functional
// proof that the heterogeneous architecture computes the right answer;
// the performance numbers come from core::HeterogeneousSystem on top.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "spmv/block_decoder.h"

namespace recode::spmv {

// The Fig 7 inner loop over one decoded block, for one right-hand side:
// the k = 1 case of accumulate_block_batch, which it forwards to.
void accumulate_block(const sparse::BlockRange& range,
                      std::span<const sparse::offset_t> row_ptr,
                      std::span<const sparse::index_t> indices,
                      std::span<const double> values,
                      std::span<const double> x, std::span<double> y);

// The one accumulate kernel: y += A_block * x for k right-hand sides, X
// cols x k and Y rows x k row-major (the spmm_csr layout). Defined once
// (recoded.cc) and shared by every engine (serial, streaming executor,
// band cache, SpMSpV) so all of them run the same emitted code — the
// basis of the bitwise parallel ≡ serial guarantee (identical addition
// order is not enough if two loops contract floating-point operations
// differently).
//
// Row segments: the block's nnz run splits where it crosses row_ptr
// boundaries. Each segment loads its row's partial sums from y into
// registers, adds v * x[col] in nnz order and stores them once at the
// segment's end; a row that spans blocks resumes from the partial sum
// in y. Every y element therefore sees exactly the additions, in the
// same order, of a loop that does `y[row] += v * x[col]` one nnz at a
// time, so the result is bitwise that loop's at every k, thread count
// and block split.
//
// Tile ladder: the k columns are covered by column tiles of fixed width
// — 16 while 16 columns remain, then at most one each of 8, 4, 2 and 1 —
// chosen once per block, so k = 3 walks the block twice (2 + 1) and
// k = 16 once. Tiles own disjoint columns, so the split changes no bits.
void accumulate_block_batch(const sparse::BlockRange& range,
                            std::span<const sparse::offset_t> row_ptr,
                            std::span<const sparse::index_t> indices,
                            std::span<const double> values,
                            std::span<const double> x, std::span<double> y,
                            int k);

class RecodedSpmv {
 public:
  // Resident matrix: blocks are served by codec::make_resident_source.
  explicit RecodedSpmv(const codec::CompressedMatrix& cm,
                       DecodeEngine engine = DecodeEngine::kSoftware);

  // Out-of-core variant: compressed streams come from `source` instead
  // of cm.blocks (which may be empty — a header-only matrix from
  // codec::open_container); null means cm.blocks. The serial loop is a
  // BlockStream::walk: it leases a fixed-size chunk of blocks at a time
  // and prefetches the next chunk before decoding the current one, so
  // storage reads overlap decode even without threads. The UDP simulator
  // walks cm.blocks directly, so kUdpSimulated with an out-of-core source
  // throws recode::Error.
  RecodedSpmv(const codec::CompressedMatrix& cm,
              std::shared_ptr<codec::ContainerSource> source,
              DecodeEngine engine = DecodeEngine::kSoftware);

  // y = A*x, decompressing block by block. Overwrites y.
  void multiply(std::span<const double> x, std::span<double> y);

  // Y = A*X for k right-hand sides, row-major (X is cols x k, Y is
  // rows x k). Each block is decoded once and multiplied against all k
  // vectors, amortizing decode cost — the serial reference for the
  // streaming executor's SpMM mode. k == 1 is bitwise multiply().
  void multiply_batch(std::span<const double> x, std::span<double> y, int k);

  // Totals across all multiply() calls.
  std::uint64_t blocks_decoded() const { return stream_.totals().blocks; }
  std::uint64_t compressed_bytes_streamed() const {
    return stream_.totals().bytes;
  }
  // UDP lane cycles spent decoding (kUdpSimulated only).
  std::uint64_t udp_cycles() const { return stream_.totals().udp_cycles; }

  sparse::index_t rows() const { return cm_->rows; }
  sparse::index_t cols() const { return cm_->cols; }

 private:
  const codec::CompressedMatrix* cm_;
  // One worker; decodes into its own arenas, so after the first pass the
  // decode loop performs zero heap allocations and no output copy.
  BlockStream stream_;
};

}  // namespace recode::spmv
