// Compressed-domain SpGEMM: C = A * B with A streamed block-by-block
// from its compressed container (resident or out-of-core) — the
// sparse×sparse consumer of the decoded-block stream.
//
// The kernel is row-by-row Gustavson: for each row i of A, the rows of B
// selected by A's column indices are scaled and combined in one
// accumulator, a cols(B)-sized stamped dense array per worker. Each band
// task decodes its blocks of A once, then makes two sweeps over its rows:
//
//   count    a stamp-only sweep gives every row's C length, so the band's
//            slice of C is allocated once at its exact size;
//   fill     scatter-add every product in A-row entry order (a column's
//            sum is seeded by assignment), set one bit per newly touched
//            column in a cols/64-word bitmap, then emit the row's columns
//            in ascending order straight into the band's slice.
//
// Two emit orders, chosen per row by a fixed rule (no config field):
//
//   bitmap   walk the touched word range with count-trailing-zeros,
//            clearing each word as it is read. The usual case.
//   sorted   sort the row's touched-column list instead, when it holds
//            fewer than one column per 16 words of the range it spans
//            (a few columns far apart, e.g. rows hitting power-law hubs).
//
// Neither order changes a column's operation sequence, so C is bitwise
// identical to a reference dense-accumulator multiply (asserted by
// tests/spmv/test_spgemm.cc); the emit order is a pure performance choice.
//
// Parallelism: A's blocking plan is cut into row-aligned bands
// (make_row_bands) and fanned out over the work-stealing band runner.
// Tasks own disjoint C row ranges and each row is produced by exactly one
// task, so output is bitwise-identical serial vs parallel for any worker
// count and steal order. spgemm() stitches the row-ordered band slices
// into one Csr; spgemm_to_container() never builds C at all — the
// container writer copies each of C's blocks straight out of the band
// slices it overlaps. B is a decoded operand (Gustavson needs random row
// access); decode it once up front — the caller owns that pass, so a
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
};

struct SpgemmStats {
  // Non-empty C rows by emit order. The names predate the single
  // accumulator (benchmarks read them): rows_dense counts rows emitted by
  // the bitmap walk, rows_merge rows emitted from the sorted touched list.
  std::uint64_t rows_dense = 0;
  std::uint64_t rows_merge = 0;
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
// the two-pass streaming writer. C is never stitched into one Csr and
// its compressed form never exists whole in RAM: the writer's block
// filler copies each of C's blocks out of the band slices the kernel
// produced (a block may span several bands). The writer encodes C's
// blocks on cfg.threads workers — the same count as the SpGEMM team,
// which is idle by then — so the call never runs more threads than
// cfg.threads (plus
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
