// Streaming container writer: compresses a matrix of arbitrary size to
// an .rcm file with O(row_ptr + two windows of blocks) resident memory —
// the producer that makes ≥1e8-nnz out-of-core runs possible without
// ever materializing the CSR (let alone the compressed matrix) in RAM.
//
// The caller describes the matrix by its row_ptr and a block-filler
// callback that writes the raw col_idx/value streams of one block on
// demand. The writer replays compress()'s two-pass kSingle pipeline —
// pass 1 samples blocks (same Prng sequence) to train the Huffman
// tables, pass 2 encodes and appends each record — so for identical
// input the file is byte-identical to compress() + write_compressed()
// with the index appended. The block-offset index is always written.
//
// Parallel encode: both passes fan their blocks out over a BandRunner
// (band_runner.h) through the one per-block encoder, encode_block
// (registry.h). Each worker owns an EncodeArena (arena.h) for the whole
// write, so once warm a block encode allocates nothing: under a single
// malloc arena, per-block heap traffic would serialize the workers on
// the allocator lock. Pass 1 histograms each sampled block's pre-Huffman
// streams straight from the arena, into the worker's own histograms,
// summed afterwards (integer sums, so the tables do not depend on the
// schedule). Pass 2 encodes a bounded window of blocks per run into
// per-slot records.
//
// The file is rewritten in place through the one FileSink (file_sink.h)
// that write_compressed_file also writes through. The caller opens it
// before pass 1, which zeroes the old file's magic and truncates nothing.
// Appends run as tasks on the same team, overlapping the encodes instead
// of running on the caller between runs: window k + 1's run carries one
// extra I/O task, first in its order so the first claim takes it, that
// appends window k's records while the run encodes its own. The slots
// are double-buffered, window k + 1 encoding into one set while the
// other, window k's, is appended. The caller writes only the header (once the
// tables are built), the last window's records and the index. Records are
// appended in block order and their offsets are counted, not read back
// from the file, so the file is byte-identical for every thread count.
//
// What a rewrite leaves at the path:
//   - on success, exactly the new container: the file is trimmed to the
//     counted end (its size is checked), so a shorter container written
//     over a longer one leaves no stale tail, and the magic is written
//     last;
//   - on any failure (a filler error, a storage fault) or a process that
//     dies mid-write, a file whose magic is zero, so every reader rejects
//     it with "rcm: bad magic (file: <path>)" instead of parsing a mix of
//     old and new bytes;
//   - after power loss, no guarantee: that needs an fsync, which the
//     writers do not do.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "codec/pipeline.h"

namespace recode::codec {

// Fills the raw (pre-transform) streams of block `b`, which covers the
// nnz range [first_nnz, first_nnz + indices.size()). Called once per
// pass for each block the pass encodes (pass 1 visits only the sampled
// blocks, and only when the config trains Huffman tables). Must be
// deterministic: both passes must produce the same bytes. With
// threads > 1 it is called concurrently for distinct blocks, from the
// writer's worker threads, so it must be thread-safe.
using BlockFiller =
    std::function<void(std::size_t b, std::uint64_t first_nnz,
                       std::span<sparse::index_t> indices,
                       std::span<double> values)>;

struct StreamWriteResult {
  std::size_t block_count = 0;
  std::uint64_t file_bytes = 0;     // total container size incl. index
  std::uint64_t payload_bytes = 0;  // compressed block payloads only
};

// Writes the container for a matrix with the given shape, encoding on
// `threads` workers (0 = hardware_concurrency, 1 = inline on the calling
// thread; never more than there are blocks). Only
// CodecSelection::kSingle configs are supported (per-block trial
// encoding needs all candidates in memory; the out-of-core producer
// path doesn't); any other config is rejected before a thread starts.
// Throws recode::Error on a non-kSingle config (before the file is
// opened), "rcm: cannot open for write: <path>" or "rcm: write failed:
// <path>" on a storage fault, and rethrows on the calling thread the
// first error the filler throws.
StreamWriteResult write_compressed_stream(
    const std::string& path, sparse::index_t rows, sparse::index_t cols,
    std::span<const sparse::offset_t> row_ptr, const PipelineConfig& cfg,
    const BlockFiller& fill, std::size_t threads = 1);

}  // namespace recode::codec
