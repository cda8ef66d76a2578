// The paper's matrix compression pipeline: blocked CSR streams compressed
// with Delta -> Snappy -> Huffman (§III-D, §IV-B).
//
// The col_idx and val arrays are split into blocks covering a common nnz
// range (sparse::Blocking). Index blocks are optionally delta-transformed,
// then both streams pass through Snappy and finally Huffman with one
// per-matrix table per stream, trained on a sampled fraction of the
// Snappy-compressed blocks (the paper samples up to 40% of blocks).
//
// row_ptr stays uncompressed: it is O(rows) not O(nnz) and the paper's
// 12 B/nnz baseline convention excludes it on both sides of the metric.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/huffman.h"
#include "sparse/blocked.h"
#include "sparse/formats.h"

namespace recode::codec {

// Per-stream pre-transform applied before Snappy/Huffman.
enum class Transform : std::uint8_t {
  kNone,
  kDelta32,        // fixed-width zigzag first differences (the paper's Delta)
  kVarintDelta,    // LEB128 zigzag deltas (§VII custom-encoding direction)
  kByteTranspose,  // plane-major regrouping of 8-byte records (value streams)
};

const char* transform_name(Transform t);

// Stable one-byte block codec identifier (packed field code, see
// codec/registry.h). Recorded per block in container v2 and dispatched
// on by every decode engine.
using CodecId = std::uint8_t;

// How the encoder picks each block's codec.
enum class CodecSelection : std::uint8_t {
  kSingle,      // every block uses the config's pipeline (the v1 behavior)
  kHeuristic,   // per-block pick from sparse/stats.h block statistics
  kExhaustive,  // per-block trial-encode of candidate_codecs(), min bytes
};

const char* codec_selection_name(CodecSelection s);

struct PipelineConfig {
  Transform index_transform = Transform::kDelta32;  // on the col_idx stream
  Transform value_transform = Transform::kNone;     // (ablation only)
  bool snappy = true;
  bool huffman = true;
  // Per-block adaptive codec selection (codec/registry.h). kSingle keeps
  // the paper's one-pipeline-per-matrix behavior bit-for-bit.
  CodecSelection selection = CodecSelection::kSingle;
  std::size_t nnz_per_block = sparse::kDefaultNnzPerBlock;  // 1024 => 8 KB value blocks
  double huffman_sample_fraction = 0.4;  // fraction of blocks used to train
  std::uint64_t sample_seed = 1;

  // Paper configurations.
  static PipelineConfig udp_dsh();      // Delta-Snappy-Huffman, 8 KB blocks
  static PipelineConfig udp_ds();       // Delta-Snappy, 8 KB blocks
  static PipelineConfig cpu_snappy();   // Snappy only, 32 KB blocks (CPU baseline)
  // §VII custom encoding: varint-delta indices + Snappy + Huffman.
  static PipelineConfig udp_vsh();
  // Per-block adaptive trial-encode on top of the DSH stages — the
  // configuration that moves the fig10/fig11 frontier.
  static PipelineConfig udp_adaptive();
};

struct CompressedBlock {
  Bytes index_data;
  Bytes value_data;

  std::size_t bytes() const { return index_data.size() + value_data.size(); }
};

// Per-stage byte totals across all blocks (for the codec-stage ablation).
struct StageSizes {
  std::size_t raw = 0;
  std::size_t after_snappy = 0;   // == raw when snappy disabled
  std::size_t after_huffman = 0;  // == after_snappy when huffman disabled
};

// Encoder selection accounting: what the adaptive pass saved over the
// single-pipeline baseline (same stages, same tables) on this matrix.
struct SelectionStats {
  std::size_t baseline_bytes = 0;  // sum of per-block baseline-codec bytes
  std::size_t adaptive_bytes = 0;  // sum of per-block winning-codec bytes
  std::size_t switched_blocks = 0; // blocks whose winner != baseline codec
};

// A fully compressed matrix plus everything needed to decompress it.
struct CompressedMatrix {
  sparse::index_t rows = 0;
  sparse::index_t cols = 0;
  std::vector<sparse::offset_t> row_ptr;  // kept raw
  sparse::Blocking blocking;
  PipelineConfig config;
  std::shared_ptr<const HuffmanTable> index_table;  // null if !huffman
  std::shared_ptr<const HuffmanTable> value_table;
  std::vector<CompressedBlock> blocks;
  // One CodecId per block (codec/registry.h). Empty means uniform: every
  // block uses the config's pipeline (hand-built matrices, pre-registry
  // callers); compress() and read_compressed() always populate it.
  std::vector<CodecId> block_codecs;
  StageSizes index_stages;
  StageSizes value_stages;
  SelectionStats selection_stats;

  std::size_t nnz() const {
    return row_ptr.empty() ? 0 : static_cast<std::size_t>(row_ptr.back());
  }

  // Block b's codec id: the recorded per-block id, or the uniform id the
  // config implies when block_codecs is empty.
  CodecId block_codec_id(std::size_t b) const;

  // Bytes streamed from memory per SpMV pass: compressed blocks, their
  // per-block codec-id bytes, plus the (tiny) Huffman tables. Excludes
  // row_ptr, matching the 12 B/nnz baseline convention.
  std::size_t stream_bytes() const;

  // The paper's headline metric.
  double bytes_per_nnz() const {
    return nnz() == 0 ? 0.0
                      : static_cast<double>(stream_bytes()) /
                            static_cast<double>(nnz());
  }
};

// Compresses a CSR matrix with the given pipeline.
CompressedMatrix compress(const sparse::Csr& csr, const PipelineConfig& cfg);

// Decompresses block b into caller-provided buffers (resized to the block's
// nnz count). Routed through the fast decode path (fast_decode.h) over a
// thread-local DecodeArena, so steady-state calls reuse capacity instead
// of allocating per stage.
void decompress_block(const CompressedMatrix& cm, std::size_t b,
                      std::vector<sparse::index_t>& indices,
                      std::vector<double>& values);

// The pre-fast-path implementation: per-stage Bytes allocations and the
// scalar reference decoders. Kept as the behavioral reference the
// fast-decode differential suite and benches compare against.
void decompress_block_reference(const CompressedMatrix& cm, std::size_t b,
                                std::vector<sparse::index_t>& indices,
                                std::vector<double>& values);

class DecodeArena;  // arena.h

// A block decoded into arena-owned memory. The spans alias the `out`
// arena's index/value slabs and stay valid until the next decode into the
// same arena (the in-flight-slab contract StreamingExecutor relies on).
struct DecodedBlock {
  std::span<const sparse::index_t> indices;
  std::span<const double> values;
};

// Allocation-free block decode: stage intermediates ping-pong between the
// scratch arena's two slabs, the final stage of each stream lands
// directly in the out arena's index/value slab. Once both arenas have
// warmed to the matrix's largest block, decoding performs zero heap
// allocations. Bitwise-identical to decompress_block_reference, including
// thrown recode::Errors on malformed streams.
DecodedBlock decompress_block_fast(const CompressedMatrix& cm, std::size_t b,
                                   DecodeArena& scratch, DecodeArena& out);

// Same decode, but with the block's compressed streams supplied by the
// caller instead of read from cm.blocks — the out-of-core path, where
// payload bytes live in an mmap'd view or a pooled read window and
// cm carries only the header-side metadata (blocking plan, codec ids,
// tables; cm.blocks may be empty). Bitwise-identical to the resident
// overload for the same bytes.
DecodedBlock decompress_block_fast(const CompressedMatrix& cm, std::size_t b,
                                   ByteSpan index_data, ByteSpan value_data,
                                   DecodeArena& scratch, DecodeArena& out);

// Full round-trip back to CSR (tests / CPU-side decompression baseline).
sparse::Csr decompress(const CompressedMatrix& cm);

// Inverts one Transform on a byte buffer (the reference decoders).
Bytes invert_transform(Transform t, ByteSpan encoded);

}  // namespace recode::codec
