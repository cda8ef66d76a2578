// Registry of named per-block codecs — the per-block adaptive frontier.
//
// Copernicus-style measurements show the compression-format win/loss
// flips with *block* structure, not matrix structure: a banded matrix
// still carries scattered fill-in blocks and a power-law graph still has
// dense diagonal runs. Because the UDP is programmable, switching the
// encoding per block costs one dispatch byte, not a hardware change —
// the paper's "encoding as a free variable" thesis taken to block
// granularity.
//
// Every combination of
//   * index transform   (none / fixed-width delta / varint-delta)
//   * value transform   (none / delta / varint-delta / byte-transpose)
//   * entropy stages    (Snappy on/off, Huffman on/off)
// gets a stable one-byte CodecId, recorded per block in the container v2
// layout (container.h) and dispatched on by every decode engine: the
// reference pipeline, the fast arena path, and the UDP BlockDecoder.
// Unknown ids (reserved bits, out-of-range fields) throw recode::Error
// from every engine with the same message — hostile containers must
// never abort or silently mis-decode.
//
// The id is a packed field code rather than a dense enumeration so that
// it is stable by construction: new transforms extend a field instead of
// renumbering the table.
//
//   bits 0-1  index transform (0 none, 1 delta32, 2 varint-delta)
//   bits 2-3  value transform (0 none, 1 delta32, 2 varint-delta,
//                              3 byte-transpose)
//   bit  4    snappy
//   bit  5    huffman
//   bits 6-7  reserved, must be zero
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codec/pipeline.h"

namespace recode::codec {

// One block codec: the stage chain a single block's two streams run
// through. The entropy stages apply to both streams; the transforms are
// per stream.
struct BlockCodec {
  Transform index_transform = Transform::kDelta32;
  Transform value_transform = Transform::kNone;
  bool snappy = true;
  bool huffman = true;

  bool operator==(const BlockCodec&) const = default;
};

// Packs a BlockCodec into its stable id. Total function: every
// representable BlockCodec has an id.
CodecId codec_id(const BlockCodec& c);

// Unpacks an id. Throws recode::Error on reserved bits or out-of-range
// field values — the single "unknown codec id" gate every decode engine
// shares.
BlockCodec codec_from_id(CodecId id);

// True when codec_from_id would succeed.
bool codec_id_valid(CodecId id);

// Stable human-readable name, e.g. "i:d32.v:bt+s+h" (used as the
// telemetry key suffix and in bench output).
std::string codec_name(CodecId id);

// The uniform id a single-pipeline config implies for every block.
CodecId codec_id_for(const PipelineConfig& cfg);

// Trial-encode candidate set for a matrix-level config, baseline id
// first. Entropy combinations never exceed the config's stages (a
// huffman candidate requires cfg.huffman so the trained tables exist);
// a stored (no-stage) fallback is always included so incompressible
// blocks cost raw size, never more.
std::vector<CodecId> candidate_codecs(const PipelineConfig& cfg);

// Looks up block b's codec and validates it against the matrix: unknown
// ids and huffman blocks without trained tables throw recode::Error.
// Every decode engine routes through this before touching the streams.
BlockCodec block_codec_checked(const CompressedMatrix& cm, std::size_t b);

// The byte-transposition value transform (Transform::kByteTranspose):
// treats the buffer as size/8 8-byte records (doubles) and regroups it
// plane-major — all byte-0s, then all byte-1s, ... — so the
// low-entropy sign/exponent planes of real-valued data form long runs
// Snappy and Huffman exploit. Any trailing size%8 bytes are appended
// verbatim. A pure permutation: always invertible, no error cases.
// The encoder writes raw.size() bytes to dst and returns that count.
std::size_t byte_transpose(ByteSpan raw, std::uint8_t* dst);
Bytes byte_transpose(ByteSpan raw);
Bytes byte_untranspose(ByteSpan encoded);

class EncodeArena;  // arena.h

// A block's two streams after the pre-Huffman stages (transform, then
// Snappy when on), aliasing the arena's slabs or, when no stage runs,
// the input itself. Valid until the next encode through the same arena.
struct MidStreams {
  ByteSpan index;
  ByteSpan value;
};

// The pre-Huffman half of encode_block (c.huffman is ignored): the
// streams the Huffman tables are trained on.
MidStreams encode_mid(std::span<const sparse::index_t> indices,
                      std::span<const double> values, const BlockCodec& c,
                      EncodeArena& arena);

// Encodes one block's streams under codec `c` into `out` — the one
// per-block encoder behind compress(), its selection trials and the
// streamed writer — and feeds the codec.encode.{transform,snappy,huffman}
// stage metrics. `out`'s buffers are overwritten but keep their
// capacity, so a warmed arena and a reused `out` make the encode
// allocation-free. The tables may be null when !c.huffman.
// `after_snappy` (nullable, 2 elements: index, value) receives the
// per-stream sizes before the Huffman stage, for the StageSizes
// accounting. Thread-safe for distinct arenas and outputs: it touches no
// other shared state but the (atomic) telemetry counters.
void encode_block(std::span<const sparse::index_t> indices,
                  std::span<const double> values, const BlockCodec& c,
                  const HuffmanTable* index_table,
                  const HuffmanTable* value_table, EncodeArena& arena,
                  CompressedBlock& out, std::size_t* after_snappy = nullptr);

}  // namespace recode::codec
