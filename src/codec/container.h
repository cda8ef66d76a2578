// On-disk container for compressed matrices (".rcm").
//
// Persists everything decompress() needs: dimensions, pipeline config,
// the trained Huffman tables, the (varint-delta coded) row_ptr, and the
// per-block compressed streams. Compress once offline, mmap/stream at
// run time — the deployment model the paper assumes (matrices are
// compressed ahead of time; only decompression is on the critical path).
//
// Layout v2 (little-endian) — written by write_compressed:
//   magic "RCM1" | u32 version (= 2)
//   i32 rows | i32 cols | u64 nnz_per_block
//   u8 index_transform | u8 value_transform | u8 snappy | u8 huffman
//   u8 selection                      (CodecSelection; new in v2)
//   f64 huffman_sample_fraction | u64 sample_seed
//   varint row count, then varint deltas of row_ptr
//   [if huffman] 128 B index table | 128 B value table
//   varint block count, then per block:
//     u8 codec_id                     (registry packed id; new in v2)
//     varint index bytes | data | varint value bytes | data
//
// v1 (version = 1) lacks the selection byte and the per-block codec-id
// byte: every block implicitly uses the config's single pipeline.
// read_compressed still accepts v1 and synthesizes the uniform
// block_codecs vector, so pre-registry .rcm files keep loading bitwise
// (the golden-fixture regression test pins this).
//
// Per-block codec ids are validated on read through the registry gate
// (codec/registry.h): reserved bits, out-of-range fields, or a
// huffman-stage id in a container without tables throw recode::Error
// with the same messages the decode engines use.
//
// Block-offset index (optional, written by write_compressed with
// with_index = true): read_compressed stops after the last block
// record and ignores trailing bytes, so the index appends without a
// version bump. Layout, immediately after the block records:
//   u64 offsets[block_count + 1]    absolute file offsets; offsets[b]
//                                   is the start of record b (its
//                                   codec-id byte), offsets[count] is
//                                   the start of this index section
//   u8  codec_ids[block_count]
// then a 16-byte footer terminating the file:
//   u64 index_offset | char magic[8] = "RCMXIDX1"
// Out-of-core sources locate any block's compressed extent from the
// index without scanning; files without a footer get the index
// reconstructed by a single forward scan of the record framing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "codec/pipeline.h"

namespace recode::codec {

inline constexpr std::uint32_t kContainerVersionV1 = 1;
inline constexpr std::uint32_t kContainerVersion = 2;

inline constexpr char kIndexFooterMagic[8] = {'R', 'C', 'M', 'X',
                                              'I', 'D', 'X', '1'};
inline constexpr std::size_t kIndexFooterBytes = 16;

// Where every block record lives in the container file. offsets has
// block_count + 1 entries (offsets[b] = file position of record b's
// codec-id byte; the final entry is one past the last record, i.e. the
// index section start when the file carries one).
struct BlockIndex {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint8_t> codec_ids;
  bool from_footer = false;  // false = reconstructed by scanning

  std::size_t block_count() const { return codec_ids.size(); }
  std::uint64_t extent_bytes(std::size_t b) const {
    return offsets[b + 1] - offsets[b];
  }
};

// Header-only view of a container: everything read_compressed parses
// except the block payloads (matrix.blocks stays empty; block_codecs
// and blocking are populated), plus the block-offset index. This is
// what an out-of-core ContainerSource opens — O(header + index) memory
// regardless of matrix size.
struct ContainerLayout {
  CompressedMatrix matrix;
  BlockIndex index;
  std::uint32_t version = kContainerVersion;
  std::uint64_t file_size = 0;
  std::uint64_t block_section_offset = 0;
};

// The header section shared by write_compressed and the streaming
// writer (container_writer.h): magic through the Huffman tables, i.e.
// everything before the varint block count.
void write_container_header(std::ostream& out, const CompressedMatrix& cm);

// with_index appends the block-offset index + footer after the block
// records (requires a seekable output stream). The default keeps the
// historical byte-exact layout.
void write_compressed(std::ostream& out, const CompressedMatrix& cm,
                      bool with_index = false);
// Rewrites `path` in place through the FileSink (file_sink.h), with the
// failure contract of write_compressed_stream (container_writer.h).
void write_compressed_file(const std::string& path, const CompressedMatrix& cm,
                           bool with_index = false);

// Throws recode::Error on bad magic, version, or truncation.
// read_compressed_file reports `path` in every error message.
CompressedMatrix read_compressed(std::istream& in);
CompressedMatrix read_compressed_file(const std::string& path);

// Parses the header and locates every block without reading payloads.
// Uses the footer index when present (validating offsets against the
// file size and monotonicity), otherwise reconstructs it by scanning
// the record framing. Requires a seekable stream; throws recode::Error
// on any corruption. The _file variant reports `path` in errors.
ContainerLayout read_container_layout(std::istream& in);
ContainerLayout read_container_layout_file(const std::string& path);

}  // namespace recode::codec
