// From-scratch implementation of the Snappy compression format
// (https://github.com/google/snappy/blob/master/format_description.txt).
//
// The paper uses Google Snappy 1.1.3 as both the CPU baseline compressor
// (32 KB blocks) and one stage of the UDP pipeline (8 KB blocks). No
// snappy library is available offline, and the UDP port needs the format
// implemented explicitly anyway, so this is a complete format-compatible
// encoder/decoder:
//   * preamble: uncompressed length as LEB128 varint
//   * literal tags (00) with 6-bit or 1-4 extra-byte lengths
//   * copy tags: 1-byte offset (01, len 4-11, 11-bit offset),
//     2-byte offset (10, len 1-64), 4-byte offset (11)
// The encoder uses the standard greedy hash-table matcher (min match 4,
// 64 KB window) — the same algorithmic shape as the reference encoder.
//
// Like the reference encoder it accelerates through misses: a counter
// `skip` starts at 128 and the scan advances `skip++ >> 7` bytes after
// each probe that finds no match. The first 128 misses since the last
// match step one byte each, the next 128 two bytes, then three, and so
// on; every emitted match resets the step to one byte. Incompressible
// input (random doubles, such as an SpGEMM product's value stream) is
// probed at about 1 byte in 6 of an 8 KB block instead of at every
// byte. Compressible input rarely misses 128 times in a row and encodes
// byte for byte as it would without the heuristic. Matches that fall
// between the probes of a long miss run are lost: on the repository's
// workloads the output moves by under 0.1% either way (the reference's
// start value of 32 moves one FEM matrix by +0.7%).
//
// snappy_encode is the one encoder: it writes into a caller buffer sized
// by snappy_max_encoded_length and takes its match table from an
// EncodeArena (arena.h), so a warmed arena encodes without allocating or
// re-zeroing. SnappyCodec::encode is a one-shot wrapper over it.
#pragma once

#include "codec/codec.h"

namespace recode::codec {

class EncodeArena;  // arena.h

// Bound on snappy_encode's output for an n-byte input: every literal run
// costs at most 3 tag bytes per 64 KB, and each one but the last is
// followed by a copy that saves at least one byte (the reference
// implementation's MaxCompressedLength).
inline std::size_t snappy_max_encoded_length(std::size_t n) {
  return 32 + n + n / 6;
}

// Encodes `input` into dst (room for snappy_max_encoded_length bytes)
// and returns the encoded size. Throws recode::Error if the input
// exceeds the format's 2^32 - 1 bytes.
std::size_t snappy_encode(ByteSpan input, std::uint8_t* dst,
                          EncodeArena& arena);

class SnappyCodec final : public Codec {
 public:
  std::string name() const override { return "snappy"; }

  // snappy_encode through a fresh arena.
  Bytes encode(ByteSpan input) const override;

  // Throws recode::Error on any malformed stream (bad varint, copy before
  // start, overrun).
  Bytes decode(ByteSpan input) const override;

  // Decoded length announced by the preamble without decompressing.
  static std::size_t decoded_length(ByteSpan input);
};

}  // namespace recode::codec
