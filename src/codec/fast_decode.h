// Allocation-free, word-wise decoders for the per-block decode hot path.
//
// The paper's throughput claims (Fig 12/13: UDP-class decompression at
// >20 GB/s, ~7x CPU Snappy) assume the decompression inner loop is
// engineered to saturate bandwidth. These are the host-side equivalents:
//
//  * huffman_decode — the four lanes of a Huffman payload (huffman.h)
//    decoded in one interleaved loop: each lane keeps a 64-bit bit buffer
//    refilled with one unaligned 8-byte load, and a round refills all
//    four lanes, then probes each lane three times in turn, so four
//    independent lookup chains overlap instead of one serial chain. A
//    probe reads the 8 KB, L1-resident 11-bit table
//    (HuffmanTable::FastEntry) and emits up to 2 symbols, falling back to
//    the 15-bit decode_table() for longer codes. Each lane then finishes
//    alone with the same bulk rounds and a scalar tail; a legacy
//    single-stream payload is just one lane through that code.
//  * snappy_decode — 16-byte literal chunks and 8-byte match chunks into
//    a slop-margin destination; byte loop only near the input tail and
//    for overlapping short-offset copies.
//  * delta_decode / varint_delta_decode — the inverse transforms writing
//    straight into a caller-provided destination.
//
// All decode into caller-owned memory (a DecodeArena slab), never
// allocate, and are bitwise- and error-identical to the reference
// decoders in HuffmanCodec::decode / SnappyCodec::decode /
// DeltaCodec::decode / VarintDeltaCodec::decode: same output on valid
// streams, a recode::Error with the same message on the same malformed
// stream. The fast-decode differential suite (tests/robustness) enforces
// both properties, including over CorruptionEngine inputs under ASan.
#pragma once

#include <cstdint>

#include "codec/codec.h"
#include "codec/huffman.h"

namespace recode::codec::fast {

// Decodes a Huffman payload (either frame, see huffman.h) into dst, which
// must have room for the declared count — size it with
// HuffmanCodec::decoded_length. Lanes write only their own symbols, so no
// slop margin is needed. Returns the decoded byte count.
std::size_t huffman_decode(const HuffmanTable& table, ByteSpan input,
                           std::uint8_t* dst);

// The same, for a payload whose header the caller already parsed.
std::size_t huffman_decode(const HuffmanTable& table,
                           const HuffmanFrame& frame, std::uint8_t* dst);

// Decodes a Snappy stream into dst. dst must have room for the declared
// length plus kArenaSlop bytes — size it with SnappyCodec::decoded_length
// (which also bounds it against the format's maximum expansion). Returns
// the decoded byte count.
std::size_t snappy_decode(ByteSpan input, std::uint8_t* dst);

// Inverse 32-bit zigzag delta into dst (output size == input size; dst
// needs input.size() + kArenaSlop bytes). Returns the output size.
std::size_t delta_decode(ByteSpan input, std::uint8_t* dst);

// Inverse LEB128 zigzag delta into dst, which holds dst_cap usable bytes
// (+ kArenaSlop). The output size is data-dependent: decoding continues
// past dst_cap without writing (so parse errors surface exactly where the
// reference decoder would throw them) and the total is returned — the
// caller compares it against the expected stream size, mirroring the
// reference path's decode-then-size-check order.
std::size_t varint_delta_decode(ByteSpan input, std::uint8_t* dst,
                                std::size_t dst_cap);

// Inverse of codec::byte_transpose: gathers the 8 plane bytes of each
// 8-byte record with word-wise stores (output size == input size; dst
// needs input.size() + kArenaSlop bytes). Returns the output size. A pure
// permutation — no error cases, matching the reference byte_untranspose.
std::size_t byte_untranspose(ByteSpan input, std::uint8_t* dst);

}  // namespace recode::codec::fast
