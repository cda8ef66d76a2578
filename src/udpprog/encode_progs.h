// Forward (compression-side) UDP programs: delta encode and Huffman
// encode. Together with snappy_encode_prog.h these close the loop — the
// whole Delta-Snappy-Huffman pipeline runs on the simulated accelerator
// in both directions, which is what "programmable recoding engine" means
// (§III-D: new representations are software for the UDP, invisible to
// the CPU).
//
// Register conventions (shared with the decode programs):
//   R1 (in)  element count (words for delta, bytes for huffman)
//   R5 (out) one past the last output byte
// Delta encode writes at scratch offset 0; Huffman encode writes at
// kEncodeOutBase so the (potentially expanding) bitstream cannot collide
// with anything staged below it.
#pragma once

#include "codec/huffman.h"
#include "udp/lane.h"
#include "udp/program.h"

namespace recode::udpprog {

inline constexpr int kEncodeCountReg = 1;
inline constexpr int kEncodeOutReg = 5;
inline constexpr std::uint64_t kEncodeOutBase = 32 * 1024;

// Zigzag first-difference over LE32 words (inverse of delta_prog).
// Input: raw words on the stream. Output: encoded words at offset 0.
udp::Program build_delta_encode_program();

// Canonical-Huffman bit packing with the table baked into the dispatch
// arcs (inverse of huffman_prog). Input: raw bytes on the stream.
// Output at kEncodeOutBase: varint(count) + MSB-first bitstream — one
// single-stream lane of a codec payload.
udp::Program build_huffman_encode_program(const codec::HuffmanTable& table);

// Huffman-encodes raw on the lane simulator: `layout` (of a
// build_huffman_encode_program) runs once per lane over that lane's
// symbols, and the host strips each lane's count and assembles the frame
// — byte-identical to codec::HuffmanCodec::encode.
codec::Bytes udp_huffman_encode(const udp::Layout& layout,
                                codec::ByteSpan raw);

}  // namespace recode::udpprog
