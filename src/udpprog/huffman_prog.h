// Canonical Huffman decode as a UDP program, specialized per table.
//
// This is the showcase for multi-way dispatch: the first level consumes
// 8 stream bits and dispatches 256 ways; prefixes that fully determine a
// (length <= 8) code emit their symbol directly, rewinding the over-read
// bits; longer codes fall through to a per-prefix second-level state that
// dispatches on 7 more bits (kMaxCodeLen = 15). Each emitted symbol loops
// through a count-check state. No comparisons, no branch prediction —
// dictionary decode as table walk, which is the workload the UDP was
// built for (§III-E: "80% cycle waste" on CPUs from dispatch branches).
//
// The program decodes one single-stream lane: varint(symbol count), then
// the MSB-first bit stream, the varint parsed in-program. A codec payload
// holds four such lanes behind a frame header (codec/huffman.h);
// udp_huffman_decode parses the frame on the host and runs the program
// once per lane.
// Register convention:
//   R5 (in)  scratchpad output base; (out) one past the last byte written
#pragma once

#include "codec/huffman.h"
#include "udp/lane.h"
#include "udp/program.h"

namespace recode::udpprog {

inline constexpr int kHuffmanOutReg = 5;

udp::Program build_huffman_decode_program(const codec::HuffmanTable& table);

// Decodes a parsed Huffman payload on the lane simulator: `layout` (of a
// build_huffman_decode_program) runs on varint(lane symbols) + the lane's
// bits for each lane in turn, and each lane's symbols land at their
// offset in dst, which holds frame.count bytes. Returns the lanes' summed
// cycles. Throws recode::Error on a malformed lane stream.
std::uint64_t udp_huffman_decode(const udp::Layout& layout,
                                 const codec::HuffmanFrame& frame,
                                 std::uint8_t* dst,
                                 const udp::LaneConfig& config = {});

}  // namespace recode::udpprog
