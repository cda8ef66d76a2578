// Canonical Huffman codec over bytes with externally-trained tables.
//
// The paper trains one Huffman tree per matrix by sampling up to 40% of
// its 8 KB blocks (§IV-B), then encodes every block with that shared tree.
// HuffmanTable captures that: build it from a histogram of sampled data,
// serialize it once per matrix, and use stateless encode/decode per block.
//
// Codes are canonical with lengths capped at kMaxCodeLen (15), so the
// table serializes as 256 4-bit lengths (128 bytes). Decoding uses two
// flat tables: a 2^15-entry single-symbol table that resolves any code
// (the same structure the UDP program's multi-way dispatch exploits), and
// a 2^11-entry, 8 KB table that resolves up to two short codes per probe
// and stays resident in L1 for the fast decoder (fast_decode.h).
//
// Payload frame. A payload of n > 0 symbols is split into kHuffmanLanes
// lanes: lane k holds symbols [k*q, min(n, (k+1)*q)) with q = ceil(n/4),
// each an independent MSB-first bit stream under the same table, so a
// decoder can walk all four at once. The frame is
//
//   0x00, varint(n), varint(len0), varint(len1), varint(len2),
//   lane0 bits, lane1 bits, lane2 bits, lane3 bits
//
// where lane 3 takes the bytes left after the first three. The empty
// payload is the single byte 0x00. Payloads written before lanes existed
// (v1/v2 containers) are one stream, varint(n) followed by its bits; the
// only one of those that starts with 0x00 is the one-byte empty payload,
// so the first byte tells the two forms apart and legacy payloads decode
// as a single lane. parse_huffman_frame is the one place that reads the
// header.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>

#include "codec/codec.h"

namespace recode::codec {

inline constexpr int kMaxCodeLen = 15;
inline constexpr int kFastTableBits = 11;
inline constexpr int kHuffmanLanes = 4;

class HuffmanTable {
 public:
  // Uniform-code table (all lengths 8): a valid fallback when no training
  // data is available.
  HuffmanTable();

  // Builds length-limited canonical codes from byte frequencies.
  // Zero-frequency symbols are smoothed to frequency 1 so blocks outside
  // the training sample always remain encodable.
  static HuffmanTable build(const std::array<std::uint64_t, 256>& histogram);

  // Histogram over a sample buffer, then build().
  static HuffmanTable train(ByteSpan sample);

  // 128-byte serialization (256 packed 4-bit code lengths).
  Bytes serialize() const;
  static HuffmanTable deserialize(ByteSpan data);

  std::uint16_t code(std::uint8_t symbol) const {
    return static_cast<std::uint16_t>(encode_[symbol] & 0xFFFF);
  }
  std::uint8_t length(std::uint8_t symbol) const { return lengths_[symbol]; }

  // Packed encode table: per symbol, the code in the low 16 bits and its
  // length above them, so the encoder reads both with one load.
  const std::uint32_t* encode_table() const { return encode_.data(); }

  // Average code length in bits under the given histogram (for tests and
  // the sampling ablation).
  double expected_bits(const std::array<std::uint64_t, 256>& histogram) const;

  // Flat decode table: index = next 15 bits of the stream (MSB-aligned),
  // value = {symbol, code length}.
  struct DecodeEntry {
    std::uint8_t symbol;
    std::uint8_t length;
  };
  const DecodeEntry* decode_table() const { return decode_.data(); }

  // Fast decode table: index = next kFastTableBits bits, value = the one
  // or two symbols whose whole codes fit in those bits. Symbol 2 is only
  // packed when its code fits in the bits left after symbol 1, so it is
  // fully determined by real stream bits and decoding the entry equals
  // two single-symbol lookups. count == 0 marks a window whose first code
  // is longer than kFastTableBits; the decoder then falls back to
  // decode_table().
  struct FastEntry {
    std::uint8_t symbols[2];  // valid: [0, count); rest zero
    std::uint8_t count;       // 0 (long code), 1 or 2
    std::uint8_t bits;        // total code bits of those symbols
  };
  const FastEntry* fast_table() const { return fast_.data(); }

  bool operator==(const HuffmanTable& other) const {
    return lengths_ == other.lengths_;
  }

 private:
  void assign_canonical_codes();
  void build_decode_table();

  std::array<std::uint8_t, 256> lengths_{};
  std::array<std::uint32_t, 256> encode_{};
  std::array<DecodeEntry, 1u << kMaxCodeLen> decode_{};
  std::array<FastEntry, 1u << kFastTableBits> fast_{};
};

// First symbol of lane k (0..kHuffmanLanes) in an n-symbol lane frame;
// lane k holds [huffman_lane_start(n, k), huffman_lane_start(n, k + 1)).
inline std::size_t huffman_lane_start(std::size_t n, int k) {
  const std::size_t q = n / kHuffmanLanes + (n % kHuffmanLanes != 0);
  return std::min(n, q * static_cast<std::size_t>(k));
}

// A payload's header, parsed and validated: where each lane's bits are
// and which output symbols they decode to.
struct HuffmanFrame {
  struct Lane {
    ByteSpan bits;       // the lane's MSB-first bit stream
    std::size_t first;   // output index of its first symbol
    std::size_t end;     // one past its last symbol
  };
  std::size_t count = 0;  // decoded byte count over all lanes
  int lanes = 0;          // kHuffmanLanes, or 1 for a legacy payload
  std::array<Lane, kHuffmanLanes> lane{};
};

// Parses either payload form. Throws recode::Error when a varint is
// truncated, the lane lengths run past the payload, or a lane declares
// more symbols than its bits can hold (every symbol takes at least one
// bit), so count is safe to size a destination with.
HuffmanFrame parse_huffman_frame(ByteSpan payload);

// Assembles the lane frame from n and the four lanes' bit streams (the
// one-byte empty payload when n == 0). The UDP encode program's lanes
// reach the frame through it.
Bytes write_huffman_frame(std::size_t n,
                          const std::array<Bytes, kHuffmanLanes>& lanes);

class EncodeArena;  // arena.h

// Encodes `input` as a lane frame into `out`, replacing its contents but
// keeping its capacity. Each lane is packed through a 64-bit accumulator
// straight into the arena's kLanes slab, back to back, so the frame is
// the header plus one copy. Once the arena and `out` have seen the
// largest payload, it allocates nothing.
void huffman_encode(const HuffmanTable& table, ByteSpan input, Bytes& out,
                    EncodeArena& arena);

// Stateless Huffman codec bound to a shared table, writing the lane frame
// above.
//
// encode() is huffman_encode through a fresh arena.
//
// decode() is the scalar reference implementation (one symbol per table
// lookup, byte-wise refill, lanes in order); the production hot path is
// fast::huffman_decode (fast_decode.h), which must stay bitwise-identical
// to it — the fast-decode differential suite enforces that.
class HuffmanCodec final : public Codec {
 public:
  explicit HuffmanCodec(std::shared_ptr<const HuffmanTable> table)
      : table_(std::move(table)) {}

  std::string name() const override { return "huffman"; }
  Bytes encode(ByteSpan input) const override;
  Bytes decode(ByteSpan input) const override;

  // Decoded byte count announced by the header (parse_huffman_frame)
  // without decoding.
  static std::size_t decoded_length(ByteSpan input);

  const HuffmanTable& table() const { return *table_; }

 private:
  std::shared_ptr<const HuffmanTable> table_;
};

}  // namespace recode::codec
