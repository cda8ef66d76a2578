// Varint-delta index transform — a "customized encoding on top of CSR"
// of the kind the paper's future work proposes (§VII) and the UDP's
// variable-size-symbol support exists for (§III-E).
//
// Column indices are zigzag first-differences like DeltaCodec, but
// emitted as LEB128 varints instead of fixed 32-bit words: banded and
// FEM matrices whose deltas fit 7 bits shrink ~4x *before* Snappy ever
// runs. Unlike the fixed-width delta, this transform changes the stream
// size by itself — the programmable-recoding win the paper argues no
// hard-wired CPU format gives you.
#pragma once

#include "codec/codec.h"

namespace recode::codec {

// Bound on varint_delta_encode's output: 5 bytes per 32-bit word.
inline std::size_t varint_delta_max_encoded_length(std::size_t n) {
  return n / 4 * 5;
}

// The encoder: writes at most varint_delta_max_encoded_length bytes to
// dst and returns the count. Throws recode::Error unless input.size() is
// a multiple of 4.
std::size_t varint_delta_encode(ByteSpan input, std::uint8_t* dst);

class VarintDeltaCodec final : public Codec {
 public:
  std::string name() const override { return "varint-delta32"; }

  // input.size() must be a multiple of 4 (LE32 words). Output: one LEB128
  // varint per word holding zigzag(word[i] - word[i-1]) (mod 2^32)
  // (varint_delta_encode into a fresh buffer).
  Bytes encode(ByteSpan input) const override;

  // Decodes until the input is exhausted; output is LE32 words. Throws on
  // truncated or overlong varints.
  Bytes decode(ByteSpan input) const override;
};

}  // namespace recode::codec
