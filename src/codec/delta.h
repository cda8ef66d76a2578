// First-difference (delta) transform over 32-bit little-endian integers.
//
// Used on the col_idx stream: within a CSR row the column indices are
// increasing, so deltas are small positive integers, and across banded /
// diagonal structures they repeat — exactly the redundancy Snappy's LZ
// matcher then exploits. As the paper notes (§IV-B), delta alone provides
// no size benefit (output size == input size); it only amplifies the
// downstream compressor.
#pragma once

#include "codec/codec.h"

namespace recode::codec {

// The encoder: writes input.size() bytes to dst and returns that count.
// Throws recode::Error unless input.size() is a multiple of 4.
std::size_t delta_encode(ByteSpan input, std::uint8_t* dst);

class DeltaCodec final : public Codec {
 public:
  std::string name() const override { return "delta32"; }

  // input.size() must be a multiple of 4. Output is the same size: the
  // first word verbatim, then zigzag(value[i] - value[i-1]) as LE32
  // (delta_encode into a fresh buffer).
  Bytes encode(ByteSpan input) const override;
  Bytes decode(ByteSpan input) const override;
};

}  // namespace recode::codec
