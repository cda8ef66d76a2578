#include "codec/delta.h"

#include <cstring>

#include "common/error.h"


namespace recode::codec {

namespace {

std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;  // host is little-endian (x86); format is LE by definition
}

void store_le32(Bytes& out, std::uint32_t v) {
  const std::size_t n = out.size();
  out.resize(n + 4);
  std::memcpy(out.data() + n, &v, 4);
}

}  // namespace

namespace {

// 32-bit zigzag over wrap-around deltas: any int32 sequence round-trips
// because both the difference and the prefix sum are taken mod 2^32.
std::uint32_t zigzag32(std::uint32_t d) {
  return (d << 1) ^ static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(d) >> 31);
}

std::uint32_t unzigzag32(std::uint32_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

}  // namespace

std::size_t delta_encode(ByteSpan input, std::uint8_t* dst) {
  if (input.size() % 4 != 0) fail("delta32: input not a multiple of 4 bytes");
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < input.size(); i += 4) {
    const std::uint32_t v = load_le32(input.data() + i);
    const std::uint32_t z = zigzag32(v - prev);
    std::memcpy(dst + i, &z, 4);
    prev = v;
  }
  return input.size();
}

Bytes DeltaCodec::encode(ByteSpan input) const {
  Bytes out(input.size());
  delta_encode(input, out.data());
  return out;
}

Bytes DeltaCodec::decode(ByteSpan input) const {
  if (input.size() % 4 != 0) fail("delta32: input not a multiple of 4 bytes");
  Bytes out;
  out.reserve(input.size());
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < input.size(); i += 4) {
    acc += unzigzag32(load_le32(input.data() + i));
    store_le32(out, acc);
  }
  return out;
}

}  // namespace recode::codec
