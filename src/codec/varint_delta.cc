#include "codec/varint_delta.h"

#include <cstring>

#include "common/error.h"
#include "common/varint.h"

namespace recode::codec {

namespace {

std::uint32_t zigzag32(std::uint32_t d) {
  return (d << 1) ^ static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(d) >> 31);
}

std::uint32_t unzigzag32(std::uint32_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

}  // namespace

std::size_t varint_delta_encode(ByteSpan input, std::uint8_t* dst) {
  if (input.size() % 4 != 0) {
    fail("varint-delta32: input not a multiple of 4 bytes");
  }
  std::uint8_t* op = dst;
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < input.size(); i += 4) {
    std::uint32_t v;
    std::memcpy(&v, input.data() + i, 4);
    op += varint_store(op, zigzag32(v - prev));
    prev = v;
  }
  return static_cast<std::size_t>(op - dst);
}

Bytes VarintDeltaCodec::encode(ByteSpan input) const {
  Bytes out(varint_delta_max_encoded_length(input.size()));
  out.resize(varint_delta_encode(input, out.data()));
  return out;
}

Bytes VarintDeltaCodec::decode(ByteSpan input) const {
  Bytes out;
  out.reserve(input.size() * 2);
  std::uint32_t acc = 0;
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::uint64_t z = varint_read(input.data(), input.size(), pos);
    if (z > 0xFFFFFFFFull) fail("varint-delta32: delta exceeds 32 bits");
    acc += unzigzag32(static_cast<std::uint32_t>(z));
    const std::size_t n = out.size();
    out.resize(n + 4);
    std::memcpy(out.data() + n, &acc, 4);
  }
  return out;
}

}  // namespace recode::codec
