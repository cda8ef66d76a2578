// LEB128 varint and zigzag codecs used by the delta codec and the
// Snappy-format preamble.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace recode {

// Zigzag-maps a signed value to unsigned so small-magnitude deltas (positive
// or negative) produce small varints.
constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// Appends v as LEB128 (7 bits per byte, MSB = continuation).
inline void varint_append(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

// Writes v as LEB128 to dst, which has room for kMaxVarintBytes, and
// returns the byte count (the same bytes varint_append emits).
inline std::size_t varint_store(std::uint8_t* dst, std::uint64_t v) {
  std::size_t n = 0;
  while (v >= 0x80) {
    dst[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  dst[n++] = static_cast<std::uint8_t>(v);
  return n;
}

// Decodes a LEB128 varint from data[pos...], advancing pos.
// Throws recode::Error on truncation or overlong (>10 byte) encodings.
inline std::uint64_t varint_read(const std::uint8_t* data, std::size_t size,
                                 std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos >= size) fail("varint: truncated stream");
    if (shift >= 64) fail("varint: overlong encoding");
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

// Number of bytes varint_append would emit for v.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace recode
