#include "common/bitio.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace recode {
namespace {

TEST(BitWriter, PacksMsbFirst) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0b01, 2);
  w.write(0b110, 3);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10101110);
}

TEST(BitWriter, PadsFinalByteWithZeros) {
  BitWriter w;
  w.write(0b11, 2);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b11000000);
}

TEST(BitWriter, TracksBitCount) {
  BitWriter w;
  w.write(0, 5);
  w.write(0, 11);
  EXPECT_EQ(w.bit_count(), 16u);
}

// The bit-at-a-time packer the word-wise writer replaced: the two must
// produce identical bytes for any sequence of writes.
std::vector<std::uint8_t> pack_bit_by_bit(
    const std::vector<std::pair<std::uint32_t, int>>& items) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t acc = 0;
  int nacc = 0;
  for (const auto& [value, nbits] : items) {
    for (int i = nbits - 1; i >= 0; --i) {
      acc = static_cast<std::uint8_t>((acc << 1) | ((value >> i) & 1u));
      if (++nacc == 8) {
        bytes.push_back(acc);
        acc = 0;
        nacc = 0;
      }
    }
  }
  if (nacc > 0) bytes.push_back(static_cast<std::uint8_t>(acc << (8 - nacc)));
  return bytes;
}

TEST(BitWriter, WordWiseMatchesBitLoop) {
  Prng prng(43);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<std::uint32_t, int>> items;
    BitWriter w;
    std::size_t bits = 0;
    const std::size_t n = prng.next_below(400);
    for (std::size_t i = 0; i < n; ++i) {
      // Widths 0..32, with set bits above the width that write() must
      // ignore; mostly Huffman-sized codes.
      const int nbits = prng.next_below(4) == 0
                            ? static_cast<int>(prng.next_below(33))
                            : 1 + static_cast<int>(prng.next_below(15));
      const auto value = static_cast<std::uint32_t>(prng.next());
      items.emplace_back(value, nbits);
      w.write(value, nbits);
      bits += static_cast<std::size_t>(nbits);
    }
    EXPECT_EQ(w.bit_count(), bits);
    ASSERT_EQ(w.finish(), pack_bit_by_bit(items)) << "trial " << trial;
  }
}

TEST(BitReader, ReadsBackWhatWriterWrote) {
  Prng prng(42);
  std::vector<std::pair<std::uint32_t, int>> items;
  BitWriter w;
  for (int i = 0; i < 1000; ++i) {
    const int nbits = 1 + static_cast<int>(prng.next_below(24));
    const auto value =
        static_cast<std::uint32_t>(prng.next()) & ((1u << nbits) - 1);
    items.emplace_back(value, nbits);
    w.write(value, nbits);
  }
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  for (const auto& [value, nbits] : items) {
    EXPECT_EQ(r.read(nbits), value);
  }
}

TEST(BitReader, ThrowsWhenExhausted) {
  const std::uint8_t byte = 0xFF;
  BitReader r(&byte, 1);
  EXPECT_EQ(r.read(8), 0xFFu);
  EXPECT_THROW(r.read_bit(), Error);
}

TEST(BitReader, PositionCountsBits) {
  const std::uint8_t bytes[2] = {0xAB, 0xCD};
  BitReader r(bytes, 2);
  r.read(3);
  EXPECT_EQ(r.position(), 3u);
  r.read(8);
  EXPECT_EQ(r.position(), 11u);
}

}  // namespace
}  // namespace recode
