#include "common/varint.h"

#include <gtest/gtest.h>

#include <limits>

namespace recode {
namespace {

TEST(Zigzag, RoundTripsRepresentativeValues) {
  const std::int64_t cases[] = {0,    1,     -1,   2,
                                -2,   1000,  -1000,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : cases) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
}

TEST(Zigzag, SmallMagnitudesMapToSmallCodes) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  EXPECT_EQ(zigzag_encode(2), 4u);
}

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  const std::uint64_t v = GetParam();
  std::vector<std::uint8_t> buf;
  varint_append(buf, v);
  EXPECT_EQ(buf.size(), varint_size(v));
  std::size_t pos = 0;
  EXPECT_EQ(varint_read(buf.data(), buf.size(), pos), v);
  EXPECT_EQ(pos, buf.size());
  std::uint8_t stored[kMaxVarintBytes];
  const std::size_t len = varint_store(stored, v);
  EXPECT_EQ(std::vector<std::uint8_t>(stored, stored + len), buf);
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, 1ull << 56,
                      std::numeric_limits<std::uint64_t>::max()));

TEST(Varint, ConsecutiveValuesShareABuffer) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v = 0; v < 1000; v += 7) varint_append(buf, v);
  std::size_t pos = 0;
  for (std::uint64_t v = 0; v < 1000; v += 7) {
    EXPECT_EQ(varint_read(buf.data(), buf.size(), pos), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, ThrowsOnTruncation) {
  std::vector<std::uint8_t> buf;
  varint_append(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(varint_read(buf.data(), buf.size(), pos), Error);
}

TEST(Varint, ThrowsOnOverlongEncoding) {
  // 11 continuation bytes exceed the 64-bit shift budget.
  std::vector<std::uint8_t> buf(11, 0x80);
  buf.push_back(0x01);
  std::size_t pos = 0;
  EXPECT_THROW(varint_read(buf.data(), buf.size(), pos), Error);
}

}  // namespace
}  // namespace recode
