#include "udpprog/huffman_prog.h"

#include <gtest/gtest.h>

#include "common/prng.h"
#include "udp/lane.h"

namespace recode::udpprog {
namespace {

using codec::HuffmanCodec;
using codec::HuffmanTable;

// Decodes a codec payload on the simulator, one program run per lane.
codec::Bytes run_udp_huffman(const HuffmanTable& table,
                             const codec::Bytes& encoded,
                             std::uint64_t* cycles = nullptr) {
  const udp::Program program = build_huffman_decode_program(table);
  const udp::Layout layout(program);
  const codec::HuffmanFrame frame = codec::parse_huffman_frame(encoded);
  codec::Bytes out(frame.count);
  const std::uint64_t c = udp_huffman_decode(layout, frame, out.data());
  if (cycles != nullptr) *cycles = c;
  return out;
}

std::shared_ptr<const HuffmanTable> trained(const codec::Bytes& data) {
  return std::make_shared<const HuffmanTable>(HuffmanTable::train(data));
}

TEST(HuffmanProg, MatchesSoftwareDecoderOnSkewedData) {
  recode::Prng prng(3);
  codec::Bytes raw;
  for (int i = 0; i < 5000; ++i) {
    const auto r = prng.next_below(100);
    raw.push_back(static_cast<std::uint8_t>(r < 70 ? 'e' : r % 32));
  }
  auto table = trained(raw);
  const HuffmanCodec sw(table);
  const codec::Bytes encoded = sw.encode(raw);
  EXPECT_EQ(run_udp_huffman(*table, encoded), raw);
}

TEST(HuffmanProg, UniformTableDecodesArbitraryBytes) {
  const HuffmanTable uniform;  // 8-bit codes for every symbol
  const HuffmanCodec sw(std::make_shared<const HuffmanTable>(uniform));
  recode::Prng prng(9);
  codec::Bytes raw(4096);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next());
  const codec::Bytes encoded = sw.encode(raw);
  EXPECT_EQ(run_udp_huffman(uniform, encoded), raw);
}

TEST(HuffmanProg, EmptyInput) {
  const HuffmanTable uniform;
  const HuffmanCodec sw(std::make_shared<const HuffmanTable>(uniform));
  const codec::Bytes encoded = sw.encode({});
  EXPECT_TRUE(run_udp_huffman(uniform, encoded).empty());
}

TEST(HuffmanProg, LongCodesExerciseSecondLevel) {
  // Extreme skew forces >8-bit codes for the rare symbols.
  std::array<std::uint64_t, 256> hist{};
  hist[0] = 1u << 20;
  for (int s = 1; s < 256; ++s) hist[static_cast<std::size_t>(s)] = 1;
  const HuffmanTable table = HuffmanTable::build(hist);
  // Confirm the table actually has long codes.
  int max_len = 0;
  for (int s = 0; s < 256; ++s) {
    max_len = std::max<int>(max_len, table.length(static_cast<std::uint8_t>(s)));
  }
  ASSERT_GT(max_len, 8);

  const HuffmanCodec sw(std::make_shared<const HuffmanTable>(table));
  recode::Prng prng(17);
  codec::Bytes raw;
  for (int i = 0; i < 3000; ++i) {
    raw.push_back(prng.next_below(10) == 0
                      ? static_cast<std::uint8_t>(1 + prng.next_below(255))
                      : 0);
  }
  const codec::Bytes encoded = sw.encode(raw);
  EXPECT_EQ(run_udp_huffman(table, encoded), raw);
}

class HuffmanProgFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanProgFuzz, MatchesSoftwareDecoder) {
  recode::Prng prng(GetParam());
  const std::size_t alphabet = 1 + prng.next_below(256);
  codec::Bytes raw(1 + prng.next_below(8000));
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(alphabet));
  auto table = trained(raw);
  const HuffmanCodec sw(table);
  const codec::Bytes encoded = sw.encode(raw);
  EXPECT_EQ(run_udp_huffman(*table, encoded), raw);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProgFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(HuffmanProg, CyclesPerSymbolInExpectedBand) {
  recode::Prng prng(23);
  codec::Bytes raw(8192);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(16));
  auto table = trained(raw);
  const HuffmanCodec sw(table);
  const codec::Bytes encoded = sw.encode(raw);
  std::uint64_t cycles = 0;
  run_udp_huffman(*table, encoded, &cycles);
  const double per_symbol =
      static_cast<double>(cycles) / static_cast<double>(raw.size());
  // Dispatch + emit + loop check: single-digit cycles per symbol. This is
  // the efficiency claim that makes the UDP beat CPUs on dictionary decode.
  EXPECT_LT(per_symbol, 9.0);
  EXPECT_GE(per_symbol, 2.0);
}

TEST(HuffmanProg, DispatchTableStaysDense) {
  recode::Prng prng(29);
  codec::Bytes raw(4096);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(64));
  auto table = trained(raw);
  const udp::Program program = build_huffman_decode_program(*table);
  const udp::Layout layout(program);
  EXPECT_GT(layout.density(), 0.95);
}

}  // namespace
}  // namespace recode::udpprog
