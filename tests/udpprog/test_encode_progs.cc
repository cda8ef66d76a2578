#include "udpprog/encode_progs.h"

#include <gtest/gtest.h>

#include <cstring>

#include "codec/delta.h"
#include "common/prng.h"
#include "udp/lane.h"
#include "udpprog/delta_prog.h"
#include "udpprog/huffman_prog.h"

namespace recode::udpprog {
namespace {

codec::Bytes run_lane(const udp::Layout& layout, const codec::Bytes& input,
                      std::uint64_t count, std::uint64_t out_base) {
  udp::Lane lane(layout);
  const std::pair<int, std::uint64_t> init[] = {{kEncodeCountReg, count}};
  lane.run(input, init);
  const auto end = lane.reg(kEncodeOutReg);
  const auto scratch = lane.scratch();
  return codec::Bytes(scratch.begin() + static_cast<std::ptrdiff_t>(out_base),
                      scratch.begin() + static_cast<std::ptrdiff_t>(end));
}

codec::Bytes int32s_to_bytes(const std::vector<std::int32_t>& v) {
  codec::Bytes out(v.size() * 4);
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

// --- delta encode ---

TEST(DeltaEncodeProg, MatchesSoftwareEncoderExactly) {
  const udp::Program prog = build_delta_encode_program();
  const udp::Layout layout(prog);
  const codec::DeltaCodec sw;
  const codec::Bytes raw = int32s_to_bytes({5, 9, 9, 2, -100, 1 << 30});
  EXPECT_EQ(run_lane(layout, raw, raw.size() / 4, 0), sw.encode(raw));
}

class DeltaEncodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaEncodeFuzz, MatchesSoftwareEncoder) {
  const udp::Program prog = build_delta_encode_program();
  const udp::Layout layout(prog);
  const codec::DeltaCodec sw;
  recode::Prng prng(GetParam());
  std::vector<std::int32_t> v(prng.next_below(1000));
  for (auto& x : v) x = static_cast<std::int32_t>(prng.next());
  const codec::Bytes raw = int32s_to_bytes(v);
  EXPECT_EQ(run_lane(layout, raw, v.size(), 0), sw.encode(raw));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaEncodeFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(DeltaEncodeProg, RoundTripsThroughUdpDecoder) {
  // Encode on the UDP, decode on the UDP.
  const udp::Layout enc_layout(build_delta_encode_program());
  const udp::Layout dec_layout(build_delta_decode_program());
  std::vector<std::int32_t> v;
  for (int i = 0; i < 500; ++i) v.push_back(i * 7 - 100);
  const codec::Bytes raw = int32s_to_bytes(v);
  const codec::Bytes encoded = run_lane(enc_layout, raw, v.size(), 0);

  udp::Lane lane(dec_layout);
  const std::pair<int, std::uint64_t> init[] = {{kDeltaCountReg, v.size()},
                                                {kDeltaOutReg, 0}};
  lane.run(encoded, init);
  const auto out_len = lane.reg(kDeltaOutReg);
  const auto scratch = lane.scratch();
  const codec::Bytes decoded(
      scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(out_len));
  EXPECT_EQ(decoded, raw);
}

// --- huffman encode ---

std::shared_ptr<const codec::HuffmanTable> trained(const codec::Bytes& d) {
  return std::make_shared<const codec::HuffmanTable>(
      codec::HuffmanTable::train(d));
}

TEST(HuffmanEncodeProg, ByteIdenticalToSoftwareEncoder) {
  recode::Prng prng(3);
  codec::Bytes raw(6000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(24));
  auto table = trained(raw);
  const codec::HuffmanCodec sw(table);
  const udp::Layout layout(build_huffman_encode_program(*table));
  EXPECT_EQ(udp_huffman_encode(layout, raw), sw.encode(raw));
}

TEST(HuffmanEncodeProg, EmptyInput) {
  const codec::HuffmanTable uniform;
  const codec::HuffmanCodec sw(
      std::make_shared<const codec::HuffmanTable>(uniform));
  const udp::Layout layout(build_huffman_encode_program(uniform));
  EXPECT_EQ(udp_huffman_encode(layout, {}), sw.encode({}));
}

TEST(HuffmanEncodeProg, LongCodesFlushCorrectly) {
  // Skewed table: long codes force multi-byte drains per symbol.
  std::array<std::uint64_t, 256> hist{};
  hist[7] = 1u << 20;
  for (int s = 0; s < 256; ++s) hist[static_cast<std::size_t>(s)] += 1;
  const codec::HuffmanTable table = codec::HuffmanTable::build(hist);
  recode::Prng prng(9);
  codec::Bytes raw(2000);
  for (auto& b : raw) {
    b = prng.next_below(4) == 0 ? static_cast<std::uint8_t>(prng.next()) : 7;
  }
  const codec::HuffmanCodec sw(
      std::make_shared<const codec::HuffmanTable>(table));
  const udp::Layout layout(build_huffman_encode_program(table));
  EXPECT_EQ(udp_huffman_encode(layout, raw), sw.encode(raw));
}

TEST(HuffmanEncodeProg, RoundTripsThroughUdpDecoder) {
  recode::Prng prng(11);
  codec::Bytes raw(4000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(48));
  auto table = trained(raw);
  const udp::Layout enc_layout(build_huffman_encode_program(*table));
  const codec::Bytes encoded = udp_huffman_encode(enc_layout, raw);

  const udp::Layout dec_layout(build_huffman_decode_program(*table));
  const codec::HuffmanFrame frame = codec::parse_huffman_frame(encoded);
  codec::Bytes decoded(frame.count);
  udp_huffman_decode(dec_layout, frame, decoded.data());
  EXPECT_EQ(decoded, raw);
}

class HuffmanEncodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanEncodeFuzz, ByteIdenticalToSoftware) {
  recode::Prng prng(GetParam());
  const std::size_t alphabet = 1 + prng.next_below(256);
  codec::Bytes raw(1 + prng.next_below(8000));
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(alphabet));
  auto table = trained(raw);
  const codec::HuffmanCodec sw(table);
  const udp::Layout layout(build_huffman_encode_program(*table));
  EXPECT_EQ(udp_huffman_encode(layout, raw), sw.encode(raw));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanEncodeFuzz,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(HuffmanEncodeProg, EncodeCostSingleDigitCyclesPerByte) {
  recode::Prng prng(13);
  codec::Bytes raw(8192);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(16));
  auto table = trained(raw);
  const udp::Layout layout(build_huffman_encode_program(*table));
  udp::Lane lane(layout);
  const std::pair<int, std::uint64_t> init[] = {{kEncodeCountReg, raw.size()}};
  const auto& counters = lane.run(raw, init);
  const double per_byte =
      static_cast<double>(counters.cycles) / static_cast<double>(raw.size());
  EXPECT_LT(per_byte, 10.0);
}

}  // namespace
}  // namespace recode::udpprog
