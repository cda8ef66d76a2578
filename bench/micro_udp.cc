// Microbenchmarks for the UDP simulator itself: how fast the host can
// simulate lane execution (simulated cycles per host second), and the
// EffCLiP layout cost for codec-sized programs.
#include <benchmark/benchmark.h>

#include "codec/snappy.h"
#include "common/prng.h"
#include "udp/lane.h"
#include "udpprog/huffman_prog.h"
#include "udpprog/snappy_prog.h"

namespace recode::udpprog {
namespace {

codec::Bytes snappy_input(std::size_t size) {
  recode::Prng prng(5);
  codec::Bytes raw(size);
  for (std::size_t i = 0; i < size; i += 4) {
    const auto v = static_cast<std::uint32_t>(prng.next_below(16));
    raw[i] = static_cast<std::uint8_t>(v);
  }
  const codec::SnappyCodec codec;
  return codec.encode(raw);
}

void BM_LaneSimSnappyDecode(benchmark::State& state) {
  const udp::Program program = build_snappy_decode_program();
  const udp::Layout layout(program);
  udp::Lane lane(layout);
  const codec::Bytes enc = snappy_input(8192);
  const std::pair<int, std::uint64_t> init[] = {{kSnappyOutReg, 0},
                                                {kSnappyBaseReg, 0}};
  std::uint64_t simulated_cycles = 0;
  for (auto _ : state) {
    simulated_cycles += lane.run(enc, init).cycles;
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(simulated_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LaneSimSnappyDecode);

void BM_LaneSimHuffmanDecode(benchmark::State& state) {
  recode::Prng prng(6);
  codec::Bytes raw(8192);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(16));
  const auto table = std::make_shared<const codec::HuffmanTable>(
      codec::HuffmanTable::train(raw));
  const codec::HuffmanCodec sw(table);
  const codec::Bytes enc = sw.encode(raw);
  const codec::HuffmanFrame frame = codec::parse_huffman_frame(enc);
  const udp::Program program = build_huffman_decode_program(*table);
  const udp::Layout layout(program);
  codec::Bytes out(frame.count);
  std::uint64_t simulated_cycles = 0;
  for (auto _ : state) {
    simulated_cycles += udp_huffman_decode(layout, frame, out.data());
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(simulated_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LaneSimHuffmanDecode);

void BM_EffClipLayoutSnappyProgram(benchmark::State& state) {
  const udp::Program program = build_snappy_decode_program();
  for (auto _ : state) {
    const udp::Layout layout(program);
    benchmark::DoNotOptimize(layout.table_size());
  }
}
BENCHMARK(BM_EffClipLayoutSnappyProgram);

void BM_BuildHuffmanProgram(benchmark::State& state) {
  recode::Prng prng(7);
  codec::Bytes raw(8192);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(64));
  const codec::HuffmanTable table = codec::HuffmanTable::train(raw);
  for (auto _ : state) {
    const udp::Program program = build_huffman_decode_program(table);
    benchmark::DoNotOptimize(program.state_count());
  }
}
BENCHMARK(BM_BuildHuffmanProgram);

}  // namespace
}  // namespace recode::udpprog

BENCHMARK_MAIN();
