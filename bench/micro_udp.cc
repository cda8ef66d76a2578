// Microbenchmarks for the UDP simulator itself: how fast the host can
// simulate lane execution (simulated cycles per host second), and the
// EffCLiP layout cost for codec-sized programs.
//
// --json writes every number as a recode-bench-v1 result
// (sim_cycles_per_s_{snappy,huffman}, {layout_snappy,build_huffman}_us).
#include <memory>
#include <utility>

#include "bench/bench_util.h"
#include "codec/huffman.h"
#include "codec/snappy.h"
#include "udp/lane.h"
#include "udpprog/huffman_prog.h"
#include "udpprog/snappy_prog.h"

namespace recode::bench {
namespace {

using codec::Bytes;

// Keeps benchmarked results observable so the timed loops cannot be elided.
std::uint64_t g_sink = 0;

Bytes snappy_input(std::size_t size, std::uint64_t seed) {
  Prng prng(seed);
  Bytes raw(size);
  for (std::size_t i = 0; i < size; i += 4) {
    raw[i] = static_cast<std::uint8_t>(prng.next_below(16));
  }
  const codec::SnappyCodec codec;
  return codec.encode(raw);
}

Bytes skewed_bytes(std::size_t size, std::uint64_t alphabet,
                   std::uint64_t seed) {
  Prng prng(seed);
  Bytes raw(size);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(alphabet));
  return raw;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto size = static_cast<std::size_t>(
      cli.get_int("size", 8192, "decoded bytes per simulated lane run"));
  const int reps =
      static_cast<int>(cli.get_int("reps", 5, "timed repetitions (best-of)"));
  const double min_ms = cli.get_double(
      "min-ms", 100.0, "minimum measured milliseconds per timing sample");
  BenchReport report(cli, "micro_udp");
  cli.done();
  const double min_s = min_ms / 1e3;

  print_header("micro_udp",
               "UDP lane simulation rate and EffCLiP layout cost");
  report.add_result("size_bytes", static_cast<double>(size));
  Table table({"benchmark", "value", "unit"});

  // Lane simulation: simulated cycles per host second.
  {
    const udp::Program program = udpprog::build_snappy_decode_program();
    const udp::Layout layout(program);
    udp::Lane lane(layout);
    const Bytes enc = snappy_input(size, 5);
    const std::pair<int, std::uint64_t> init[] = {
        {udpprog::kSnappyOutReg, 0}, {udpprog::kSnappyBaseReg, 0}};
    const std::uint64_t cycles = lane.run(enc, init).cycles;
    const double s = best_seconds(
        reps, min_s, [&] { g_sink += lane.run(enc, init).cycles; });
    const double rate = static_cast<double>(cycles) / s;
    table.add_row({"lane sim snappy decode", Table::num(rate / 1e6, 2),
                   "M sim cycles/s"});
    report.add_result("sim_cycles_per_s_snappy", rate);
  }
  {
    const Bytes raw = skewed_bytes(size, 16, 6);
    const auto table_ptr = std::make_shared<const codec::HuffmanTable>(
        codec::HuffmanTable::train(raw));
    const codec::HuffmanCodec sw(table_ptr);
    const Bytes enc = sw.encode(raw);
    const codec::HuffmanFrame frame = codec::parse_huffman_frame(enc);
    const udp::Program program =
        udpprog::build_huffman_decode_program(*table_ptr);
    const udp::Layout layout(program);
    Bytes out(frame.count);
    const std::uint64_t cycles =
        udpprog::udp_huffman_decode(layout, frame, out.data());
    const double s = best_seconds(reps, min_s, [&] {
      g_sink += udpprog::udp_huffman_decode(layout, frame, out.data());
    });
    const double rate = static_cast<double>(cycles) / s;
    table.add_row({"lane sim huffman decode", Table::num(rate / 1e6, 2),
                   "M sim cycles/s"});
    report.add_result("sim_cycles_per_s_huffman", rate);
  }

  // Program construction and layout: host microseconds per call.
  {
    const udp::Program program = udpprog::build_snappy_decode_program();
    const double s = best_seconds(reps, min_s, [&] {
      const udp::Layout layout(program);
      g_sink += layout.table_size();
    });
    table.add_row({"EffCLiP layout, snappy program", Table::num(s * 1e6, 2),
                   "us"});
    report.add_result("layout_snappy_us", s * 1e6);
  }
  {
    const codec::HuffmanTable huffman =
        codec::HuffmanTable::train(skewed_bytes(size, 64, 7));
    const double s = best_seconds(reps, min_s, [&] {
      const udp::Program program =
          udpprog::build_huffman_decode_program(huffman);
      g_sink += program.state_count();
    });
    table.add_row({"build huffman program", Table::num(s * 1e6, 2), "us"});
    report.add_result("build_huffman_us", s * 1e6);
  }

  table.print();
  std::printf("sink=%llu\n", static_cast<unsigned long long>(g_sink));
  report.write();
  print_expected(
      "no paper figure: the simulator's host rate bounds how large a "
      "--udp verification run is practical; layout and program build are "
      "one-off per-matrix costs.");
  return 0;
}

}  // namespace
}  // namespace recode::bench

int main(int argc, char** argv) { return recode::bench::run(argc, argv); }
