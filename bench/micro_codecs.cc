// Microbenchmarks for the software codec hot paths: reference scalar
// decoders vs the fast word-wise/arena decoders (codec::fast), plus the
// encode rates of the EncodeArena path (the encoders compress() and the
// container writer run) and a block-encode row at 1 and 3 threads under
// one malloc arena, the allocator setting perfbench runs with.
//
// Emits a recode-bench-v1 JSON via --json (BENCH_codecs.json in the repo
// root is seeded from this binary). The acceptance number is
// geomean_huffman_snappy_speedup: the fast Huffman + Snappy decode paths
// must hold >= 2x over the reference decoders at block-sized inputs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ctime>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/bench_util.h"
#include "codec/arena.h"
#include "codec/delta.h"
#include "codec/fast_decode.h"
#include "codec/huffman.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "codec/snappy.h"
#include "codec/varint_delta.h"
#include "common/timer.h"
#include "sparse/generators.h"

namespace recode::bench {
namespace {

using codec::Bytes;
using codec::DecodeArena;
using codec::EncodeArena;

Bytes structured_block(std::size_t size, std::uint64_t seed) {
  // Delta-coded-index-like content: small repeating words.
  Prng prng(seed);
  Bytes raw(size);
  for (std::size_t i = 0; i < size; i += 4) {
    const std::uint32_t v = 1 + static_cast<std::uint32_t>(prng.next_below(8));
    std::memcpy(raw.data() + i, &v, std::min<std::size_t>(4, size - i));
  }
  return raw;
}

// Keeps decoded bytes observable so the timed loops cannot be elided.
std::uint64_t g_sink = 0;

// CPU time of the calling thread: unlike wall time, it leaves out
// preemption, CPU-quota throttling and sleeps on a contended lock.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Summed busy time of one pass of encode_block over every block of `cm`
// (the source matrix `a`) split over `threads` threads, each owning an
// EncodeArena and a CompressedBlock as a container-writer worker does,
// thread w taking blocks w, w + threads, ... Each thread warms its arena
// with one pass, checked bitwise against cm's blocks (ok is cleared on a
// mismatch), then times `passes` passes; busy time is the sum of the
// threads' timed loops, in wall and in thread-CPU seconds, divided by
// `passes`.
struct Busy {
  double wall = 0.0;
  double cpu = 0.0;
};

Busy encode_busy(const sparse::Csr& a, const codec::CompressedMatrix& cm,
                 std::size_t threads, int passes, bool& ok) {
  const codec::BlockCodec bc =
      codec::codec_from_id(codec::codec_id_for(cm.config));
  std::vector<Busy> busy(threads);
  std::vector<char> good(threads, 1);
  std::vector<std::uint64_t> sinks(threads, 0);
  const auto worker = [&](std::size_t w) {
    EncodeArena arena;
    codec::CompressedBlock out;
    const auto encode = [&](std::size_t b) {
      const auto& range = cm.blocking.blocks[b];
      codec::encode_block(sparse::block_indices(a, range),
                          sparse::block_values(a, range), bc,
                          cm.index_table.get(), cm.value_table.get(), arena,
                          out);
    };
    for (std::size_t b = w; b < cm.blocks.size(); b += threads) {
      encode(b);
      if (out.index_data != cm.blocks[b].index_data ||
          out.value_data != cm.blocks[b].value_data) {
        good[w] = 0;
      }
    }
    Timer t;
    const double cpu0 = thread_cpu_seconds();
    for (int p = 0; p < passes; ++p) {
      for (std::size_t b = w; b < cm.blocks.size(); b += threads) {
        encode(b);
        sinks[w] += out.bytes();
      }
    }
    busy[w] = {t.seconds(), thread_cpu_seconds() - cpu0};
  };
  std::vector<std::thread> team;
  for (std::size_t w = 1; w < threads; ++w) team.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : team) t.join();
  Busy total;
  for (std::size_t w = 0; w < threads; ++w) {
    total.wall += busy[w].wall / passes;
    total.cpu += busy[w].cpu / passes;
    ok = ok && good[w] != 0;
    g_sink += sinks[w];
  }
  return total;
}

int run(int argc, char** argv) {
#if defined(__GLIBC__)
  // One malloc arena for every thread, as perfbench runs: per-block heap
  // traffic from parallel encoders would contend on its lock.
  mallopt(M_ARENA_MAX, 1);
#endif
  Cli cli(argc, argv);
  const auto size = static_cast<std::size_t>(cli.get_int(
      "size", 8192, "input bytes per codec call (the pipeline block scale)"));
  const int reps =
      static_cast<int>(cli.get_int("reps", 5, "timed repetitions (best-of)"));
  const double min_ms = cli.get_double(
      "min-ms", 50.0, "minimum measured milliseconds per timing sample");
  const auto env_seed = test_seed(2019);
  const auto seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(env_seed),
      "content generator seed (default honors RECODE_TEST_SEED)"));
  BenchReport report(cli, "micro_codecs");
  cli.done();
  const double min_s = min_ms / 1e3;

  print_header("micro_codecs",
               "reference vs fast (word-wise, arena) codec decode rates");
  report.add_result("size_bytes", static_cast<double>(size));

  Table table({"stage", "bytes", "ref GB/s", "fast GB/s", "speedup"});
  const double gb = static_cast<double>(size) / 1e9;
  DecodeArena arena;

  // Records one ref/fast decode pair and returns the speedup.
  const auto record = [&](const std::string& name, double ref_s,
                          double fast_s) {
    table.add_row({name, std::to_string(size), Table::num(gb / ref_s, 2),
                   Table::num(gb / fast_s, 2), Table::num(ref_s / fast_s, 2)});
    report.add_result("ref_" + name + "_decode_gbps", gb / ref_s);
    report.add_result("fast_" + name + "_decode_gbps", gb / fast_s);
    report.add_result("speedup_" + name, ref_s / fast_s);
    return ref_s / fast_s;
  };

  // The DSH-compressed FEM-like matrix the Huffman and block rows share.
  const sparse::Csr fem = sparse::gen_fem_like(
      20000, 12, 400, sparse::ValueModel::kSmoothField, seed + 5);
  const auto fem_dsh = codec::compress(fem, codec::PipelineConfig::udp_dsh());

  // Huffman: every index and value payload of that matrix, each under its
  // stream's trained table — the symbol statistics real blocks decode,
  // not a synthetic skewed block. GB/s counts Huffman output bytes.
  double huffman_speedup = 1.0;
  {
    const codec::HuffmanCodec index_hc(fem_dsh.index_table);
    const codec::HuffmanCodec value_hc(fem_dsh.value_table);
    std::vector<Bytes> raws;  // each payload's decoded bytes, for encode
    std::size_t max_len = 0;
    for (const auto& block : fem_dsh.blocks) {
      raws.push_back(index_hc.decode(block.index_data));
      raws.push_back(value_hc.decode(block.value_data));
      max_len = std::max({max_len, raws[raws.size() - 2].size(),
                          raws.back().size()});
    }
    double huff_bytes = 0.0;
    for (const Bytes& r : raws) huff_bytes += static_cast<double>(r.size());
    const double huff_gb = huff_bytes / 1e9;
    const double ref_s = best_seconds(reps, min_s, [&] {
      for (const auto& block : fem_dsh.blocks) {
        g_sink += index_hc.decode(block.index_data).size();
        g_sink += value_hc.decode(block.value_data).size();
      }
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, max_len);
    const double fast_s = best_seconds(reps, min_s, [&] {
      for (const auto& block : fem_dsh.blocks) {
        g_sink += codec::fast::huffman_decode(*fem_dsh.index_table,
                                              block.index_data, dst);
        g_sink += codec::fast::huffman_decode(*fem_dsh.value_table,
                                              block.value_data, dst);
      }
    });
    table.add_row({"huffman(fem)", Table::num(huff_bytes, 0),
                   Table::num(huff_gb / ref_s, 2),
                   Table::num(huff_gb / fast_s, 2),
                   Table::num(ref_s / fast_s, 2)});
    report.add_result("ref_huffman_decode_gbps", huff_gb / ref_s);
    report.add_result("fast_huffman_decode_gbps", huff_gb / fast_s);
    report.add_result("speedup_huffman", ref_s / fast_s);
    huffman_speedup = ref_s / fast_s;
    EncodeArena enc_arena;
    Bytes enc_out;
    report.add_result(
        "encode_huffman_gbps", huff_gb / best_seconds(reps, min_s, [&] {
          for (std::size_t i = 0; i < raws.size(); i += 2) {
            codec::huffman_encode(*fem_dsh.index_table, raws[i], enc_out,
                                  enc_arena);
            g_sink += enc_out.size();
            codec::huffman_encode(*fem_dsh.value_table, raws[i + 1], enc_out,
                                  enc_arena);
            g_sink += enc_out.size();
          }
        }));
  }

  // Snappy encode on the same matrix's payloads: every block's
  // delta-coded index stream and raw value stream, the bytes compress()
  // hands to Snappy. GB/s counts Snappy input bytes.
  {
    const codec::BlockCodec transform_only{codec::Transform::kDelta32,
                                           codec::Transform::kNone, false,
                                           false};
    EncodeArena enc_arena;
    std::vector<Bytes> inputs;
    double in_bytes = 0.0;
    std::size_t max_len = 0;
    for (const auto& range : fem_dsh.blocking.blocks) {
      const codec::MidStreams mid =
          codec::encode_mid(sparse::block_indices(fem, range),
                            sparse::block_values(fem, range), transform_only,
                            enc_arena);
      for (const codec::ByteSpan stream : {mid.index, mid.value}) {
        inputs.emplace_back(stream.begin(), stream.end());
        in_bytes += static_cast<double>(stream.size());
        max_len = std::max(max_len, stream.size());
      }
    }
    Bytes dst(codec::snappy_max_encoded_length(max_len));
    report.add_result("encode_snappy_fem_gbps",
                      in_bytes / 1e9 / best_seconds(reps, min_s, [&] {
                        for (const Bytes& in : inputs) {
                          g_sink +=
                              codec::snappy_encode(in, dst.data(), enc_arena);
                        }
                      }));
  }

  // Snappy: run-heavy content exercises both the literal chunk path and
  // the 8-byte match-copy path.
  double snappy_speedup = 1.0;
  {
    const codec::SnappyCodec sc;
    const Bytes raw = structured_block(size, seed + 2);
    const Bytes enc = sc.encode(raw);
    const double ref_s = best_seconds(reps, min_s, [&] {
      g_sink += sc.decode(enc).size();
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, size);
    const double fast_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::fast::snappy_decode(enc, dst);
    });
    snappy_speedup = record("snappy", ref_s, fast_s);
    EncodeArena enc_arena;
    Bytes enc_dst(codec::snappy_max_encoded_length(size));
    report.add_result("encode_snappy_gbps",
                      gb / best_seconds(reps, min_s, [&] {
                        g_sink += codec::snappy_encode(raw, enc_dst.data(),
                                                       enc_arena);
                      }));
    // Random doubles, the class of an SpGEMM product's value stream:
    // Snappy cannot shrink them, so this rate is the encoder's miss path.
    Prng prng(seed + 7);
    Bytes noise(size);
    for (std::size_t i = 0; i + sizeof(double) <= size; i += sizeof(double)) {
      const double v = prng.next_double();
      std::memcpy(noise.data() + i, &v, sizeof(v));
    }
    report.add_result("encode_snappy_incompressible_gbps",
                      gb / best_seconds(reps, min_s, [&] {
                        g_sink += codec::snappy_encode(noise, enc_dst.data(),
                                                       enc_arena);
                      }));
  }

  // Fixed-width delta inverse transform.
  {
    const codec::DeltaCodec dc;
    const Bytes raw = structured_block(size, seed + 3);
    const Bytes enc = dc.encode(raw);
    const double ref_s = best_seconds(reps, min_s, [&] {
      g_sink += dc.decode(enc).size();
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, size);
    const double fast_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::fast::delta_decode(enc, dst);
    });
    record("delta32", ref_s, fast_s);
    report.add_result("encode_delta32_gbps",
                      gb / best_seconds(reps, min_s, [&] {
                        g_sink += dc.encode(raw).size();
                      }));
  }

  // Varint-delta inverse transform (LEB128 zigzag -> LE32 words).
  {
    const codec::VarintDeltaCodec vc;
    const Bytes raw = structured_block(size, seed + 4);
    const Bytes enc = vc.encode(raw);
    const double ref_s = best_seconds(reps, min_s, [&] {
      g_sink += vc.decode(enc).size();
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, size);
    const double fast_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::fast::varint_delta_decode(enc, dst, size);
    });
    record("varint_delta", ref_s, fast_s);
  }

  // Byte-transposition inverse transform (plane-major -> record-major),
  // the registry's value transform for shared-exponent blocks.
  {
    Prng prng(seed + 6);
    Bytes raw(size);
    for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(256));
    const Bytes enc = codec::byte_transpose(raw);
    const double ref_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::byte_untranspose(enc).size();
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, size);
    const double fast_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::fast::byte_untranspose(enc, dst);
    });
    record("transpose", ref_s, fast_s);
  }

  // Full block decode through the pipeline: the reference Bytes-chain
  // path vs the fused arena path (decompress_block_fast), over every
  // block of a DSH-compressed FEM-like matrix.
  {
    const sparse::Csr& a = fem;
    const auto& cm = fem_dsh;
    const double block_gb = static_cast<double>(a.nnz()) *
                            (sizeof(sparse::index_t) + sizeof(double)) / 1e9;
    std::vector<sparse::index_t> idx;
    std::vector<double> val;
    const double ref_s = best_seconds(reps, min_s, [&] {
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        codec::decompress_block_reference(cm, b, idx, val);
        g_sink += idx.size();
      }
    });
    DecodeArena scratch, out;
    const double fast_s = best_seconds(reps, min_s, [&] {
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        const auto d = codec::decompress_block_fast(cm, b, scratch, out);
        g_sink += d.indices.size();
      }
    });
    table.add_row({"block(dsh)", std::to_string(a.nnz() * 12),
                   Table::num(block_gb / ref_s, 2),
                   Table::num(block_gb / fast_s, 2),
                   Table::num(ref_s / fast_s, 2)});
    report.add_result("ref_block_dsh_decode_gbps", block_gb / ref_s);
    report.add_result("fast_block_dsh_decode_gbps", block_gb / fast_s);
    report.add_result("speedup_block_dsh", ref_s / fast_s);
  }
  // Block encode at 1 and 3 threads: the container writer's per-worker
  // path over the same matrix. busy_ratio_t3 is 3-thread busy wall time
  // over 1-thread busy wall time for the same blocks: 1.0 when the
  // threads share nothing, above it by whatever they wait on — a
  // contended lock (the malloc arena's, were encode to allocate), or
  // fewer than 3 CPUs. cpu_ratio_t3 is the same ratio in thread-CPU
  // time, which leaves the waiting out.
  {
    const auto host_cores =
        static_cast<std::size_t>(std::thread::hardware_concurrency());
    bool ok = true;
    int passes = 1;
    while (encode_busy(fem, fem_dsh, 1, passes, ok).wall * passes < min_s &&
           passes < (1 << 16)) {
      passes *= 2;
    }
    Busy t1{1e300, 1e300};
    Busy t3{1e300, 1e300};
    for (int r = 0; r < reps; ++r) {
      const Busy one = encode_busy(fem, fem_dsh, 1, passes, ok);
      const Busy three = encode_busy(fem, fem_dsh, 3, passes, ok);
      t1 = {std::min(t1.wall, one.wall), std::min(t1.cpu, one.cpu)};
      t3 = {std::min(t3.wall, three.wall), std::min(t3.cpu, three.cpu)};
    }
    if (!ok) {
      std::fprintf(stderr, "micro_codecs: encode_block bytes differ from "
                           "compress()\n");
      return 1;
    }
    std::printf("encode_block(dsh): busy %.2f ms at 1 thread, %.2f ms at 3 "
                "(ratio %.2f); CPU %.2f ms, %.2f ms (ratio %.2f)\n",
                t1.wall * 1e3, t3.wall * 1e3, t3.wall / t1.wall, t1.cpu * 1e3,
                t3.cpu * 1e3, t3.cpu / t1.cpu);
    report.add_result("encode_block_busy_ms_t1", t1.wall * 1e3);
    report.add_result("encode_block_busy_ms_t3", t3.wall * 1e3);
    report.add_result("encode_block_busy_ratio_t3", t3.wall / t1.wall);
    report.add_result("encode_block_cpu_ms_t1", t1.cpu * 1e3);
    report.add_result("encode_block_cpu_ratio_t3", t3.cpu / t1.cpu);
    report.add_result("degraded_t3",
                      host_cores > 0 && host_cores < 3 ? 1.0 : 0.0);
  }

  // Per-block adaptive selection (registry exhaustive trial-encode):
  // stream size vs the fixed DSH pipeline on the same matrix, plus the
  // fast-path decode rate over the resulting mixed-id block stream.
  {
    const sparse::Csr& a = fem;
    const auto& single = fem_dsh;
    const auto cm = codec::compress(a, codec::PipelineConfig::udp_adaptive());
    const double block_gb = static_cast<double>(a.nnz()) *
                            (sizeof(sparse::index_t) + sizeof(double)) / 1e9;
    DecodeArena scratch, out;
    const double fast_s = best_seconds(reps, min_s, [&] {
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        const auto d = codec::decompress_block_fast(cm, b, scratch, out);
        g_sink += d.indices.size();
      }
    });
    table.add_row({"block(adaptive)", std::to_string(a.nnz() * 12), "-",
                   Table::num(block_gb / fast_s, 2), "-"});
    report.add_result("fast_block_adaptive_decode_gbps", block_gb / fast_s);
    report.add_result("dsh_bytes_per_nnz", single.bytes_per_nnz());
    report.add_result("adaptive_bytes_per_nnz", cm.bytes_per_nnz());
    report.add_result(
        "adaptive_switched_block_frac",
        static_cast<double>(cm.selection_stats.switched_blocks) /
            static_cast<double>(cm.blocks.size()));
    std::printf("adaptive: %.3f B/nnz vs %.3f dsh (%zu/%zu blocks "
                "switched)\n",
                cm.bytes_per_nnz(), single.bytes_per_nnz(),
                cm.selection_stats.switched_blocks, cm.blocks.size());
  }
  table.print();

  const double geomean =
      std::exp((std::log(huffman_speedup) + std::log(snappy_speedup)) / 2.0);
  std::printf("huffman+snappy decode speedup geomean: %.2fx (floor: 2x)\n",
              geomean);
  std::printf("sink=%llu\n", static_cast<unsigned long long>(g_sink));
  report.add_result("geomean_huffman_snappy_speedup", geomean);
  report.write();
  print_expected(
      "Fig 12 frames software decode as the bottleneck the UDP removes; "
      "the fast path narrows it from the host side — >= 2x geomean over "
      "the reference Huffman+Snappy decoders at 8 KiB blocks.");
  return 0;
}

}  // namespace
}  // namespace recode::bench

int main(int argc, char** argv) { return recode::bench::run(argc, argv); }
