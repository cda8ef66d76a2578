#include "codec/pipeline.h"

#include <algorithm>
#include <cstring>

#include "codec/arena.h"
#include "codec/delta.h"
#include "codec/fast_decode.h"
#include "codec/registry.h"
#include "codec/selector.h"
#include "codec/snappy.h"
#include "codec/varint_delta.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/varint.h"
#include "sparse/stats.h"
#include "telemetry/telemetry.h"

namespace recode::codec {

namespace {

// Per-stage decode/encode attribution: bytes in/out and nanoseconds per
// Delta/Snappy/Huffman stage, the measured counterpart of the StageSizes
// compile-time accounting (gives measured B/nnz and time per stage).
struct StageMetrics {
  telemetry::Counter& ns;
  telemetry::Counter& bytes_in;
  telemetry::Counter& bytes_out;
};

struct CodecTelemetry {
  telemetry::Counter& decode_blocks;
  StageMetrics decode_huffman;
  StageMetrics decode_snappy;
  StageMetrics decode_transform;
  telemetry::Counter& encode_blocks;
  StageMetrics encode_transform;
  StageMetrics encode_snappy;
  StageMetrics encode_huffman;

  static StageMetrics stage(const std::string& prefix) {
    auto& reg = telemetry::MetricsRegistry::global();
    return StageMetrics{reg.counter(prefix + ".ns"),
                        reg.counter(prefix + ".bytes_in"),
                        reg.counter(prefix + ".bytes_out")};
  }

  static CodecTelemetry& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static CodecTelemetry* t = new CodecTelemetry{
        reg.counter("codec.decode.blocks"),
        stage("codec.decode.huffman"),
        stage("codec.decode.snappy"),
        stage("codec.decode.transform"),
        reg.counter("codec.encode.blocks"),
        stage("codec.encode.transform"),
        stage("codec.encode.snappy"),
        stage("codec.encode.huffman"),
    };
    return *t;
  }
};

template <typename T>
ByteSpan byte_view(std::span<const T> v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(T)};
}

// Runs one encode stage, which returns its output size, and feeds its
// StageMetrics — the one place the encode side attributes bytes and
// time, for compress(), the selection trials and the streamed writer
// alike.
template <typename Stage>
std::size_t run_encode_stage(StageMetrics& m, std::size_t bytes_in,
                             Stage&& stage) {
  std::size_t out;
  {
    telemetry::StageTimer t(m.ns);
    out = stage();
  }
  m.bytes_in.add(bytes_in);
  m.bytes_out.add(out);
  return out;
}

// The pre-Huffman stages of one stream: the transform into the arena's
// `transform_slot`, then Snappy into its `snappy_slot`. A kNone
// transform is counted as a stage but passes the input through uncopied.
ByteSpan encode_stream_mid(ByteSpan raw, Transform transform, bool snappy,
                           EncodeArena& arena, std::size_t transform_slot,
                           std::size_t snappy_slot, CodecTelemetry& telem) {
  ByteSpan cur = raw;
  if (transform == Transform::kNone) {
    telem.encode_transform.bytes_in.add(raw.size());
    telem.encode_transform.bytes_out.add(raw.size());
  } else {
    // Room for every transform: varint-delta writes up to 5 bytes per
    // 4-byte word, the others exactly raw.size() bytes.
    std::uint8_t* dst = arena.slab(
        transform_slot, raw.size() + raw.size() / 4);
    const std::size_t size =
        run_encode_stage(telem.encode_transform, raw.size(), [&] {
          switch (transform) {
            case Transform::kDelta32: return delta_encode(raw, dst);
            case Transform::kVarintDelta: return varint_delta_encode(raw, dst);
            case Transform::kByteTranspose: return byte_transpose(raw, dst);
            case Transform::kNone: break;
          }
          fail("unknown transform");
        });
    cur = {dst, size};
  }
  if (snappy) {
    std::uint8_t* dst =
        arena.slab(snappy_slot, snappy_max_encoded_length(cur.size()));
    const std::size_t size = run_encode_stage(
        telem.encode_snappy, cur.size(),
        [&] { return snappy_encode(cur, dst, arena); });
    cur = {dst, size};
  }
  return cur;
}

// The Huffman stage from a mid stream into `out` (a plain copy when
// `table` is null), keeping out's capacity.
void finish_stream(ByteSpan mid, const HuffmanTable* table,
                   EncodeArena& arena, Bytes& out, CodecTelemetry& telem) {
  if (table == nullptr) {
    out.assign(mid.begin(), mid.end());
    return;
  }
  run_encode_stage(telem.encode_huffman, mid.size(), [&] {
    huffman_encode(*table, mid, out, arena);
    return out.size();
  });
}

}  // namespace

const char* transform_name(Transform t) {
  switch (t) {
    case Transform::kNone: return "none";
    case Transform::kDelta32: return "delta32";
    case Transform::kVarintDelta: return "varint-delta";
    case Transform::kByteTranspose: return "byte-transpose";
  }
  return "?";
}

const char* codec_selection_name(CodecSelection s) {
  switch (s) {
    case CodecSelection::kSingle: return "single";
    case CodecSelection::kHeuristic: return "heuristic";
    case CodecSelection::kExhaustive: return "exhaustive";
  }
  return "?";
}

Bytes invert_transform(Transform t, ByteSpan encoded) {
  switch (t) {
    case Transform::kNone: return Bytes(encoded.begin(), encoded.end());
    case Transform::kDelta32: return DeltaCodec().decode(encoded);
    case Transform::kVarintDelta: return VarintDeltaCodec().decode(encoded);
    case Transform::kByteTranspose: return byte_untranspose(encoded);
  }
  fail("unknown transform");
}

PipelineConfig PipelineConfig::udp_dsh() { return PipelineConfig{}; }

PipelineConfig PipelineConfig::udp_ds() {
  PipelineConfig cfg;
  cfg.huffman = false;
  return cfg;
}

PipelineConfig PipelineConfig::cpu_snappy() {
  PipelineConfig cfg;
  cfg.index_transform = Transform::kNone;
  cfg.huffman = false;
  cfg.nnz_per_block = 4096;  // 32 KB value blocks, as the CPU baseline uses
  return cfg;
}

PipelineConfig PipelineConfig::udp_vsh() {
  PipelineConfig cfg;
  cfg.index_transform = Transform::kVarintDelta;
  return cfg;
}

PipelineConfig PipelineConfig::udp_adaptive() {
  PipelineConfig cfg;
  cfg.selection = CodecSelection::kExhaustive;
  return cfg;
}

CodecId CompressedMatrix::block_codec_id(std::size_t b) const {
  return block_codecs.empty() ? codec_id_for(config) : block_codecs[b];
}

std::size_t CompressedMatrix::stream_bytes() const {
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.bytes();
  // One codec-id byte per block is streamed alongside the block data in
  // container v2 — count it so the adaptive-vs-single comparison pays
  // for its own dispatch metadata.
  total += blocks.size();
  if (index_table) total += 128;
  if (value_table) total += 128;
  return total;
}

MidStreams encode_mid(std::span<const sparse::index_t> indices,
                      std::span<const double> values, const BlockCodec& c,
                      EncodeArena& arena) {
  CodecTelemetry& telem = CodecTelemetry::get();
  const ByteSpan index =
      encode_stream_mid(byte_view(indices), c.index_transform, c.snappy,
                        arena, EncodeArena::kIndexTransform,
                        EncodeArena::kIndexSnappy, telem);
  const ByteSpan value =
      encode_stream_mid(byte_view(values), c.value_transform, c.snappy,
                        arena, EncodeArena::kValueTransform,
                        EncodeArena::kValueSnappy, telem);
  return {index, value};
}

void encode_block(std::span<const sparse::index_t> indices,
                  std::span<const double> values, const BlockCodec& c,
                  const HuffmanTable* index_table,
                  const HuffmanTable* value_table, EncodeArena& arena,
                  CompressedBlock& out, std::size_t* after_snappy) {
  RECODE_CHECK(!c.huffman ||
               (index_table != nullptr && value_table != nullptr));
  const MidStreams mid = encode_mid(indices, values, c, arena);
  if (after_snappy != nullptr) {
    after_snappy[0] = mid.index.size();
    after_snappy[1] = mid.value.size();
  }
  CodecTelemetry& telem = CodecTelemetry::get();
  finish_stream(mid.index, c.huffman ? index_table : nullptr, arena,
                out.index_data, telem);
  finish_stream(mid.value, c.huffman ? value_table : nullptr, arena,
                out.value_data, telem);
}

CompressedMatrix compress(const sparse::Csr& csr, const PipelineConfig& cfg) {
  RECODE_CHECK(cfg.nnz_per_block > 0);
  RECODE_CHECK(cfg.huffman_sample_fraction > 0.0 &&
               cfg.huffman_sample_fraction <= 1.0);

  CompressedMatrix cm;
  cm.rows = csr.rows;
  cm.cols = csr.cols;
  cm.row_ptr = csr.row_ptr;
  cm.config = cfg;
  cm.blocking = sparse::make_blocking(csr, cfg.nnz_per_block);

  CodecTelemetry& telem = CodecTelemetry::get();
  RECODE_TRACE_SPAN("codec", "compress");
  const std::size_t nblocks = cm.blocking.block_count();
  telem.encode_blocks.add(nblocks);
  EncodeArena arena;

  // Pass 1: transform + snappy per block (the config's chain short of
  // Huffman); histogram sampled blocks for the per-matrix Huffman tables.
  const BlockCodec mid_codec{cfg.index_transform, cfg.value_transform,
                             cfg.snappy, false};
  std::vector<Bytes> index_mid(nblocks);
  std::vector<Bytes> value_mid(nblocks);
  std::array<std::uint64_t, 256> index_hist{};
  std::array<std::uint64_t, 256> value_hist{};
  Prng sampler(cfg.sample_seed);

  for (std::size_t b = 0; b < nblocks; ++b) {
    const auto& range = cm.blocking.blocks[b];
    const MidStreams mid =
        encode_mid(sparse::block_indices(csr, range),
                   sparse::block_values(csr, range), mid_codec, arena);
    index_mid[b].assign(mid.index.begin(), mid.index.end());
    value_mid[b].assign(mid.value.begin(), mid.value.end());
    cm.index_stages.raw += range.count * sizeof(sparse::index_t);
    cm.value_stages.raw += range.count * sizeof(double);
    cm.index_stages.after_snappy += mid.index.size();
    cm.value_stages.after_snappy += mid.value.size();

    if (cfg.huffman && sampler.next_double() < cfg.huffman_sample_fraction) {
      for (std::uint8_t byte : mid.index) ++index_hist[byte];
      for (std::uint8_t byte : mid.value) ++value_hist[byte];
    }
  }

  // Pass 2: train the per-matrix tables on the sampled baseline mid
  // streams, then finish each block — uniformly (kSingle, the v1
  // behavior, bit-for-bit) or through per-block codec selection.
  cm.blocks.resize(nblocks);
  if (cfg.huffman) {
    cm.index_table =
        std::make_shared<const HuffmanTable>(HuffmanTable::build(index_hist));
    cm.value_table =
        std::make_shared<const HuffmanTable>(HuffmanTable::build(value_hist));
  }
  const HuffmanTable* itab = cm.index_table.get();
  const HuffmanTable* vtab = cm.value_table.get();
  const CodecId base_id = codec_id_for(cfg);
  cm.block_codecs.assign(nblocks, base_id);

  if (cfg.selection == CodecSelection::kSingle) {
    for (std::size_t b = 0; b < nblocks; ++b) {
      finish_stream(index_mid[b], itab, arena, cm.blocks[b].index_data,
                    telem);
      finish_stream(value_mid[b], vtab, arena, cm.blocks[b].value_data,
                    telem);
      Bytes().swap(index_mid[b]);
      Bytes().swap(value_mid[b]);
    }
  } else {
    // Per-block selection. The baseline candidate is finished from the
    // pass-1 mid streams (bitwise what kSingle stores), so exhaustive
    // trial-encode can never lose to the single pipeline: the winner is
    // at most the baseline's size for every block.
    auto& reg = telemetry::MetricsRegistry::global();
    const std::vector<CodecId> candidates = candidate_codecs(cfg);
    cm.index_stages.after_snappy = 0;
    cm.value_stages.after_snappy = 0;
    CompressedBlock trial;  // reused across candidates and blocks
    for (std::size_t b = 0; b < nblocks; ++b) {
      const auto& range = cm.blocking.blocks[b];
      const auto idx_span = sparse::block_indices(csr, range);
      const auto val_span = sparse::block_values(csr, range);

      std::size_t chosen_mid[2] = {index_mid[b].size(), value_mid[b].size()};
      CompressedBlock& chosen_block = cm.blocks[b];
      finish_stream(index_mid[b], itab, arena, chosen_block.index_data,
                    telem);
      finish_stream(value_mid[b], vtab, arena, chosen_block.value_data,
                    telem);
      Bytes().swap(index_mid[b]);
      Bytes().swap(value_mid[b]);
      const std::size_t baseline_bytes = chosen_block.bytes();
      CodecId chosen = base_id;

      if (cfg.selection == CodecSelection::kHeuristic) {
        const CodecId picked = select_block_codec(
            sparse::compute_block_stats(idx_span, val_span), cfg);
        if (picked != chosen) {
          encode_block(idx_span, val_span, codec_from_id(picked), itab, vtab,
                       arena, chosen_block, chosen_mid);
          chosen = picked;
        }
      } else {  // kExhaustive: smallest total bytes, ties keep the baseline
        for (const CodecId cand : candidates) {
          if (cand == base_id) continue;
          std::size_t mid[2];
          encode_block(idx_span, val_span, codec_from_id(cand), itab, vtab,
                       arena, trial, mid);
          if (trial.bytes() < chosen_block.bytes()) {
            chosen_block = trial;
            chosen = cand;
            chosen_mid[0] = mid[0];
            chosen_mid[1] = mid[1];
          }
        }
      }

      cm.selection_stats.baseline_bytes += baseline_bytes;
      cm.selection_stats.adaptive_bytes += chosen_block.bytes();
      if (chosen != base_id) ++cm.selection_stats.switched_blocks;
      reg.counter("codec.select.id." + codec_name(chosen) + ".blocks").add(1);
      cm.index_stages.after_snappy += chosen_mid[0];
      cm.value_stages.after_snappy += chosen_mid[1];
      cm.block_codecs[b] = chosen;
    }
    reg.counter("codec.select.blocks").add(nblocks);
    reg.counter("codec.select.switched_blocks")
        .add(cm.selection_stats.switched_blocks);
    reg.counter("codec.select.bytes_baseline")
        .add(cm.selection_stats.baseline_bytes);
    reg.counter("codec.select.bytes_adaptive")
        .add(cm.selection_stats.adaptive_bytes);
    reg.counter("codec.select.bytes_saved")
        .add(cm.selection_stats.baseline_bytes -
             std::min(cm.selection_stats.baseline_bytes,
                      cm.selection_stats.adaptive_bytes));
  }

  for (const auto& b : cm.blocks) {
    cm.index_stages.after_huffman += b.index_data.size();
    cm.value_stages.after_huffman += b.value_data.size();
  }
  if (cfg.selection == CodecSelection::kSingle) {
    cm.selection_stats.baseline_bytes = cm.selection_stats.adaptive_bytes =
        cm.index_stages.after_huffman + cm.value_stages.after_huffman;
  }
  return cm;
}

namespace {

// A decoded stream aliasing arena memory.
struct ArenaStream {
  const std::uint8_t* data;
  std::size_t size;
};

// Decodes one compressed stream through the configured stages without
// allocating (once the arenas are warm). Intermediates ping-pong between
// the scratch arena's A/B slabs; whichever stage runs last writes its
// output into `out_slot` of the out arena, so the result needs no final
// copy. expect_bytes is the caller's expected decoded size, used only to
// cap the varint-delta destination (its true output size is
// data-dependent and size-checked by the caller).
//
// Every slab is sized only after the reference decoders' own
// untrusted-length checks, so a corrupt stream fails with the reference
// error before it can demand an attacker-chosen allocation.
ArenaStream decode_stream_arena(bool huffman, bool snappy, ByteSpan data,
                                Transform transform,
                                const HuffmanTable* table,
                                std::size_t expect_bytes, DecodeArena& scratch,
                                DecodeArena& out, std::size_t out_slot,
                                CodecTelemetry& telem) {
  const bool transform_on = transform != Transform::kNone;
  const std::uint8_t* cur = data.data();
  std::size_t cur_size = data.size();
  telemetry::MovementLedger& ledger = telemetry::MovementLedger::global();

  if (huffman) {
    const std::size_t stage_in = cur_size;
    telem.decode_huffman.bytes_in.add(cur_size);
    RECODE_TRACE_SPAN("codec", "huffman_decode");
    telemetry::StageTimer t(telem.decode_huffman.ns);
    telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kHuffman).ns);
    const HuffmanFrame frame = parse_huffman_frame({cur, cur_size});
    std::uint8_t* dst = (snappy || transform_on)
                            ? scratch.slab(DecodeArena::kScratchA, frame.count)
                            : out.slab(out_slot, frame.count);
    fast::huffman_decode(*table, frame, dst);
    cur = dst;
    cur_size = frame.count;
    telem.decode_huffman.bytes_out.add(cur_size);
    ledger.flow(telemetry::Hop::kHuffman, stage_in, cur_size);
  } else {
    ledger.pass_through(telemetry::Hop::kHuffman, cur_size);
  }

  if (snappy) {
    const std::size_t stage_in = cur_size;
    telem.decode_snappy.bytes_in.add(cur_size);
    RECODE_TRACE_SPAN("codec", "snappy_decode");
    telemetry::StageTimer t(telem.decode_snappy.ns);
    telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kSnappy).ns);
    std::size_t pos = 0;
    const std::uint64_t n = varint_read(cur, cur_size, pos);
    if (n > static_cast<std::uint64_t>(cur_size - pos) * 24 + 8) {
      fail("snappy: declared length implausible for stream size");
    }
    std::uint8_t* dst =
        transform_on
            ? scratch.slab(huffman ? DecodeArena::kScratchB
                                   : DecodeArena::kScratchA,
                           static_cast<std::size_t>(n))
            : out.slab(out_slot, static_cast<std::size_t>(n));
    fast::snappy_decode({cur, cur_size}, dst);
    cur = dst;
    cur_size = static_cast<std::size_t>(n);
    telem.decode_snappy.bytes_out.add(cur_size);
    ledger.flow(telemetry::Hop::kSnappy, stage_in, cur_size);
  } else {
    ledger.pass_through(telemetry::Hop::kSnappy, cur_size);
  }

  const std::size_t transform_in = cur_size;
  telem.decode_transform.bytes_in.add(cur_size);
  RECODE_TRACE_SPAN("codec", "transform_decode");
  telemetry::StageTimer t(telem.decode_transform.ns);
  telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kTransform).ns);
  switch (transform) {
    case Transform::kNone: {
      // Earlier stages already landed in the out slab. With no stage at
      // all, copy the raw stream in so the caller always reads (aligned)
      // arena memory.
      if (!huffman && !snappy) {
        std::uint8_t* dst = out.slab(out_slot, cur_size);
        std::memcpy(dst, cur, cur_size);
        cur = dst;
      }
      break;
    }
    case Transform::kDelta32: {
      std::uint8_t* dst = out.slab(out_slot, cur_size);
      cur_size = fast::delta_decode({cur, cur_size}, dst);
      cur = dst;
      break;
    }
    case Transform::kVarintDelta: {
      std::uint8_t* dst = out.slab(out_slot, expect_bytes);
      cur_size =
          fast::varint_delta_decode({cur, cur_size}, dst, expect_bytes);
      cur = dst;
      break;
    }
    case Transform::kByteTranspose: {
      std::uint8_t* dst = out.slab(out_slot, cur_size);
      cur_size = fast::byte_untranspose({cur, cur_size}, dst);
      cur = dst;
      break;
    }
  }
  telem.decode_transform.bytes_out.add(cur_size);
  ledger.flow(telemetry::Hop::kTransform, transform_in, cur_size);
  return ArenaStream{cur, cur_size};
}

}  // namespace

DecodedBlock decompress_block_fast(const CompressedMatrix& cm, std::size_t b,
                                   DecodeArena& scratch, DecodeArena& out) {
  RECODE_CHECK(b < cm.blocks.size());
  const auto& block = cm.blocks[b];
  return decompress_block_fast(cm, b, block.index_data, block.value_data,
                               scratch, out);
}

DecodedBlock decompress_block_fast(const CompressedMatrix& cm, std::size_t b,
                                   ByteSpan index_data, ByteSpan value_data,
                                   DecodeArena& scratch, DecodeArena& out) {
  RECODE_CHECK(b < cm.blocking.blocks.size());
  const BlockCodec bc = block_codec_checked(cm, b);
  const std::size_t payload = index_data.size() + value_data.size();
  CodecTelemetry& telem = CodecTelemetry::get();
  telem.decode_blocks.add(1);
  // Container hop: the compressed read includes the per-block codec-id
  // dispatch byte (container v2); the payload goes on to the codec chain.
  telemetry::MovementLedger::global().flow(telemetry::Hop::kContainer,
                                           payload + 1, payload);
  RECODE_TRACE_SPAN_ARG("codec", "decompress_block", "block", b);

  const std::size_t count = cm.blocking.blocks[b].count;
  const ArenaStream idx = decode_stream_arena(
      bc.huffman, bc.snappy, index_data, bc.index_transform,
      cm.index_table.get(), count * sizeof(sparse::index_t), scratch, out,
      DecodeArena::kIndexOut, telem);
  const ArenaStream val = decode_stream_arena(
      bc.huffman, bc.snappy, value_data, bc.value_transform,
      cm.value_table.get(), count * sizeof(double), scratch, out,
      DecodeArena::kValueOut, telem);
  if (idx.size != count * sizeof(sparse::index_t)) {
    fail("decompress_block: index stream size mismatch");
  }
  if (val.size != count * sizeof(double)) {
    fail("decompress_block: value stream size mismatch");
  }
  return DecodedBlock{
      {reinterpret_cast<const sparse::index_t*>(idx.data), count},
      {reinterpret_cast<const double*>(val.data), count}};
}

void decompress_block(const CompressedMatrix& cm, std::size_t b,
                      std::vector<sparse::index_t>& indices,
                      std::vector<double>& values) {
  thread_local DecodeArena scratch;
  thread_local DecodeArena out;
  const DecodedBlock decoded = decompress_block_fast(cm, b, scratch, out);
  indices.assign(decoded.indices.begin(), decoded.indices.end());
  values.assign(decoded.values.begin(), decoded.values.end());
}

void decompress_block_reference(const CompressedMatrix& cm, std::size_t b,
                                std::vector<sparse::index_t>& indices,
                                std::vector<double>& values) {
  RECODE_CHECK(b < cm.blocks.size());
  const BlockCodec bc = block_codec_checked(cm, b);
  const auto& block = cm.blocks[b];
  CodecTelemetry& telem = CodecTelemetry::get();
  telem.decode_blocks.add(1);
  telemetry::MovementLedger& ledger = telemetry::MovementLedger::global();
  ledger.flow(telemetry::Hop::kContainer, block.bytes() + 1, block.bytes());
  RECODE_TRACE_SPAN_ARG("codec", "decompress_block", "block", b);

  auto decode_stream = [&](ByteSpan data, Transform transform,
                           const std::shared_ptr<const HuffmanTable>& table) {
    Bytes buf(data.begin(), data.end());
    if (bc.huffman) {
      const std::size_t stage_in = buf.size();
      telem.decode_huffman.bytes_in.add(buf.size());
      RECODE_TRACE_SPAN("codec", "huffman_decode");
      telemetry::StageTimer t(telem.decode_huffman.ns);
      telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kHuffman).ns);
      const HuffmanCodec hc(table);
      buf = hc.decode(buf);
      telem.decode_huffman.bytes_out.add(buf.size());
      ledger.flow(telemetry::Hop::kHuffman, stage_in, buf.size());
    } else {
      ledger.pass_through(telemetry::Hop::kHuffman, buf.size());
    }
    if (bc.snappy) {
      const std::size_t stage_in = buf.size();
      telem.decode_snappy.bytes_in.add(buf.size());
      RECODE_TRACE_SPAN("codec", "snappy_decode");
      telemetry::StageTimer t(telem.decode_snappy.ns);
      telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kSnappy).ns);
      const SnappyCodec sc;
      buf = sc.decode(buf);
      telem.decode_snappy.bytes_out.add(buf.size());
      ledger.flow(telemetry::Hop::kSnappy, stage_in, buf.size());
    } else {
      ledger.pass_through(telemetry::Hop::kSnappy, buf.size());
    }
    telem.decode_transform.bytes_in.add(buf.size());
    RECODE_TRACE_SPAN("codec", "transform_decode");
    telemetry::StageTimer t(telem.decode_transform.ns);
    telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kTransform).ns);
    Bytes out = invert_transform(transform, buf);
    telem.decode_transform.bytes_out.add(out.size());
    ledger.flow(telemetry::Hop::kTransform, buf.size(), out.size());
    return out;
  };

  const Bytes idx_bytes =
      decode_stream(block.index_data, bc.index_transform, cm.index_table);
  const Bytes val_bytes =
      decode_stream(block.value_data, bc.value_transform, cm.value_table);

  const std::size_t count = cm.blocking.blocks[b].count;
  if (idx_bytes.size() != count * sizeof(sparse::index_t)) {
    fail("decompress_block: index stream size mismatch");
  }
  if (val_bytes.size() != count * sizeof(double)) {
    fail("decompress_block: value stream size mismatch");
  }
  indices.resize(count);
  values.resize(count);
  std::memcpy(indices.data(), idx_bytes.data(), idx_bytes.size());
  std::memcpy(values.data(), val_bytes.data(), val_bytes.size());
}

sparse::Csr decompress(const CompressedMatrix& cm) {
  sparse::Csr csr;
  csr.rows = cm.rows;
  csr.cols = cm.cols;
  csr.row_ptr = cm.row_ptr;
  // The nnz comes from an untrusted row_ptr when cm was parsed from a
  // container; cap the (purely advisory) pre-allocation so a tampered
  // count cannot demand the full allocation up front. Oversized claims
  // then fail in decompress_block's per-block size checks instead.
  const std::size_t reserve_nnz =
      std::min(cm.nnz(), static_cast<std::size_t>(1) << 26);
  csr.col_idx.reserve(reserve_nnz);
  csr.val.reserve(reserve_nnz);

  std::vector<sparse::index_t> indices;
  std::vector<double> values;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    decompress_block(cm, b, indices, values);
    csr.col_idx.insert(csr.col_idx.end(), indices.begin(), indices.end());
    csr.val.insert(csr.val.end(), values.begin(), values.end());
  }
  csr.validate();
  return csr;
}

}  // namespace recode::codec
