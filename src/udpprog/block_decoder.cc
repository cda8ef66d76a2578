#include "udpprog/block_decoder.h"

#include <cstring>

#include "codec/registry.h"
#include "common/error.h"
#include "telemetry/telemetry.h"
#include "udpprog/delta_prog.h"
#include "udpprog/varint_delta_prog.h"
#include "udpprog/huffman_prog.h"
#include "udpprog/snappy_prog.h"
#include "udpprog/transpose_prog.h"

namespace recode::udpprog {

UdpPipelineDecoder::UdpPipelineDecoder(const codec::CompressedMatrix& cm,
                                       udp::LaneConfig lane_config)
    : cm_(&cm) {
  // The lane loads one program per stage actually present in the
  // matrix's per-block codecs. Validating every id up front routes
  // hostile containers through the same registry gate (and the same
  // recode::Error messages) as the host decode engines.
  bool uses_delta = false, uses_varint = false, uses_transpose = false;
  bool uses_snappy = false, uses_huffman = false;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    const codec::BlockCodec bc = codec::block_codec_checked(cm, b);
    for (const codec::Transform t : {bc.index_transform, bc.value_transform}) {
      uses_delta |= t == codec::Transform::kDelta32;
      uses_varint |= t == codec::Transform::kVarintDelta;
      uses_transpose |= t == codec::Transform::kByteTranspose;
    }
    uses_snappy |= bc.snappy;
    uses_huffman |= bc.huffman;
  }
  if (uses_delta) {
    delta_program_ = build_delta_decode_program();
    delta_layout_ = std::make_unique<udp::Layout>(delta_program_);
  }
  if (uses_varint) {
    varint_delta_program_ = build_varint_delta_decode_program();
    varint_delta_layout_ = std::make_unique<udp::Layout>(varint_delta_program_);
  }
  if (uses_transpose) {
    transpose_program_ = build_transpose_decode_program();
    transpose_layout_ = std::make_unique<udp::Layout>(transpose_program_);
  }
  if (uses_snappy) {
    snappy_program_ = build_snappy_decode_program();
    snappy_layout_ = std::make_unique<udp::Layout>(snappy_program_);
  }
  if (uses_huffman) {
    // block_codec_checked already proved the tables exist.
    index_huffman_program_ = build_huffman_decode_program(*cm.index_table);
    index_huffman_layout_ =
        std::make_unique<udp::Layout>(index_huffman_program_);
    value_huffman_program_ = build_huffman_decode_program(*cm.value_table);
    value_huffman_layout_ =
        std::make_unique<udp::Layout>(value_huffman_program_);
  }
  lane_config_ = lane_config;
  // The default 64 KB scratchpad is the real lane's budget and fits the
  // paper's 8 KB blocks with room for stage buffers. Block-size ablations
  // beyond that model a hypothetically larger scratchpad: size it so the
  // largest stage output (a possibly-incompressible value block plus
  // codec framing) always fits.
  RECODE_PARSE_CHECK(cm.config.nnz_per_block <= (1u << 24),
                     "udp decoder: block size too large");
  const std::size_t value_block_bytes = cm.config.nnz_per_block * 8;
  lane_config_.scratchpad_bytes =
      std::max(lane_config_.scratchpad_bytes,
               value_block_bytes * 2 + 4096);
}

codec::ByteSpan UdpPipelineDecoder::run_stage(const udp::Layout& layout,
                                              codec::ByteSpan input,
                                              std::uint64_t init_count,
                                              std::uint64_t& cycles,
                                              std::size_t out_slot) {
  udp::Lane lane(layout, lane_config_);
  std::vector<std::pair<int, std::uint64_t>> init;
  // All programs share the conventions: R5 = output base (0), and the
  // delta program additionally takes the word count in R1; R9 mirrors the
  // output base for the snappy program.
  init.emplace_back(kDeltaOutReg, 0);
  init.emplace_back(kSnappyBaseReg, 0);
  if (init_count != 0) init.emplace_back(kDeltaCountReg, init_count);

  const auto& counters = lane.run(input, init);
  cycles += counters.cycles;
  const std::uint64_t out_len = lane.reg(kDeltaOutReg);
  if (out_len > lane.scratch().size()) fail("udp stage: output overrun");
  std::uint8_t* dst =
      arena_.slab(out_slot, static_cast<std::size_t>(out_len));
  std::memcpy(dst, lane.scratch().data(), static_cast<std::size_t>(out_len));
  return codec::ByteSpan(dst, static_cast<std::size_t>(out_len));
}

codec::ByteSpan UdpPipelineDecoder::decode_stream(
    codec::ByteSpan data, bool huffman_on, bool snappy_on,
    codec::Transform transform, const udp::Layout* huffman_layout,
    std::size_t expect_bytes, std::size_t out_slot, StageCycles& cycles) {
  const bool transform_on = transform != codec::Transform::kNone;
  // The ledger sees the lane simulation's stage edges exactly as the host
  // engines': bytes through each hop, wall time of the simulated stage.
  telemetry::MovementLedger& ledger = telemetry::MovementLedger::global();
  codec::ByteSpan buf = data;
  if (huffman_on) {
    RECODE_CHECK(huffman_layout != nullptr);
    const std::size_t stage_in = buf.size();
    telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kHuffman).ns);
    // The host parses the lane frame; the program decodes each lane.
    const codec::HuffmanFrame frame = codec::parse_huffman_frame(buf);
    std::uint8_t* dst = arena_.slab(
        (snappy_on || transform_on) ? codec::DecodeArena::kScratchA : out_slot,
        frame.count);
    cycles.huffman +=
        udp_huffman_decode(*huffman_layout, frame, dst, lane_config_);
    buf = codec::ByteSpan(dst, frame.count);
    ledger.flow(telemetry::Hop::kHuffman, stage_in, buf.size());
  } else {
    ledger.pass_through(telemetry::Hop::kHuffman, buf.size());
  }
  if (snappy_on) {
    const std::size_t stage_in = buf.size();
    telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kSnappy).ns);
    buf = run_stage(*snappy_layout_, buf, 0, cycles.snappy,
                    transform_on ? (huffman_on
                                        ? codec::DecodeArena::kScratchB
                                        : codec::DecodeArena::kScratchA)
                                 : out_slot);
    ledger.flow(telemetry::Hop::kSnappy, stage_in, buf.size());
  } else {
    ledger.pass_through(telemetry::Hop::kSnappy, buf.size());
  }
  const std::size_t transform_in = buf.size();
  {
    telemetry::StageTimer lt(ledger.hop(telemetry::Hop::kTransform).ns);
    if (transform == codec::Transform::kDelta32) {
      if (buf.size() % 4 != 0) fail("udp stage: delta input misaligned");
      buf = run_stage(*delta_layout_, buf, buf.size() / 4, cycles.delta,
                      out_slot);
    } else if (transform == codec::Transform::kVarintDelta) {
      // The word count comes from the blocking plan, not the byte stream.
      buf = run_stage(*varint_delta_layout_, buf, expect_bytes / 4,
                      cycles.delta, out_slot);
    } else if (transform == codec::Transform::kByteTranspose) {
      if (buf.size() % 8 != 0) fail("udp stage: transpose input misaligned");
      buf = run_stage(*transpose_layout_, buf, buf.size() / 8, cycles.delta,
                      out_slot);
    }
  }
  ledger.flow(telemetry::Hop::kTransform, transform_in, buf.size());
  if (buf.size() != expect_bytes) {
    fail("udp stage: decoded size mismatch (got " +
         std::to_string(buf.size()) + ", want " +
         std::to_string(expect_bytes) + ")");
  }
  return buf;
}

BlockResult UdpPipelineDecoder::decode_block(std::size_t b) {
  RECODE_CHECK(b < cm_->blocks.size());
  const codec::BlockCodec bc = codec::block_codec_checked(*cm_, b);
  const auto& block = cm_->blocks[b];
  const std::size_t count = cm_->blocking.blocks[b].count;
  telemetry::MovementLedger::global().flow(telemetry::Hop::kContainer,
                                           block.bytes() + 1, block.bytes());

  BlockResult result;
  const codec::ByteSpan idx_bytes = decode_stream(
      block.index_data, bc.huffman, bc.snappy, bc.index_transform,
      index_huffman_layout_.get(), count * sizeof(sparse::index_t),
      codec::DecodeArena::kIndexOut, result.index_cycles);
  const codec::ByteSpan val_bytes = decode_stream(
      block.value_data, bc.huffman, bc.snappy, bc.value_transform,
      value_huffman_layout_.get(), count * sizeof(double),
      codec::DecodeArena::kValueOut, result.value_cycles);

  result.indices.resize(count);
  result.values.resize(count);
  std::memcpy(result.indices.data(), idx_bytes.data(), idx_bytes.size());
  std::memcpy(result.values.data(), val_bytes.data(), val_bytes.size());
  return result;
}

double UdpPipelineDecoder::min_layout_density() const {
  double density = 1.0;
  for (const udp::Layout* l :
       {delta_layout_.get(), varint_delta_layout_.get(),
        transpose_layout_.get(), snappy_layout_.get(),
        index_huffman_layout_.get(), value_huffman_layout_.get()}) {
    if (l != nullptr) density = std::min(density, l->density());
  }
  return density;
}

std::size_t UdpPipelineDecoder::total_table_slots() const {
  std::size_t slots = 0;
  for (const udp::Layout* l :
       {delta_layout_.get(), varint_delta_layout_.get(),
        transpose_layout_.get(), snappy_layout_.get(),
        index_huffman_layout_.get(), value_huffman_layout_.get()}) {
    if (l != nullptr) slots += l->table_size();
  }
  return slots;
}

}  // namespace recode::udpprog
