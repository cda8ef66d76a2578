#include "codec/registry.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace recode::codec {

namespace {

constexpr CodecId kIndexShift = 0;
constexpr CodecId kValueShift = 2;
constexpr CodecId kSnappyBit = 1u << 4;
constexpr CodecId kHuffmanBit = 1u << 5;
constexpr CodecId kReservedMask = 0xC0;

// Index streams never use byte-transposition (it regroups 8-byte value
// records; indices are 4-byte words), so the index field tops out at
// varint-delta.
constexpr std::uint8_t kMaxIndexTransform = 2;
constexpr std::uint8_t kMaxValueTransform = 3;

}  // namespace

CodecId codec_id(const BlockCodec& c) {
  RECODE_CHECK(static_cast<std::uint8_t>(c.index_transform) <=
               kMaxIndexTransform);
  RECODE_CHECK(static_cast<std::uint8_t>(c.value_transform) <=
               kMaxValueTransform);
  return static_cast<CodecId>(
      (static_cast<CodecId>(c.index_transform) << kIndexShift) |
      (static_cast<CodecId>(c.value_transform) << kValueShift) |
      (c.snappy ? kSnappyBit : 0) | (c.huffman ? kHuffmanBit : 0));
}

BlockCodec codec_from_id(CodecId id) {
  RECODE_PARSE_CHECK((id & kReservedMask) == 0 &&
                         ((id >> kIndexShift) & 0x3) <= kMaxIndexTransform,
                     "codec registry: unknown codec id " + std::to_string(id));
  BlockCodec c;
  c.index_transform = static_cast<Transform>((id >> kIndexShift) & 0x3);
  c.value_transform = static_cast<Transform>((id >> kValueShift) & 0x3);
  c.snappy = (id & kSnappyBit) != 0;
  c.huffman = (id & kHuffmanBit) != 0;
  return c;
}

bool codec_id_valid(CodecId id) {
  return (id & kReservedMask) == 0 && ((id >> kIndexShift) & 0x3) <= 2;
}

std::string codec_name(CodecId id) {
  const BlockCodec c = codec_from_id(id);
  auto t = [](Transform tr) {
    switch (tr) {
      case Transform::kNone: return "none";
      case Transform::kDelta32: return "d32";
      case Transform::kVarintDelta: return "vd";
      case Transform::kByteTranspose: return "bt";
    }
    return "?";
  };
  std::string name = std::string("i:") + t(c.index_transform) +
                     ".v:" + t(c.value_transform);
  if (c.snappy) name += "+s";
  if (c.huffman) name += "+h";
  return name;
}

CodecId codec_id_for(const PipelineConfig& cfg) {
  return codec_id(BlockCodec{cfg.index_transform, cfg.value_transform,
                             cfg.snappy, cfg.huffman});
}

std::vector<CodecId> candidate_codecs(const PipelineConfig& cfg) {
  std::vector<CodecId> out;
  auto push = [&](const BlockCodec& c) {
    const CodecId id = codec_id(c);
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  };
  // Baseline first: ties in the trial encoder resolve toward it, so a
  // structureless matrix degenerates to the single-pipeline encoding.
  push(BlockCodec{cfg.index_transform, cfg.value_transform, cfg.snappy,
                  cfg.huffman});
  const Transform index_transforms[] = {cfg.index_transform,
                                        Transform::kDelta32,
                                        Transform::kVarintDelta};
  const Transform value_transforms[] = {cfg.value_transform,
                                        Transform::kByteTranspose};
  // Entropy combinations never exceed the config's stages: huffman
  // candidates need the trained tables, and dropping stages is how an
  // already-dense block avoids paying for framing it cannot use.
  std::vector<std::pair<bool, bool>> entropy = {{cfg.snappy, cfg.huffman}};
  if (cfg.huffman) entropy.emplace_back(cfg.snappy, false);
  entropy.emplace_back(false, false);
  for (const Transform it : index_transforms) {
    for (const Transform vt : value_transforms) {
      for (const auto& [snappy, huffman] : entropy) {
        push(BlockCodec{it, vt, snappy, huffman});
      }
    }
  }
  // Stored: raw streams, no stages at all — the incompressible-block
  // floor (a block can cost its raw 12 B/nnz, never more).
  push(BlockCodec{Transform::kNone, Transform::kNone, false, false});
  return out;
}

BlockCodec block_codec_checked(const CompressedMatrix& cm, std::size_t b) {
  const BlockCodec bc = codec_from_id(cm.block_codec_id(b));
  if (bc.huffman) {
    RECODE_PARSE_CHECK(
        cm.index_table && cm.value_table,
        "codec registry: block codec requires huffman tables that are "
        "not present");
  }
  return bc;
}

std::size_t byte_transpose(ByteSpan raw, std::uint8_t* dst) {
  const std::size_t n = raw.size() / 8;
  for (std::size_t j = 0; j < 8; ++j) {
    std::uint8_t* plane = dst + j * n;
    for (std::size_t r = 0; r < n; ++r) plane[r] = raw[r * 8 + j];
  }
  if (const std::size_t tail = raw.size() - n * 8; tail != 0) {
    std::memcpy(dst + n * 8, raw.data() + n * 8, tail);
  }
  return raw.size();
}

Bytes byte_transpose(ByteSpan raw) {
  Bytes out(raw.size());
  byte_transpose(raw, out.data());
  return out;
}

Bytes byte_untranspose(ByteSpan encoded) {
  const std::size_t n = encoded.size() / 8;
  Bytes out(encoded.size());
  for (std::size_t j = 0; j < 8; ++j) {
    const std::uint8_t* plane = encoded.data() + j * n;
    for (std::size_t r = 0; r < n; ++r) out[r * 8 + j] = plane[r];
  }
  if (const std::size_t tail = encoded.size() - n * 8; tail != 0) {
    std::memcpy(out.data() + n * 8, encoded.data() + n * 8, tail);
  }
  return out;
}

}  // namespace recode::codec
