#include "codec/huffman.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "codec/arena.h"
#include "common/error.h"
#include "common/varint.h"

namespace recode::codec {

namespace {

// Plain Huffman tree build; returns per-symbol code lengths.
std::array<std::uint8_t, 256> huffman_lengths(
    const std::array<std::uint64_t, 256>& freq) {
  struct Node {
    std::uint64_t weight;
    int left;    // -1 for leaf
    int right;
    int symbol;  // leaf only
  };
  std::vector<Node> nodes;
  nodes.reserve(512);
  using HeapItem = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (int s = 0; s < 256; ++s) {
    nodes.push_back({freq[s], -1, -1, s});
    heap.emplace(freq[s], s);
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back({wa + wb, a, b, -1});
    heap.emplace(wa + wb, static_cast<int>(nodes.size()) - 1);
  }
  std::array<std::uint8_t, 256> lengths{};
  // Iterative DFS carrying depth.
  std::vector<std::pair<int, int>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.left < 0) {
      lengths[static_cast<std::size_t>(n.symbol)] =
          static_cast<std::uint8_t>(std::max(depth, 1));
    } else {
      stack.emplace_back(n.left, depth + 1);
      stack.emplace_back(n.right, depth + 1);
    }
  }
  return lengths;
}

}  // namespace

HuffmanTable::HuffmanTable() {
  lengths_.fill(8);  // uniform byte code
  assign_canonical_codes();
  build_decode_table();
}

HuffmanTable HuffmanTable::build(
    const std::array<std::uint64_t, 256>& histogram) {
  // Add-one smoothing keeps every symbol encodable even when the training
  // sample (a fraction of the matrix's blocks) missed it.
  std::array<std::uint64_t, 256> freq;
  for (int s = 0; s < 256; ++s) freq[s] = histogram[s] + 1;

  // Length-limit by flattening: halving the dynamic range of the weights
  // until the deepest leaf fits in kMaxCodeLen. Converges in a few rounds
  // and is near-optimal for byte alphabets.
  HuffmanTable t;
  for (;;) {
    t.lengths_ = huffman_lengths(freq);
    const std::uint8_t max_len =
        *std::max_element(t.lengths_.begin(), t.lengths_.end());
    if (max_len <= kMaxCodeLen) break;
    for (auto& f : freq) f = (f >> 1) + 1;
  }
  t.assign_canonical_codes();
  t.build_decode_table();
  return t;
}

HuffmanTable HuffmanTable::train(ByteSpan sample) {
  std::array<std::uint64_t, 256> histogram{};
  for (std::uint8_t b : sample) ++histogram[b];
  return build(histogram);
}

Bytes HuffmanTable::serialize() const {
  Bytes out(128);
  for (int s = 0; s < 256; s += 2) {
    out[static_cast<std::size_t>(s / 2)] = static_cast<std::uint8_t>(
        (lengths_[static_cast<std::size_t>(s)] << 4) |
        lengths_[static_cast<std::size_t>(s) + 1]);
  }
  return out;
}

HuffmanTable HuffmanTable::deserialize(ByteSpan data) {
  if (data.size() != 128) fail("huffman table: expected 128 bytes");
  HuffmanTable t;
  for (int s = 0; s < 256; s += 2) {
    const std::uint8_t packed = data[static_cast<std::size_t>(s / 2)];
    t.lengths_[static_cast<std::size_t>(s)] = packed >> 4;
    t.lengths_[static_cast<std::size_t>(s) + 1] = packed & 0xF;
  }
  std::uint64_t kraft = 0;
  for (auto len : t.lengths_) {
    if (len == 0 || len > kMaxCodeLen) fail("huffman table: bad code length");
    kraft += 1u << (kMaxCodeLen - len);
  }
  // Canonical tables built from a 256-symbol Huffman tree are always
  // complete prefix codes. Anything else (tampered lengths) would either
  // overflow the code space or leave undecodable windows in the flat
  // decode table, so reject it before assigning codes.
  if (kraft != (1u << kMaxCodeLen)) {
    fail("huffman table: lengths do not form a complete prefix code");
  }
  t.assign_canonical_codes();
  t.build_decode_table();
  return t;
}

double HuffmanTable::expected_bits(
    const std::array<std::uint64_t, 256>& histogram) const {
  std::uint64_t total = 0;
  std::uint64_t bits = 0;
  for (int s = 0; s < 256; ++s) {
    total += histogram[static_cast<std::size_t>(s)];
    bits += histogram[static_cast<std::size_t>(s)] *
            lengths_[static_cast<std::size_t>(s)];
  }
  return total == 0 ? 0.0 : static_cast<double>(bits) / static_cast<double>(total);
}

void HuffmanTable::assign_canonical_codes() {
  // Canonical order: by (length, symbol).
  std::array<int, 256> order;
  for (int s = 0; s < 256; ++s) order[static_cast<std::size_t>(s)] = s;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (lengths_[static_cast<std::size_t>(a)] !=
        lengths_[static_cast<std::size_t>(b)]) {
      return lengths_[static_cast<std::size_t>(a)] <
             lengths_[static_cast<std::size_t>(b)];
    }
    return a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : order) {
    const int len = lengths_[static_cast<std::size_t>(s)];
    code <<= (len - prev_len);
    RECODE_CHECK_MSG(code < (1u << len), "huffman: code space overflow");
    encode_[static_cast<std::size_t>(s)] =
        code | (static_cast<std::uint32_t>(len) << 16);
    ++code;
    prev_len = len;
  }
}

void HuffmanTable::build_decode_table() {
  for (int s = 0; s < 256; ++s) {
    const int len = lengths_[static_cast<std::size_t>(s)];
    const std::uint32_t code = encode_[static_cast<std::size_t>(s)] & 0xFFFF;
    const std::uint32_t first = code << (kMaxCodeLen - len);
    const std::uint32_t count = 1u << (kMaxCodeLen - len);
    for (std::uint32_t i = 0; i < count; ++i) {
      decode_[first + i] = {static_cast<std::uint8_t>(s),
                            static_cast<std::uint8_t>(len)};
    }
  }

  // Fast table: the first code of every 11-bit window, plus a second one
  // when it fits entirely in the window bits the first left over.
  // Shifting the window up zero-fills its low bits, but a code that fits
  // in the remaining real bits never looks at them.
  constexpr std::uint32_t kFastMask = (1u << kFastTableBits) - 1;
  constexpr int kToSingle = kMaxCodeLen - kFastTableBits;
  for (std::uint32_t w = 0; w <= kFastMask; ++w) {
    FastEntry e{};
    const DecodeEntry first = decode_[w << kToSingle];
    if (first.length <= kFastTableBits) {
      e.symbols[0] = first.symbol;
      e.count = 1;
      e.bits = first.length;
      const DecodeEntry second =
          decode_[((w << first.length) & kFastMask) << kToSingle];
      if (second.length <= kFastTableBits - first.length) {
        e.symbols[1] = second.symbol;
        e.count = 2;
        e.bits = static_cast<std::uint8_t>(first.length + second.length);
      }
    }
    fast_[w] = e;
  }
}

HuffmanFrame parse_huffman_frame(ByteSpan payload) {
  const std::uint8_t* p = payload.data();
  const std::size_t size = payload.size();
  std::size_t pos = 0;
  HuffmanFrame frame;
  if (size <= 1 || p[0] != 0x00) {
    // Legacy single stream: varint(n) + bits.
    const std::uint64_t n = varint_read(p, size, pos);
    if (n > (static_cast<std::uint64_t>(size) - pos) * 8) {
      fail("huffman: declared count exceeds stream capacity");
    }
    frame.count = static_cast<std::size_t>(n);
    frame.lanes = 1;
    frame.lane[0] = {payload.subspan(pos), 0, frame.count};
    return frame;
  }
  pos = 1;
  const std::uint64_t n = varint_read(p, size, pos);
  std::array<std::uint64_t, kHuffmanLanes> len{};
  for (int k = 0; k + 1 < kHuffmanLanes; ++k) {
    len[k] = varint_read(p, size, pos);
  }
  // Each length is checked against what is left, so their sum cannot
  // overflow before it is caught.
  std::uint64_t left = size - pos;
  for (int k = 0; k + 1 < kHuffmanLanes; ++k) {
    if (len[k] > left) fail("huffman: lane lengths exceed payload");
    left -= len[k];
  }
  len[kHuffmanLanes - 1] = left;
  if (n > static_cast<std::uint64_t>(size - pos) * 8) {
    fail("huffman: declared count exceeds stream capacity");
  }
  frame.count = static_cast<std::size_t>(n);
  frame.lanes = kHuffmanLanes;
  for (int k = 0; k < kHuffmanLanes; ++k) {
    const std::size_t first = huffman_lane_start(frame.count, k);
    const std::size_t end = huffman_lane_start(frame.count, k + 1);
    if (end - first > len[k] * 8) {
      fail("huffman: declared count exceeds stream capacity");
    }
    frame.lane[k] = {payload.subspan(pos, static_cast<std::size_t>(len[k])),
                     first, end};
    pos += static_cast<std::size_t>(len[k]);
  }
  return frame;
}

namespace {

// The frame header for n > 0 symbols: 0x00, varint(n), and the byte
// lengths of the first three lanes. Returns its size; dst has room for
// kMaxFrameHeader bytes.
constexpr std::size_t kMaxFrameHeader = 1 + kHuffmanLanes * kMaxVarintBytes;

std::size_t store_frame_header(std::uint8_t* dst, std::size_t n,
                               const std::size_t* lane_bytes) {
  std::size_t len = 0;
  dst[len++] = 0x00;
  len += varint_store(dst + len, n);
  for (int k = 0; k + 1 < kHuffmanLanes; ++k) {
    len += varint_store(dst + len, lane_bytes[k]);
  }
  return len;
}

void store_be32(std::uint8_t* dst, std::uint32_t v) {
  const std::uint32_t be = __builtin_bswap32(v);
  std::memcpy(dst, &be, 4);
}

// Packs symbols [first, end) MSB-first at dst, the last byte zero-padded,
// and returns the bytes written (exactly ceil(bits / 8): no overshoot, so
// lanes pack back to back). Fewer than 32 bits are pending before each
// pair of codes and at most 30 arrive, so the accumulator never
// overflows and one 32-bit flush per pair suffices.
std::size_t encode_lane(const std::uint32_t* entries, const std::uint8_t* in,
                        std::size_t first, std::size_t end,
                        std::uint8_t* dst) {
  std::uint8_t* op = dst;
  std::uint64_t acc = 0;  // low `bits` bits are pending output
  int bits = 0;
  std::size_t i = first;
  for (; i + 2 <= end; i += 2) {
    const std::uint32_t a = entries[in[i]];
    const std::uint32_t b = entries[in[i + 1]];
    acc = (acc << (a >> 16)) | (a & 0xFFFF);
    acc = (acc << (b >> 16)) | (b & 0xFFFF);
    bits += static_cast<int>((a >> 16) + (b >> 16));
    if (bits >= 32) {
      bits -= 32;
      store_be32(op, static_cast<std::uint32_t>(acc >> bits));
      op += 4;
    }
  }
  if (i < end) {
    const std::uint32_t a = entries[in[i]];
    acc = (acc << (a >> 16)) | (a & 0xFFFF);
    bits += static_cast<int>(a >> 16);
  }
  for (; bits >= 8; bits -= 8) {
    *op++ = static_cast<std::uint8_t>(acc >> (bits - 8));
  }
  if (bits > 0) *op++ = static_cast<std::uint8_t>(acc << (8 - bits));
  return static_cast<std::size_t>(op - dst);
}

}  // namespace

Bytes write_huffman_frame(std::size_t n,
                          const std::array<Bytes, kHuffmanLanes>& lanes) {
  if (n == 0) return Bytes{0x00};
  std::size_t lane_bytes[kHuffmanLanes];
  std::size_t body = 0;
  for (int k = 0; k < kHuffmanLanes; ++k) {
    lane_bytes[k] = lanes[k].size();
    body += lane_bytes[k];
  }
  std::uint8_t header[kMaxFrameHeader];
  const std::size_t header_len = store_frame_header(header, n, lane_bytes);
  Bytes out;
  out.reserve(header_len + body);
  out.assign(header, header + header_len);
  for (const Bytes& lane : lanes) {
    out.insert(out.end(), lane.begin(), lane.end());
  }
  return out;
}

void huffman_encode(const HuffmanTable& table, ByteSpan input, Bytes& out,
                    EncodeArena& arena) {
  const std::size_t n = input.size();
  out.clear();
  if (n == 0) {
    out.push_back(0x00);
    return;
  }
  // Codes are at most kMaxCodeLen bits; each lane rounds up to a byte.
  std::uint8_t* lanes = arena.slab(
      EncodeArena::kLanes, (n * kMaxCodeLen + 7) / 8 + kHuffmanLanes);
  std::size_t lane_bytes[kHuffmanLanes];
  std::size_t body = 0;
  for (int k = 0; k < kHuffmanLanes; ++k) {
    lane_bytes[k] =
        encode_lane(table.encode_table(), input.data(),
                    huffman_lane_start(n, k), huffman_lane_start(n, k + 1),
                    lanes + body);
    body += lane_bytes[k];
  }
  std::uint8_t header[kMaxFrameHeader];
  const std::size_t header_len = store_frame_header(header, n, lane_bytes);
  out.reserve(header_len + body);
  out.insert(out.end(), header, header + header_len);
  out.insert(out.end(), lanes, lanes + body);
}

Bytes HuffmanCodec::encode(ByteSpan input) const {
  EncodeArena arena;
  Bytes out;
  huffman_encode(*table_, input, out, arena);
  return out;
}

std::size_t HuffmanCodec::decoded_length(ByteSpan input) {
  return parse_huffman_frame(input).count;
}

Bytes HuffmanCodec::decode(ByteSpan input) const {
  const HuffmanFrame frame = parse_huffman_frame(input);
  Bytes out(frame.count);
  const HuffmanTable::DecodeEntry* table = table_->decode_table();
  for (int k = 0; k < frame.lanes; ++k) {
    const HuffmanFrame::Lane& lane = frame.lane[k];
    // Bit accumulator: keep >= kMaxCodeLen bits available when possible.
    const std::uint8_t* p = lane.bits.data();
    const std::size_t nbytes = lane.bits.size();
    std::uint32_t acc = 0;
    int acc_bits = 0;
    std::size_t byte_pos = 0;
    for (std::size_t i = lane.first; i < lane.end; ++i) {
      while (acc_bits < kMaxCodeLen && byte_pos < nbytes) {
        acc = (acc << 8) | p[byte_pos++];
        acc_bits += 8;
      }
      if (acc_bits <= 0) fail("huffman: truncated stream");
      // MSB-align the next kMaxCodeLen bits (zero-pad at stream end).
      const std::uint32_t window =
          acc_bits >= kMaxCodeLen
              ? (acc >> (acc_bits - kMaxCodeLen)) & ((1u << kMaxCodeLen) - 1)
              : (acc << (kMaxCodeLen - acc_bits)) & ((1u << kMaxCodeLen) - 1);
      const auto entry = table[window];
      if (entry.length > acc_bits) fail("huffman: truncated stream");
      acc_bits -= entry.length;
      out[i] = entry.symbol;
    }
  }
  return out;
}

}  // namespace recode::codec
