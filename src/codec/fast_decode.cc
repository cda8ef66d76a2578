#include "codec/fast_decode.h"

#include <cstring>

#include "codec/arena.h"
#include "common/error.h"
#include "common/varint.h"

namespace recode::codec::fast {

namespace {

// Unaligned 8-byte big-endian load: the bit buffer appends stream bytes
// MSB-first, so a byte-swapped little-endian load hands us the next 8
// bytes already in shift-in order.
std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | p[i];
  return r;
#endif
}

std::uint32_t unzigzag32(std::uint32_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

// One Huffman lane's bit reader. The unconsumed bits sit MSB-aligned at
// the top of buf: the first `bits` are real stream bits, and below them
// buf holds either zeros or the stream bits that follow — never anything
// else — so a refill can OR new bytes in without clearing first. pos is
// the next byte not yet counted in `bits`.
//
// Readers live in named locals, never in an array: output stores go
// through a byte pointer that may alias any memory object, so only state
// the compiler can keep in registers stays out of the store path.
struct HuffmanLaneReader {
  const std::uint8_t* p;
  std::size_t nbytes;
  std::size_t pos = 0;
  std::uint64_t buf = 0;
  int bits = 0;
  std::uint8_t* out;        // next output byte
  std::uint8_t* const end;  // one past the lane's last output byte

  HuffmanLaneReader(const HuffmanFrame::Lane& lane, std::uint8_t* dst)
      : p(lane.bits.data()),
        nbytes(lane.bits.size()),
        out(dst + lane.first),
        end(dst + lane.end) {}

  // Room for one bulk round: an 8-byte load inside the lane (so buf only
  // ever holds the lane's own bits) and three 2-byte emits below end (so
  // a lane never writes into the next lane's output).
  bool bulk_ready() const { return pos + 8 <= nbytes && end - out >= 6; }

  // Tops buf up to 56..63 real bits with one unaligned load.
  void refill() {
    buf |= load_be64(p + pos) >> bits;
    pos += static_cast<std::size_t>((63 - bits) >> 3);
    bits |= 56;
  }

  // Decodes one or two symbols; needs kMaxCodeLen real bits in buf.
  void probe(const HuffmanTable::FastEntry* fast,
             const HuffmanTable::DecodeEntry* single) {
    const HuffmanTable::FastEntry e = fast[buf >> (64 - kFastTableBits)];
    if (e.count != 0) [[likely]] {
      std::memcpy(out, e.symbols, 2);
      out += e.count;
      buf <<= e.bits;
      bits -= e.bits;
    } else {
      const HuffmanTable::DecodeEntry d = single[buf >> (64 - kMaxCodeLen)];
      *out++ = d.symbol;
      buf <<= d.length;
      bits -= d.length;
    }
  }

  // Decodes the rest of the lane: bulk rounds while they fit, then a
  // scalar tail with byte-wise refill and single-symbol lookups,
  // identical to HuffmanCodec::decode including its truncation errors.
  void finish(const HuffmanTable::FastEntry* fast,
              const HuffmanTable::DecodeEntry* single) {
    while (bulk_ready()) {
      refill();
      probe(fast, single);
      probe(fast, single);
      probe(fast, single);
    }
    while (out < end) {
      while (bits < kMaxCodeLen && pos < nbytes) {
        buf |= static_cast<std::uint64_t>(p[pos++]) << (56 - bits);
        bits += 8;
      }
      if (bits <= 0) fail("huffman: truncated stream");
      // Fewer than kMaxCodeLen real bits only happens once every lane
      // byte is in buf, and bits past the lane end were never loaded, so
      // the window is zero-padded exactly like the reference's.
      const HuffmanTable::DecodeEntry d = single[buf >> (64 - kMaxCodeLen)];
      if (d.length > bits) fail("huffman: truncated stream");
      *out++ = d.symbol;
      buf <<= d.length;
      bits -= d.length;
    }
  }
};

// Snappy element tags (format_description.txt; mirrors snappy.cc).
constexpr int kTagLiteral = 0;
constexpr int kTagCopy1 = 1;
constexpr int kTagCopy2 = 2;
constexpr int kTagCopy4 = 3;

// Match copy with the destination as its own source. off >= 8: forward
// 8-byte chunks — every load trails the corresponding store by at least
// 8 bytes, so already-written output feeds later chunks and the copy
// still replicates runs correctly. off < 8: the chunks would straddle
// unwritten bytes, so fall back to the byte loop that replicates the
// short pattern. Both may write up to 7 bytes past op + len, covered by
// the destination's kArenaSlop margin.
void copy_match(std::uint8_t* dst, std::size_t op, std::size_t off,
                std::size_t len) {
  const std::uint8_t* src = dst + (op - off);
  std::uint8_t* out = dst + op;
  if (off >= 8) {
    for (std::size_t i = 0; i < len; i += 8) {
      std::uint64_t v;
      std::memcpy(&v, src + i, 8);
      std::memcpy(out + i, &v, 8);
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) out[i] = src[i];
  }
}

}  // namespace

std::size_t huffman_decode(const HuffmanTable& table, ByteSpan input,
                           std::uint8_t* dst) {
  return huffman_decode(table, parse_huffman_frame(input), dst);
}

std::size_t huffman_decode(const HuffmanTable& table,
                           const HuffmanFrame& frame, std::uint8_t* dst) {
  const HuffmanTable::FastEntry* fast = table.fast_table();
  const HuffmanTable::DecodeEntry* single = table.decode_table();
  HuffmanLaneReader l0(frame.lane[0], dst);
  if (frame.lanes == 1) {  // legacy single stream
    l0.finish(fast, single);
    return frame.count;
  }
  HuffmanLaneReader l1(frame.lane[1], dst);
  HuffmanLaneReader l2(frame.lane[2], dst);
  HuffmanLaneReader l3(frame.lane[3], dst);
  // Interleaved bulk: refill every lane, then three probes per lane in
  // turn, so the four dependent probe chains overlap in the pipeline.
  while (l0.bulk_ready() && l1.bulk_ready() && l2.bulk_ready() &&
         l3.bulk_ready()) {
    l0.refill();
    l1.refill();
    l2.refill();
    l3.refill();
    for (int probe = 0; probe < 3; ++probe) {
      l0.probe(fast, single);
      l1.probe(fast, single);
      l2.probe(fast, single);
      l3.probe(fast, single);
    }
  }
  // Then each lane finishes on its own.
  l0.finish(fast, single);
  l1.finish(fast, single);
  l2.finish(fast, single);
  l3.finish(fast, single);
  return frame.count;
}

std::size_t snappy_decode(ByteSpan input, std::uint8_t* dst) {
  std::size_t pos = 0;
  const std::uint64_t decoded =
      varint_read(input.data(), input.size(), pos);
  // Same expansion-bound rejection as the reference decoder.
  const std::size_t body = input.size() - pos;
  if (decoded > static_cast<std::uint64_t>(body) * 24 + 8) {
    fail("snappy: declared length implausible for stream size");
  }

  const std::uint8_t* p = input.data();
  const std::size_t n = input.size();
  std::size_t op = 0;

  auto need = [&](std::size_t count) {
    if (pos + count > n) fail("snappy: truncated stream");
  };
  auto room = [&](std::size_t count) {
    if (count > decoded - op) {
      fail("snappy: output exceeds declared length");
    }
  };

  while (pos < n) {
    const std::uint8_t tag = p[pos++];
    switch (tag & 3) {
      case kTagLiteral: {
        std::size_t len = (tag >> 2) + 1;
        if (len > 60) {
          const std::size_t extra = len - 60;  // 1..4 length bytes
          need(extra);
          len = 0;
          for (std::size_t i = 0; i < extra; ++i) {
            len |= static_cast<std::size_t>(p[pos + i]) << (8 * i);
          }
          len += 1;
          pos += extra;
        }
        need(len);
        room(len);
        if (len <= 16 && pos + 16 <= n) {
          // One 16-byte chunk covers the common short literal; the
          // overshoot lands in the destination slop.
          std::memcpy(dst + op, p + pos, 16);
        } else {
          std::memcpy(dst + op, p + pos, len);
        }
        op += len;
        pos += len;
        break;
      }
      case kTagCopy1: {
        need(1);
        const std::size_t len = ((tag >> 2) & 0x7) + 4;
        const std::size_t off =
            (static_cast<std::size_t>(tag >> 5) << 8) | p[pos++];
        if (off == 0 || off > op) fail("snappy: bad copy offset");
        room(len);
        copy_match(dst, op, off, len);
        op += len;
        break;
      }
      case kTagCopy2: {
        need(2);
        const std::size_t len = (tag >> 2) + 1;
        const std::size_t off = static_cast<std::size_t>(p[pos]) |
                                (static_cast<std::size_t>(p[pos + 1]) << 8);
        pos += 2;
        if (off == 0 || off > op) fail("snappy: bad copy offset");
        room(len);
        copy_match(dst, op, off, len);
        op += len;
        break;
      }
      case kTagCopy4: {
        need(4);
        const std::size_t len = (tag >> 2) + 1;
        std::size_t off = 0;
        for (int i = 0; i < 4; ++i) {
          off |= static_cast<std::size_t>(p[pos + i]) << (8 * i);
        }
        pos += 4;
        if (off == 0 || off > op) fail("snappy: bad copy offset");
        room(len);
        copy_match(dst, op, off, len);
        op += len;
        break;
      }
    }
  }
  if (op != decoded) fail("snappy: length mismatch after decode");
  return op;
}

std::size_t delta_decode(ByteSpan input, std::uint8_t* dst) {
  if (input.size() % 4 != 0) fail("delta32: input not a multiple of 4 bytes");
  const std::uint8_t* p = input.data();
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < input.size(); i += 4) {
    std::uint32_t z;
    std::memcpy(&z, p + i, 4);
    acc += unzigzag32(z);
    std::memcpy(dst + i, &acc, 4);
  }
  return input.size();
}

std::size_t varint_delta_decode(ByteSpan input, std::uint8_t* dst,
                                std::size_t dst_cap) {
  std::uint32_t acc = 0;
  std::size_t pos = 0;
  std::size_t out = 0;
  while (pos < input.size()) {
    const std::uint64_t z = varint_read(input.data(), input.size(), pos);
    if (z > 0xFFFFFFFFull) fail("varint-delta32: delta exceeds 32 bits");
    acc += unzigzag32(static_cast<std::uint32_t>(z));
    // Past dst_cap only the running total advances: the caller detects
    // the overflow as a size mismatch after the full parse, exactly
    // where the reference decode-then-check order surfaces it.
    if (out + 4 <= dst_cap) std::memcpy(dst + out, &acc, 4);
    out += 4;
  }
  return out;
}

std::size_t byte_untranspose(ByteSpan input, std::uint8_t* dst) {
  const std::size_t n = input.size() / 8;
  const std::uint8_t* p = input.data();
  // Gather each record's 8 plane bytes into one word, store with a single
  // 8-byte write. Plane j's byte sits at bit 8*j, so the little-endian
  // store lands it at record offset j.
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      w |= static_cast<std::uint64_t>(p[j * n + r]) << (8 * j);
    }
    std::memcpy(dst + r * 8, &w, 8);
  }
  if (const std::size_t tail = input.size() - n * 8; tail != 0) {
    std::memcpy(dst + n * 8, p + n * 8, tail);
  }
  return input.size();
}

}  // namespace recode::codec::fast
