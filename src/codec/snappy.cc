#include "codec/snappy.h"

#include <cstring>

#include "codec/arena.h"
#include "common/error.h"
#include "common/varint.h"

namespace recode::codec {

namespace {

constexpr int kTagLiteral = 0;
constexpr int kTagCopy1 = 1;
constexpr int kTagCopy2 = 2;
constexpr int kTagCopy4 = 3;

constexpr std::size_t kMaxOffset = 65535;  // stay within 2-byte copies
// The format's largest uncompressed length (its preamble is a 32-bit
// varint in the reference implementation).
constexpr std::size_t kMaxInput = 0xFFFFFFFFu;

// Miss acceleration (snappy.h): the scan step is skip++ / kMissesPerStep
// with skip starting at kMissesPerStep, so the step grows by one byte per
// kMissesPerStep probes since the last match.
constexpr std::uint32_t kMissesPerStep = 128;

std::uint32_t load32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint32_t hash4(std::uint32_t v) {
  return (v * 0x1E35A7BDu) >> (32 - kSnappyHashBits);
}

// Emits a literal run [lit, lit+len) at op, returning the new end.
std::uint8_t* emit_literal(std::uint8_t* op, const std::uint8_t* lit,
                           std::size_t len) {
  while (len > 0) {
    // A single literal tag can carry up to 2^32 bytes; cap runs at 2^16 to
    // keep extra-length bytes at <=2 (blocks here are tiny anyway).
    const std::size_t run = std::min<std::size_t>(len, 65536);
    if (run < 60) {
      *op++ = static_cast<std::uint8_t>(((run - 1) << 2) | kTagLiteral);
    } else if (run <= 256) {
      *op++ = static_cast<std::uint8_t>((60 << 2) | kTagLiteral);
      *op++ = static_cast<std::uint8_t>(run - 1);
    } else {
      *op++ = static_cast<std::uint8_t>((61 << 2) | kTagLiteral);
      *op++ = static_cast<std::uint8_t>((run - 1) & 0xFF);
      *op++ = static_cast<std::uint8_t>(((run - 1) >> 8) & 0xFF);
    }
    std::memcpy(op, lit, run);
    op += run;
    lit += run;
    len -= run;
  }
  return op;
}

// Emits one copy element of length 4..64 (callers split longer matches).
std::uint8_t* emit_copy_chunk(std::uint8_t* op, std::size_t offset,
                              std::size_t len) {
  if (len >= 4 && len <= 11 && offset < 2048) {
    *op++ = static_cast<std::uint8_t>(((offset >> 8) << 5) |
                                      ((len - 4) << 2) | kTagCopy1);
    *op++ = static_cast<std::uint8_t>(offset & 0xFF);
  } else {
    *op++ = static_cast<std::uint8_t>(((len - 1) << 2) | kTagCopy2);
    *op++ = static_cast<std::uint8_t>(offset & 0xFF);
    *op++ = static_cast<std::uint8_t>((offset >> 8) & 0xFF);
  }
  return op;
}

std::uint8_t* emit_copy(std::uint8_t* op, std::size_t offset,
                        std::size_t len) {
  // Long matches are split; keep >=4-byte chunks so 1-byte-offset form
  // stays legal for the remainder.
  while (len >= 68) {
    op = emit_copy_chunk(op, offset, 64);
    len -= 64;
  }
  if (len > 64) {
    op = emit_copy_chunk(op, offset, 60);
    len -= 60;
  }
  return emit_copy_chunk(op, offset, len);
}

}  // namespace

std::size_t snappy_encode(ByteSpan input, std::uint8_t* dst,
                          EncodeArena& arena) {
  const std::size_t n = input.size();
  if (n > kMaxInput) fail("snappy: input exceeds the format's 2^32 - 1 bytes");
  std::uint8_t* op = dst + varint_store(dst, n);
  if (n == 0) return static_cast<std::size_t>(op - dst);

  const std::uint8_t* base = input.data();
  // Entries hold epoch + pos + 1, and entries <= epoch are empty
  // (arena.h): the table is reused without re-zeroing, and below
  // kMaxInput every stamp fits in 4 bytes.
  const auto [table, epoch] = arena.snappy_table(n);

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  std::uint32_t skip = kMissesPerStep;
  // Leave a 4-byte tail so load32 never overruns.
  while (pos + 4 <= n) {
    const std::uint32_t cur = load32(base + pos);
    const std::uint32_t h = hash4(cur);
    const std::uint32_t entry = table[h];
    table[h] = epoch + static_cast<std::uint32_t>(pos + 1);
    const std::size_t off = pos + 1 - (entry - epoch);
    if (entry > epoch && off <= kMaxOffset &&
        load32(base + pos - off) == cur) {
      // Extend the match forward.
      std::size_t match_len = 4;
      while (pos + match_len < n &&
             base[pos - off + match_len] == base[pos + match_len]) {
        ++match_len;
      }
      if (literal_start < pos) {
        op = emit_literal(op, base + literal_start, pos - literal_start);
      }
      op = emit_copy(op, off, match_len);
      // Re-seed the hash table sparsely inside the match (cheap, standard).
      const std::size_t end = pos + match_len;
      for (std::size_t p = pos + 1; p + 4 <= end && p + 4 <= n; p += 13) {
        table[hash4(load32(base + p))] =
            epoch + static_cast<std::uint32_t>(p + 1);
      }
      pos = end;
      literal_start = pos;
      skip = kMissesPerStep;
    } else {
      pos += skip++ / kMissesPerStep;
    }
  }
  if (literal_start < n) {
    op = emit_literal(op, base + literal_start, n - literal_start);
  }
  return static_cast<std::size_t>(op - dst);
}

Bytes SnappyCodec::encode(ByteSpan input) const {
  EncodeArena arena;
  Bytes out(snappy_max_encoded_length(input.size()));
  out.resize(snappy_encode(input, out.data(), arena));
  return out;
}

std::size_t SnappyCodec::decoded_length(ByteSpan input) {
  std::size_t pos = 0;
  return static_cast<std::size_t>(
      varint_read(input.data(), input.size(), pos));
}

Bytes SnappyCodec::decode(ByteSpan input) const {
  std::size_t pos = 0;
  const std::uint64_t decoded =
      varint_read(input.data(), input.size(), pos);
  // The length preamble is untrusted: cap it against the format's maximum
  // expansion before reserving. A copy element emits at most 64 bytes from
  // 3 stream bytes (~22x); anything above that bound cannot be produced by
  // the remaining stream, so a huge declared length is corruption, not a
  // reason to attempt a multi-GB allocation.
  const std::size_t body = input.size() - pos;
  if (decoded > static_cast<std::uint64_t>(body) * 24 + 8) {
    fail("snappy: declared length implausible for stream size");
  }
  Bytes out;
  out.reserve(decoded);

  const std::uint8_t* p = input.data();
  const std::size_t n = input.size();

  auto need = [&](std::size_t count) {
    if (pos + count > n) fail("snappy: truncated stream");
  };
  // Rejects elements that would push the output past the declared length,
  // so corrupt streams cannot grow the buffer beyond the capped reserve.
  auto room = [&](std::size_t count) {
    if (count > decoded - out.size()) {
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
        out.insert(out.end(), p + pos, p + pos + len);
        pos += len;
        break;
      }
      case kTagCopy1: {
        need(1);
        const std::size_t len = ((tag >> 2) & 0x7) + 4;
        const std::size_t off =
            (static_cast<std::size_t>(tag >> 5) << 8) | p[pos++];
        if (off == 0 || off > out.size()) fail("snappy: bad copy offset");
        room(len);
        // Byte-by-byte copy: overlapping copies (off < len) are legal and
        // replicate the run, matching the format semantics.
        for (std::size_t i = 0; i < len; ++i) {
          out.push_back(out[out.size() - off]);
        }
        break;
      }
      case kTagCopy2: {
        need(2);
        const std::size_t len = (tag >> 2) + 1;
        const std::size_t off = static_cast<std::size_t>(p[pos]) |
                                (static_cast<std::size_t>(p[pos + 1]) << 8);
        pos += 2;
        if (off == 0 || off > out.size()) fail("snappy: bad copy offset");
        room(len);
        for (std::size_t i = 0; i < len; ++i) {
          out.push_back(out[out.size() - off]);
        }
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
        if (off == 0 || off > out.size()) fail("snappy: bad copy offset");
        room(len);
        for (std::size_t i = 0; i < len; ++i) {
          out.push_back(out[out.size() - off]);
        }
        break;
      }
    }
  }
  if (out.size() != decoded) fail("snappy: length mismatch after decode");
  return out;
}

}  // namespace recode::codec
