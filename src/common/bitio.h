// MSB-first bit stream reader/writer: the plain reference form of the
// Huffman bit order. The production encoder packs lanes itself
// (codec/huffman.cc); tests use BitWriter to build legacy single-stream
// payloads.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace recode {

// Accumulates bits MSB-first into a byte vector. The final byte is
// zero-padded on finish().
//
// Whole codes go into a 64-bit accumulator; once 32 or more bits are
// pending, the top 32 drain as four bytes at once. Fewer than 32 bits are
// pending before a write and at most 32 arrive, so the accumulator never
// overflows.
class BitWriter {
 public:
  // Writes the low `nbits` bits of `value`, most significant first.
  void write(std::uint32_t value, int nbits) {
    RECODE_CHECK(nbits >= 0 && nbits <= 32);
    const std::uint64_t mask = (std::uint64_t{1} << nbits) - 1;
    acc_ = (acc_ << nbits) | (value & mask);
    nacc_ += nbits;
    if (nacc_ >= 32) {
      nacc_ -= 32;
      const auto word = static_cast<std::uint32_t>(acc_ >> nacc_);
      const std::uint8_t be[4] = {static_cast<std::uint8_t>(word >> 24),
                                  static_cast<std::uint8_t>(word >> 16),
                                  static_cast<std::uint8_t>(word >> 8),
                                  static_cast<std::uint8_t>(word)};
      bytes_.insert(bytes_.end(), be, be + 4);
    }
    bit_count_ += static_cast<std::size_t>(nbits);
  }

  // Drains the pending bits, pads the trailing partial byte with zeros and
  // returns the buffer.
  std::vector<std::uint8_t> finish() {
    while (nacc_ >= 8) {
      nacc_ -= 8;
      bytes_.push_back(static_cast<std::uint8_t>(acc_ >> nacc_));
    }
    if (nacc_ > 0) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - nacc_)));
    }
    acc_ = 0;
    nacc_ = 0;
    return std::move(bytes_);
  }

  std::size_t bit_count() const { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  // low nacc_ bits are pending output
  int nacc_ = 0;
  std::size_t bit_count_ = 0;
};

// Reads bits MSB-first from a byte buffer. Does not own the buffer.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  // Reads `nbits` bits MSB-first. Throws on exhaustion.
  std::uint32_t read(int nbits) {
    RECODE_CHECK(nbits >= 0 && nbits <= 32);
    std::uint32_t v = 0;
    for (int i = 0; i < nbits; ++i) v = (v << 1) | read_bit();
    return v;
  }

  std::uint32_t read_bit() {
    if (byte_pos_ >= size_) fail("BitReader: out of data");
    const std::uint32_t bit = (data_[byte_pos_] >> (7 - bit_pos_)) & 1u;
    if (++bit_pos_ == 8) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
    return bit;
  }

  // Bits consumed so far.
  std::size_t position() const { return byte_pos_ * 8 + bit_pos_; }

  bool exhausted() const { return byte_pos_ >= size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

}  // namespace recode
