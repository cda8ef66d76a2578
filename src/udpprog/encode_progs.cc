#include "udpprog/encode_progs.h"

#include <array>

#include "common/varint.h"

namespace recode::udpprog {

using namespace udp;  // NOLINT: program builders read better unqualified

namespace {

DispatchSpec direct() { return DispatchSpec{}; }

DispatchSpec halt_spec() {
  DispatchSpec d;
  d.kind = DispatchKind::kHalt;
  return d;
}

DispatchSpec reg_bool(int reg) {
  DispatchSpec d;
  d.kind = DispatchKind::kRegisterBool;
  d.reg = reg;
  return d;
}

DispatchSpec sign_of(int reg) {
  DispatchSpec d;
  d.kind = DispatchKind::kRegister;
  d.reg = reg;
  d.shift = 63;
  d.mask = 1;
  return d;
}

DispatchSpec stream_byte() {
  DispatchSpec d;
  d.kind = DispatchKind::kStreamBits;
  d.bits = 8;
  return d;
}

}  // namespace

udp::Program build_delta_encode_program() {
  Program p;
  // R1 count, R2 prev, R3 word, R4 diff, R5 out, R6 sign mask, R7 tmp.
  constexpr int kR1 = kEncodeCountReg, kR2 = 2, kR3 = 3, kR4 = 4,
                kR5 = kEncodeOutReg, kR6 = 6;

  const StateId loop = p.add_state("loop", reg_bool(kR1));
  const StateId halt = p.add_state("halt", halt_spec());

  p.add_arc(loop, 0, {}, halt);
  // diff = word - prev (mod 2^32); zigzag = (diff << 1) ^ sext32(diff).
  p.add_arc(loop, 1,
            {
                act::stream_read_le(kR3, 4),
                act::sub(kR4, kR3, Operand::r(kR2)),
                act::move(kR2, kR3),                      // prev = word
                act::shl(kR6, kR4, Operand::immediate(32)),
                act::sar(kR6, kR6, Operand::immediate(63)),  // sign of bit 31
                act::shl(kR4, kR4, Operand::immediate(1)),
                act::xor_(kR4, kR4, Operand::r(kR6)),
                act::store_le(kR4, kR5, 0, 4),            // truncates mod 2^32
                act::add(kR5, kR5, Operand::immediate(4)),
                act::sub(kR1, kR1, Operand::immediate(1)),
            },
            loop);
  p.set_entry(loop);
  p.validate();
  return p;
}

udp::Program build_huffman_encode_program(const codec::HuffmanTable& table) {
  Program p;
  // R1 count, R3 bit accumulator, R4 live bit count, R5 out cursor,
  // R7/R8/R9 tmps, R14 varint scratch.
  constexpr int kR1 = kEncodeCountReg, kR3 = 3, kR4 = 4,
                kR5 = kEncodeOutReg, kR7 = 7, kR8 = 8, kR9 = 9, kR14 = 14;

  const StateId init = p.add_state("init", direct());
  const StateId vloop = p.add_state("vloop", direct());
  const StateId vtest = p.add_state("vtest", reg_bool(kR7));
  const StateId check = p.add_state("check", reg_bool(kR1));
  const StateId sym = p.add_state("sym", stream_byte());
  const StateId flush = p.add_state("flush", direct());
  const StateId flush_t = p.add_state("flush_t", sign_of(kR8));
  const StateId tail = p.add_state("tail", reg_bool(kR4));
  const StateId halt = p.add_state("halt", halt_spec());

  // --- out cursor + varint(symbol count), identical to the software
  // --- encoder's framing ---
  p.add_arc(init, 0,
            {
                act::set_imm(kR5, kEncodeOutBase),
                act::move(kR14, kR1),
            },
            vloop);
  p.add_arc(vloop, 0, {act::shr(kR7, kR14, Operand::immediate(7))}, vtest);
  p.add_arc(vtest, 1,
            {
                act::and_(kR8, kR14, Operand::immediate(0x7F)),
                act::or_(kR8, kR8, Operand::immediate(0x80)),
                act::store_le(kR8, kR5, 0, 1),
                act::add(kR5, kR5, Operand::immediate(1)),
                act::move(kR14, kR7),
            },
            vloop);
  p.add_arc(vtest, 0,
            {
                act::store_le(kR14, kR5, 0, 1),
                act::add(kR5, kR5, Operand::immediate(1)),
            },
            check);

  // --- per-symbol: append the canonical code, then drain whole bytes ---
  p.add_arc(check, 0, {}, tail);
  p.add_arc(check, 1, {}, sym);
  for (std::uint32_t b = 0; b < 256; ++b) {
    const auto code = table.code(static_cast<std::uint8_t>(b));
    const auto len = table.length(static_cast<std::uint8_t>(b));
    p.add_arc(sym, b,
              {
                  act::shl(kR3, kR3, Operand::immediate(len)),
                  act::or_(kR3, kR3, Operand::immediate(code)),
                  act::add(kR4, kR4, Operand::immediate(len)),
                  act::sub(kR1, kR1, Operand::immediate(1)),
              },
              flush);
  }
  p.add_arc(flush, 0, {act::sub(kR8, kR4, Operand::immediate(8))}, flush_t);
  p.add_arc(flush_t, 1, {}, check);  // fewer than 8 live bits
  p.add_arc(flush_t, 0,
            {
                act::sub(kR4, kR4, Operand::immediate(8)),
                act::shr(kR9, kR3, Operand::r(kR4)),
                act::store_le(kR9, kR5, 0, 1),
                act::add(kR5, kR5, Operand::immediate(1)),
            },
            flush);

  // --- zero-pad the final partial byte ---
  p.add_arc(tail, 0, {}, halt);
  p.add_arc(tail, 1,
            {
                act::set_imm(kR8, 8),
                act::sub(kR8, kR8, Operand::r(kR4)),
                act::shl(kR9, kR3, Operand::r(kR8)),
                act::store_le(kR9, kR5, 0, 1),
                act::add(kR5, kR5, Operand::immediate(1)),
            },
            halt);

  p.set_entry(init);
  p.validate();
  return p;
}

codec::Bytes udp_huffman_encode(const udp::Layout& layout,
                                codec::ByteSpan raw) {
  const std::size_t n = raw.size();
  udp::Lane lane(layout);
  std::array<codec::Bytes, codec::kHuffmanLanes> lanes;
  for (int k = 0; k < codec::kHuffmanLanes; ++k) {
    const std::size_t first = codec::huffman_lane_start(n, k);
    const std::size_t symbols = codec::huffman_lane_start(n, k + 1) - first;
    const std::pair<int, std::uint64_t> init[] = {{kEncodeCountReg, symbols}};
    lane.run(raw.subspan(first, symbols), init);
    const auto out = lane.scratch();
    const auto end = static_cast<std::size_t>(lane.reg(kEncodeOutReg));
    std::size_t pos = kEncodeOutBase;
    varint_read(out.data(), end, pos);  // the lane's own symbol count
    lanes[k].assign(out.begin() + static_cast<std::ptrdiff_t>(pos),
                    out.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return codec::write_huffman_frame(n, lanes);
}

}  // namespace recode::udpprog
