#include "udpprog/huffman_prog.h"

#include <cstring>
#include <map>

#include "common/error.h"
#include "common/varint.h"

namespace recode::udpprog {

using namespace udp;  // NOLINT: program builders read better unqualified
using codec::HuffmanTable;
using codec::kMaxCodeLen;

udp::Program build_huffman_decode_program(const HuffmanTable& table) {
  Program p;

  // Registers: R1 symbol count (varint), R2 varint byte, R3 symbol,
  // R5 output cursor, R6 varint shift, R7 tmp.
  constexpr int kR1 = 1, kR2 = 2, kR3 = 3, kR5 = kHuffmanOutReg, kR6 = 6,
                kR7 = 7;

  DispatchSpec direct;
  direct.kind = DispatchKind::kDirect;

  DispatchSpec halt_spec;
  halt_spec.kind = DispatchKind::kHalt;

  const StateId vint = p.add_state("vint", direct);

  DispatchSpec vint_test_spec;
  vint_test_spec.kind = DispatchKind::kRegister;
  vint_test_spec.reg = kR2;
  vint_test_spec.shift = 7;
  vint_test_spec.mask = 1;
  const StateId vint_test = p.add_state("vint_test", vint_test_spec);

  DispatchSpec check_spec;
  check_spec.kind = DispatchKind::kRegisterBool;
  check_spec.reg = kR1;
  const StateId check = p.add_state("check", check_spec);

  DispatchSpec l1_spec;
  l1_spec.kind = DispatchKind::kStreamBits;
  l1_spec.bits = 8;
  const StateId l1 = p.add_state("l1", l1_spec);

  const StateId halt = p.add_state("halt", halt_spec);

  // --- varint(symbol count) parse ---
  p.add_arc(vint, 0, {act::stream_read_bits(kR2, Operand::immediate(8))},
            vint_test);
  const std::vector<Action> accumulate = {
      act::and_(kR7, kR2, Operand::immediate(0x7F)),
      act::shl(kR7, kR7, Operand::r(kR6)),
      act::or_(kR1, kR1, Operand::r(kR7)),
      act::add(kR6, kR6, Operand::immediate(7)),
  };
  p.add_arc(vint_test, 1, accumulate, vint);  // continuation bit set
  p.add_arc(vint_test, 0,
            {
                act::and_(kR7, kR2, Operand::immediate(0x7F)),
                act::shl(kR7, kR7, Operand::r(kR6)),
                act::or_(kR1, kR1, Operand::r(kR7)),
            },
            check);

  // --- count check loop ---
  p.add_arc(check, 0, {}, halt);
  p.add_arc(check, 1, {}, l1);

  // Emits symbol `sym` whose code occupies `len` of the `seen` bits already
  // consumed by the dispatch(es).
  auto emit_actions = [&](std::uint8_t sym, int len, int seen) {
    std::vector<Action> actions;
    if (seen > len) {
      actions.push_back(act::stream_rewind_bits(
          Operand::immediate(static_cast<std::uint64_t>(seen - len))));
    }
    actions.push_back(act::set_imm(kR3, sym));
    actions.push_back(act::store_le(kR3, kR5, 0, 1));
    actions.push_back(act::add(kR5, kR5, Operand::immediate(1)));
    actions.push_back(act::sub(kR1, kR1, Operand::immediate(1)));
    return actions;
  };

  // --- level-1: dispatch on the next 8 bits ---
  const HuffmanTable::DecodeEntry* dt = table.decode_table();
  std::map<std::uint32_t, StateId> l2_states;  // prefix -> state
  DispatchSpec l2_spec;
  l2_spec.kind = DispatchKind::kStreamBits;
  l2_spec.bits = kMaxCodeLen - 8;  // 7 bits

  for (std::uint32_t prefix = 0; prefix < 256; ++prefix) {
    const auto entry = dt[prefix << (kMaxCodeLen - 8)];
    if (entry.length <= 8) {
      // The 8-bit prefix fully determines the code.
      p.add_arc(l1, prefix, emit_actions(entry.symbol, entry.length, 8),
                check);
    } else {
      const StateId l2 =
          p.add_state("l2_" + std::to_string(prefix), l2_spec);
      l2_states[prefix] = l2;
      p.add_arc(l1, prefix, {}, l2);
    }
  }

  // --- level-2 states for long codes ---
  for (const auto& [prefix, l2] : l2_states) {
    for (std::uint32_t suffix = 0; suffix < (1u << (kMaxCodeLen - 8));
         ++suffix) {
      const std::uint32_t window = (prefix << (kMaxCodeLen - 8)) | suffix;
      const auto entry = dt[window];
      p.add_arc(l2, suffix,
                emit_actions(entry.symbol, entry.length, kMaxCodeLen), check);
    }
  }

  p.set_entry(vint);
  p.validate();
  return p;
}

std::uint64_t udp_huffman_decode(const udp::Layout& layout,
                                 const codec::HuffmanFrame& frame,
                                 std::uint8_t* dst,
                                 const udp::LaneConfig& config) {
  udp::Lane lane(layout, config);
  const std::pair<int, std::uint64_t> init[] = {{kHuffmanOutReg, 0}};
  codec::Bytes input;
  std::uint64_t cycles = 0;
  for (int k = 0; k < frame.lanes; ++k) {
    const codec::HuffmanFrame::Lane& l = frame.lane[k];
    const std::size_t symbols = l.end - l.first;
    input.clear();
    varint_append(input, symbols);
    input.insert(input.end(), l.bits.begin(), l.bits.end());
    cycles += lane.run(input, init).cycles;
    if (lane.reg(kHuffmanOutReg) != symbols) {
      fail("udp huffman: lane output size mismatch");
    }
    if (symbols != 0) {
      std::memcpy(dst + l.first, lane.scratch().data(), symbols);
    }
  }
  return cycles;
}

}  // namespace recode::udpprog
