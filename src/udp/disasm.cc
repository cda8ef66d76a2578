#include "udp/disasm.h"

#include <algorithm>
#include <cstdio>

namespace recode::udp {

namespace {

// One string built by append. GCC 12 reports a -Wrestrict false positive
// on `"literal" + std::string` chains once they are inlined.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

std::string operand(const Operand& o) {
  if (!o.is_imm) return cat("r", std::to_string(o.reg));
  char buf[24];
  if (o.imm > 0xFFFF) {
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(o.imm));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(o.imm));
  }
  return buf;
}

}  // namespace

std::string format_action(const Action& a) {
  const std::string dst = cat("r", std::to_string(a.dst));
  switch (a.op) {
    case Op::kSetImm:
      return cat("set ", dst, ", ", operand(a.a));
    case Op::kMove:
      return cat("mov ", dst, ", ", operand(a.a));
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kSar:
    case Op::kMul:
      return cat(op_name(a.op), " ", dst, ", ", operand(a.a), ", ",
                 operand(a.b));
    case Op::kNot:
      return cat("not ", dst, ", ", operand(a.a));
    case Op::kLoadLe:
      return cat("ldle", std::to_string(a.width), " ", dst, ", [",
                 operand(a.a), "+", std::to_string(a.b.imm), "]");
    case Op::kStoreLe:
      return cat("stle", std::to_string(a.width), " [", operand(a.a), "+",
                 std::to_string(a.b.imm), "], ", dst);
    case Op::kStreamReadBits:
      return cat("srdb ", dst, ", ", operand(a.b));
    case Op::kStreamPeekBits:
      return cat("spkb ", dst, ", ", operand(a.b));
    case Op::kStreamSkipBits:
      return cat("sskb ", operand(a.b));
    case Op::kStreamRewindBits:
      return cat("srwb ", operand(a.b));
    case Op::kStreamReadLe:
      return cat("srdl", std::to_string(a.width), " ", dst);
    case Op::kStreamCopy:
      return cat("scpy [", operand(a.a), "], ", operand(a.b));
    case Op::kScratchCopy:
      return cat("mcpy [", dst, "], [", operand(a.a), "], ", operand(a.b));
  }
  return "?";
}

std::string format_dispatch(const DispatchSpec& d) {
  switch (d.kind) {
    case DispatchKind::kDirect:
      return "dispatch direct";
    case DispatchKind::kStreamBits:
      return cat("dispatch stream[", std::to_string(d.bits), "]");
    case DispatchKind::kRegister: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "dispatch (r%d >> %d) & 0x%llx", d.reg,
                    d.shift, static_cast<unsigned long long>(d.mask));
      return buf;
    }
    case DispatchKind::kRegisterBool:
      return cat("dispatch r", std::to_string(d.reg), " != 0");
    case DispatchKind::kHalt:
      return "halt";
  }
  return "?";
}

std::string disassemble(const Program& program) {
  std::string out;
  for (std::size_t sid = 0; sid < program.state_count(); ++sid) {
    const State& s = program.state(static_cast<StateId>(sid));
    out.append(s.name).append(":  ; ").append(format_dispatch(s.dispatch));
    out.append("\n");
    // Collapse runs of arcs with identical actions/targets (Huffman and
    // Snappy tag tables would otherwise print hundreds of identical rows).
    for (std::size_t i = 0; i < s.arcs.size();) {
      std::size_t j = i + 1;
      auto same = [&](const Arc& a, const Arc& b) {
        if (a.next != b.next || a.actions.size() != b.actions.size()) {
          return false;
        }
        for (std::size_t k = 0; k < a.actions.size(); ++k) {
          if (format_action(a.actions[k]) != format_action(b.actions[k])) {
            return false;
          }
        }
        return true;
      };
      while (j < s.arcs.size() && s.arcs[j].symbol == s.arcs[j - 1].symbol + 1 &&
             same(s.arcs[i], s.arcs[j])) {
        ++j;
      }
      char sym[32];
      if (j - i > 1) {
        std::snprintf(sym, sizeof(sym), "  [%u..%u]", s.arcs[i].symbol,
                      s.arcs[j - 1].symbol);
      } else {
        std::snprintf(sym, sizeof(sym), "  [%u]", s.arcs[i].symbol);
      }
      out.append(sym).append(":");
      for (const Action& a : s.arcs[i].actions) {
        out.append(" ").append(format_action(a)).append(";");
      }
      out.append(" -> ").append(program.state(s.arcs[i].next).name);
      out.append("\n");
      i = j;
    }
  }
  return out;
}

ProgramSummary summarize(const Layout& layout) {
  const Program& p = layout.program();
  ProgramSummary s;
  s.states = p.state_count();
  s.arcs = p.arc_count();
  s.table_slots = layout.table_size();
  s.density = layout.density();
  for (std::size_t sid = 0; sid < p.state_count(); ++sid) {
    const State& st = p.state(static_cast<StateId>(sid));
    s.max_fanout = std::max(s.max_fanout, st.dispatch.fanout());
    for (const Arc& a : st.arcs) s.actions += a.actions.size();
  }
  return s;
}

std::string format_summary(const std::string& name,
                           const ProgramSummary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%-22s states=%-4zu arcs=%-5zu actions=%-5zu slots=%-5zu "
                "density=%.3f max-fanout=%zu",
                name.c_str(), s.states, s.arcs, s.actions, s.table_slots,
                s.density, s.max_fanout);
  return buf;
}

}  // namespace recode::udp
