#include "advm/lint/analyses.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <set>

#include "isa/opcodes.h"
#include "isa/registers.h"

namespace advm::lint {

namespace {

using isa::Opcode;

/// Register-file bitmask numbering: bits 0-15 = d0-d15, 16-31 = a0-a15.
constexpr std::uint32_t kAllRegs = 0xFFFF'FFFFu;

std::uint32_t reg_bit(const isa::RegSpec& r) {
  return 1u << (r.index + (r.is_address() ? 16 : 0));
}

std::string reg_name(unsigned bit) {
  std::string out(1, bit < 16 ? 'd' : 'a');
  out += std::to_string(bit & 15);
  return out;
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

/// Registers an instruction reads and writes. `clobber` marks CALL/TRAP:
/// the callee may read and write anything, so dataflow must treat every
/// register as consumed and (re)defined across the instruction.
struct DefUse {
  std::uint32_t uses = 0;
  std::uint32_t defs = 0;
  bool clobber = false;
};

DefUse def_use(const isa::Instruction& in) {
  DefUse du;
  const std::uint32_t rc = in.rc ? reg_bit(*in.rc) : 0;
  const std::uint32_t ra = in.ra ? reg_bit(*in.ra) : 0;
  // rb is only populated for register and register-indirect source forms,
  // so its presence is exactly "the source operand reads a register".
  const std::uint32_t rb = in.rb ? reg_bit(*in.rb) : 0;
  switch (in.op) {
    case Opcode::Mov:
    case Opcode::Load:
    case Opcode::Lea:
      du.defs = rc;
      du.uses = rb;
      break;
    case Opcode::Store:
      du.uses = ra | rb;
      break;
    case Opcode::Push:
      du.uses = ra;
      break;
    case Opcode::Pop:
      du.defs = rc;
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Sar:
    case Opcode::Insert:
      du.defs = rc;
      du.uses = ra | rb;
      break;
    case Opcode::Not:
    case Opcode::Extract:
      du.defs = rc;
      du.uses = ra;
      break;
    case Opcode::Cmp:
      du.uses = ra | rb;
      break;
    case Opcode::Jmp:
      du.uses = rb;  // indirect target register, when present
      break;
    case Opcode::Call:
      du.uses = rb;
      du.clobber = true;
      break;
    case Opcode::Trap:
      du.clobber = true;
      break;
    case Opcode::Mfcr:
      du.defs = rc;
      break;
    case Opcode::Mtcr:
      du.uses = ra;
      break;
    default:
      break;  // Nop/Halt/Break/Return/Reti/Disable/Enable
  }
  return du;
}

/// The scope filter as a predicate: a finding survives iff its address
/// lies in a code region emitted by `scope_source`. An empty scope
/// (whole-image mode) admits everything.
class Scope {
 public:
  Scope(const CodeModel& model, const std::string& source)
      : model_(model), source_(source) {}

  [[nodiscard]] bool contains(const CodeRegion& region) const {
    return source_.empty() || region.source == source_;
  }
  [[nodiscard]] bool contains(std::uint32_t address) const {
    if (source_.empty()) return true;
    const CodeRegion* region = model_.region_of(address);
    return region != nullptr && contains(*region);
  }

 private:
  const CodeModel& model_;
  const std::string& source_;
};

/// A function root and its slot addresses (function_addresses order).
struct Function {
  std::uint32_t root = 0;
  std::vector<std::uint32_t> addresses;
};

/// The functions whose findings can survive the scope filter: every root
/// whose body has at least one slot inside the scope. Per-function passes
/// only ever report at addresses of the function they analyse, so a
/// skipped root could only have produced findings the filter drops.
std::vector<Function> scoped_functions(const CodeModel& model,
                                       const Scope& scope) {
  std::vector<Function> out;
  for (const std::uint32_t root : model.roots) {
    std::vector<std::uint32_t> fn = function_addresses(model, root);
    if (std::any_of(fn.begin(), fn.end(), [&](std::uint32_t address) {
          return scope.contains(address);
        })) {
      out.push_back({root, std::move(fn)});
    }
  }
  return out;
}

void emit(std::vector<Finding>* out, const char* code, std::uint32_t address,
          std::string detail) {
  Finding f;
  f.code = code;
  f.address = address;
  f.detail = std::move(detail);
  out->push_back(std::move(f));
}

/// advm.lint-undef-reg — forward may-be-undefined analysis over the entry
/// function. Only the link entry starts with an undefined register file
/// (reset primes just the stack pointer); every other root is a callee or
/// handler whose caller context is unknown and therefore assumed fully
/// defined — that asymmetry is what keeps the pass false-positive-free on
/// wrapper-heavy ADVM code.
void find_undef_reg(const CodeModel& model,
                    const std::vector<Function>& functions,
                    std::vector<Finding>* out) {
  const auto entry_fn =
      std::find_if(functions.begin(), functions.end(),
                   [&](const Function& f) { return f.root == model.entry; });
  if (entry_fn == functions.end()) return;  // entry lies outside the scope
  const std::uint32_t sp_bit =
      1u << (16 + static_cast<unsigned>(isa::kStackPointerIndex));
  const std::vector<std::uint32_t>& fn = entry_fn->addresses;
  const std::set<std::uint32_t> in_fn(fn.begin(), fn.end());

  std::map<std::uint32_t, std::uint32_t> undef_in;  // may-undef mask
  undef_in[model.entry] = kAllRegs & ~sp_bit;
  std::vector<std::uint32_t> work{model.entry};
  std::vector<std::uint32_t> succ;
  while (!work.empty()) {
    const std::uint32_t address = work.back();
    work.pop_back();
    const Slot* slot = model.slot_at(address);
    if (slot == nullptr || !slot->instr) continue;
    const DefUse du = def_use(*slot->instr);
    const std::uint32_t in_mask = undef_in[address];
    const std::uint32_t out_mask =
        du.clobber ? 0 : (in_mask & ~du.defs);
    succ.clear();
    append_flow_successors(*slot, &succ);
    for (const std::uint32_t s : succ) {
      if (in_fn.find(s) == in_fn.end()) continue;
      auto [it, inserted] = undef_in.try_emplace(s, out_mask);
      if (inserted) {
        work.push_back(s);
      } else if ((it->second | out_mask) != it->second) {
        it->second |= out_mask;
        work.push_back(s);
      }
    }
  }

  for (const std::uint32_t address : fn) {
    const auto it = undef_in.find(address);
    if (it == undef_in.end()) continue;
    const Slot* slot = model.slot_at(address);
    if (!slot->instr) continue;
    std::uint32_t bad = def_use(*slot->instr).uses & it->second;
    while (bad != 0) {
      const unsigned bit =
          static_cast<unsigned>(std::countr_zero(bad));
      bad &= bad - 1;
      emit(out, kUndefReg, address,
           "register " + reg_name(bit) +
               " may be read before it is written");
    }
  }
}

/// advm.lint-dead-store — backward liveness per function. A register
/// written and then rewritten with no intervening read (and no call or
/// trap, which may read anything) is a dead store. Exits — returns, HALT,
/// indirect jumps, paths leaving the function — treat every register as
/// live, so only provable overwrites fire.
void find_dead_store(const CodeModel& model,
                     const std::vector<Function>& functions,
                     std::vector<Finding>* out) {
  std::set<std::pair<std::uint32_t, unsigned>> reported;
  for (const Function& function : functions) {
    const std::vector<std::uint32_t>& fn = function.addresses;
    const std::set<std::uint32_t> in_fn(fn.begin(), fn.end());

    // Forward successor lists + predecessor map for the backward pass.
    std::map<std::uint32_t, std::vector<std::uint32_t>> succs;
    std::map<std::uint32_t, std::vector<std::uint32_t>> preds;
    for (const std::uint32_t address : fn) {
      const Slot* slot = model.slot_at(address);
      std::vector<std::uint32_t> s;
      append_flow_successors(*slot, &s);
      for (const std::uint32_t t : s) {
        if (in_fn.find(t) != in_fn.end()) preds[t].push_back(address);
      }
      succs.emplace(address, std::move(s));
    }

    std::map<std::uint32_t, std::uint32_t> live_in;
    const auto live_out_of = [&](std::uint32_t address) -> std::uint32_t {
      std::uint32_t mask = 0;
      bool exits = true;
      for (const std::uint32_t s : succs[address]) {
        if (in_fn.find(s) == in_fn.end()) return kAllRegs;  // leaves fn
        exits = false;
        const auto it = live_in.find(s);
        if (it != live_in.end()) mask |= it->second;
      }
      return exits ? kAllRegs : mask;
    };

    std::vector<std::uint32_t> work(fn.rbegin(), fn.rend());
    while (!work.empty()) {
      const std::uint32_t address = work.back();
      work.pop_back();
      const Slot* slot = model.slot_at(address);
      std::uint32_t next_live;
      if (!slot->instr) {
        next_live = kAllRegs;  // illegal slot traps: treat as exit
      } else {
        const DefUse du = def_use(*slot->instr);
        next_live = du.clobber
                        ? kAllRegs
                        : (du.uses | (live_out_of(address) & ~du.defs));
      }
      auto [it, inserted] = live_in.try_emplace(address, next_live);
      if (!inserted) {
        if (it->second == next_live) continue;
        it->second = next_live;
      }
      const auto pit = preds.find(address);
      if (pit != preds.end()) {
        for (const std::uint32_t p : pit->second) work.push_back(p);
      }
    }

    for (const std::uint32_t address : fn) {
      const Slot* slot = model.slot_at(address);
      if (!slot->instr) continue;
      const DefUse du = def_use(*slot->instr);
      if (du.defs == 0 || du.clobber) continue;
      std::uint32_t dead = du.defs & ~live_out_of(address);
      while (dead != 0) {
        const unsigned bit =
            static_cast<unsigned>(std::countr_zero(dead));
        dead &= dead - 1;
        if (!reported.emplace(address, bit).second) continue;
        emit(out, kDeadStore, address,
             "value written to " + reg_name(bit) +
                 " is never read before it is overwritten");
      }
    }
  }
}

/// advm.lint-unreachable — maximal runs of unreached slots. All-zero
/// slots (alignment/.SPACE padding) are trimmed from the run's edges and
/// all-zero runs are dropped entirely; what remains is dead code.
void find_unreachable(const CodeModel& model, const Scope& scope,
                      std::vector<Finding>* out) {
  for (const CodeRegion& region : model.regions) {
    if (!scope.contains(region)) continue;
    std::size_t i = 0;
    while (i < region.slots.size()) {
      if (region.slots[i].reachable) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < region.slots.size() && !region.slots[j].reachable) ++j;
      // Trim zero padding off both ends of the [i, j) run.
      std::size_t lo = i;
      std::size_t hi = j;
      while (lo < hi && region.slots[lo].zero) ++lo;
      while (hi > lo && region.slots[hi - 1].zero) --hi;
      if (lo < hi) {
        emit(out, kUnreachable, region.slots[lo].address,
             std::to_string(hi - lo) +
                 " instruction slot(s) unreachable from the entry or any "
                 "installed handler");
      }
      i = j;
    }
  }
}

/// advm.lint-ill-reachable — a reachable slot that does not decode, or a
/// direct branch whose target lies inside code but off the instruction
/// grid (executing from there decodes garbage).
void find_ill_reachable(const CodeModel& model, const Scope& scope,
                        std::vector<Finding>* out) {
  for (const CodeRegion& region : model.regions) {
    if (!scope.contains(region)) continue;
    for (const Slot& slot : region.slots) {
      if (!slot.reachable) continue;
      if (!slot.instr) {
        char byte[8];
        std::snprintf(byte, sizeof byte, "0x%02x", slot.opcode_byte);
        emit(out, kIllReachable, slot.address,
             std::string("reachable slot does not decode (opcode byte ") +
                 byte + ")");
        continue;
      }
      const isa::Instruction& in = *slot.instr;
      if ((in.op == Opcode::Jmp || in.op == Opcode::Call) && !in.rb &&
          model.region_of(in.imm) != nullptr &&
          model.slot_at(in.imm) == nullptr) {
        emit(out, kIllReachable, slot.address,
             "branch target " + hex(in.imm) +
                 " is inside code but off the instruction grid");
      }
    }
  }
}

/// advm.lint-rom-write / advm.lint-smc — a reachable absolute store whose
/// patched target lands in executable code (self-modifying code — it also
/// thrashes the simulator's decode cache) or in a ROM window (the write
/// bus-faults on every real platform).
void find_rom_write(const CodeModel& model, const AnalysisConfig& config,
                    const Scope& scope, std::vector<Finding>* out) {
  const auto in_window = [](std::uint32_t address, std::uint32_t base,
                            std::uint32_t size) {
    return size != 0 && address >= base && address - base < size;
  };
  for (const CodeRegion& region : model.regions) {
    if (!scope.contains(region)) continue;
    for (const Slot& slot : region.slots) {
      if (!slot.reachable || !slot.instr) continue;
      const isa::Instruction& in = *slot.instr;
      if (in.op != Opcode::Store || in.mode != isa::AddrMode::Absolute) {
        continue;
      }
      if (model.region_of(in.imm) != nullptr) {
        emit(out, kSmc, slot.address,
             "store to " + hex(in.imm) +
                 " targets executable code (self-modifying code)");
      } else if (in_window(in.imm, config.rom_base, config.rom_size) ||
                 in_window(in.imm, config.es_rom_base,
                           config.es_rom_size)) {
        emit(out, kRomWrite, slot.address,
             "store to " + hex(in.imm) + " targets a ROM window");
      }
    }
  }
}

/// advm.lint-stack-imbalance — explicit PUSH/POP depth tracking per
/// function. Frame operations (CALL/RETURN/RETI) are excluded from the
/// count, so the invariant checked is the function's *own* balance:
/// RETURN/RETI must execute at depth 0, POP must never drop below the
/// entry depth, and joins must agree on depth. Functions that write the
/// stack pointer directly are skipped — they manage SP themselves.
void find_stack_imbalance(const CodeModel& model,
                          const std::vector<Function>& functions,
                          std::vector<Finding>* out) {
  const std::uint32_t sp_bit =
      1u << (16 + static_cast<unsigned>(isa::kStackPointerIndex));
  const auto report = [&](std::uint32_t address, std::string detail) {
    // Cross-function duplicates collapse in run_analyses' unique pass.
    emit(out, kStackImbalance, address, std::move(detail));
  };

  for (const Function& function : functions) {
    const std::uint32_t root = function.root;
    const std::vector<std::uint32_t>& fn = function.addresses;
    const std::set<std::uint32_t> in_fn(fn.begin(), fn.end());
    bool writes_sp = false;
    for (const std::uint32_t address : fn) {
      const Slot* slot = model.slot_at(address);
      if (slot->instr && (def_use(*slot->instr).defs & sp_bit) != 0) {
        writes_sp = true;
        break;
      }
    }
    if (writes_sp) continue;

    std::map<std::uint32_t, int> depth_in;
    std::set<std::uint32_t> conflicted;
    depth_in[root] = 0;
    std::vector<std::uint32_t> work{root};
    std::vector<std::uint32_t> succ;
    while (!work.empty()) {
      const std::uint32_t address = work.back();
      work.pop_back();
      const Slot* slot = model.slot_at(address);
      if (!slot->instr) continue;
      const isa::Instruction& in = *slot->instr;
      const int depth = depth_in[address];
      int delta = 0;
      if (in.op == Opcode::Push) {
        delta = 1;
      } else if (in.op == Opcode::Pop) {
        if (depth == 0) {
          report(address,
                 "POP drops the stack below the function entry depth");
        } else {
          delta = -1;
        }
      } else if ((in.op == Opcode::Return || in.op == Opcode::Reti) &&
                 depth != 0) {
        report(address, std::string(in.op == Opcode::Return ? "RETURN"
                                                            : "RETI") +
                            " reached with " + std::to_string(depth) +
                            " value(s) still pushed");
      }
      const int out_depth = depth + delta;
      succ.clear();
      append_flow_successors(*slot, &succ);
      for (const std::uint32_t s : succ) {
        if (in_fn.find(s) == in_fn.end()) continue;
        const auto [it, inserted] = depth_in.try_emplace(s, out_depth);
        if (inserted) {
          work.push_back(s);
        } else if (it->second != out_depth &&
                   conflicted.insert(s).second) {
          report(s, "conflicting push/pop depths reach this instruction");
        }
      }
    }
  }
}

}  // namespace

std::vector<Finding> run_analyses(const CodeModel& model,
                                  const AnalysisConfig& config) {
  // Every pass reports only at addresses of the function or region it is
  // analysing, so passes run only over the functions and regions the scope
  // reaches: whatever a skipped one could report, the filter below would
  // drop. Reachability and roots still come from the whole image (library
  // code can make test code reachable), and the filter still runs.
  const Scope scope(model, config.scope_source);
  const std::vector<Function> functions = scoped_functions(model, scope);
  std::vector<Finding> findings;
  find_undef_reg(model, functions, &findings);
  find_dead_store(model, functions, &findings);
  find_unreachable(model, scope, &findings);
  find_ill_reachable(model, scope, &findings);
  find_rom_write(model, config, scope, &findings);
  find_stack_imbalance(model, functions, &findings);

  std::erase_if(findings, [&](const Finding& f) {
    return !scope.contains(f.address);
  });
  for (Finding& f : findings) {
    if (const auto symbol = model.symbol_before(f.address)) {
      f.symbol = symbol->to_string();
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.address != b.address) return a.address < b.address;
              if (a.code != b.code) return a.code < b.code;
              return a.detail < b.detail;
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.address == b.address &&
                                      a.code == b.code &&
                                      a.detail == b.detail;
                             }),
                 findings.end());
  return findings;
}

}  // namespace advm::lint
