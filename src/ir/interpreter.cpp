#include "ir/interpreter.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <new>
#include <string_view>
#include <unordered_map>

#include "ir/analysis.hpp"

namespace citroen::ir {

double CostModel::instr_cost(const Instr& in) const {
  double base;
  switch (in.op) {
    case Opcode::Mul: base = imul; break;
    case Opcode::SDiv:
    case Opcode::SRem: base = idiv; break;
    case Opcode::FAdd:
    case Opcode::FSub: base = falu; break;
    case Opcode::FMul: base = fmul; break;
    case Opcode::FDiv: base = fdiv; break;
    case Opcode::Load: base = load; break;
    case Opcode::Store: base = store; break;
    case Opcode::Br: base = branch; break;
    case Opcode::CondBr: base = branch; break;
    case Opcode::Ret: base = 0.0; break;
    case Opcode::Phi: base = 0.0; break;  // resolved by register allocation
    case Opcode::ConstInt:
    case Opcode::ConstFP: base = 0.0; break;  // folded into consumers
    case Opcode::Alloca: base = 0.0; break;   // frame setup
    case Opcode::Call: base = 0.0; break;     // charged via call_overhead
    case Opcode::Memset:
    case Opcode::Memcpy: base = 0.0; break;   // charged by size at exec
    case Opcode::VReduceAdd: base = falu * 2.0; break;
    case Opcode::VSplat:
    case Opcode::VExtract: base = alu; break;
    default: base = alu; break;
  }
  if (in.type.is_vector() && in.op != Opcode::VSplat &&
      in.op != Opcode::VExtract && in.op != Opcode::VReduceAdd) {
    base *= vector_factor;
  }
  return base;
}

namespace {

struct RtVal {
  std::array<std::int64_t, 4> i{};
  std::array<double, 4> f{};
};

std::int64_t wrap_int(Type t, std::int64_t v) {
  switch (t.scalar) {
    case Scalar::I1: return v & 1;
    case Scalar::I16: return static_cast<std::int16_t>(v);
    case Scalar::I32: return static_cast<std::int32_t>(v);
    default: return v;
  }
}

/// One thread's simulated memory, reused from run to run.
///
/// A run's image is its globals plus a 4 MiB stack, yet a run writes
/// only its globals and the bottom of that stack; zero-filling a fresh
/// image for every run cost more than many runs themselves. So each
/// thread keeps one anonymous MAP_NORESERVE mapping, whose pages stay
/// unbacked (and read as zero) until written, and before each run zeroes
/// again only the bytes below the highest address the previous run wrote.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { unmap(); }

  /// An all-zero image of at least `bytes` bytes, valid until the next
  /// acquire() on this thread. Throws std::bad_alloc if it cannot be made.
  std::uint8_t* acquire(std::size_t bytes) {
    if (bytes > capacity_) {
      unmap();
      const std::size_t cap = (bytes + kGranule - 1) & ~(kGranule - 1);
      void* p = ::mmap(nullptr, cap, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      base_ = static_cast<std::uint8_t*>(p);
      capacity_ = cap;
    } else if (written_ > 0) {
      std::memset(base_, 0, written_);
    }
    written_ = 0;
    return base_;
  }

  /// Bytes at or above `end` are still zero.
  void written_below(std::size_t end) { written_ = std::max(written_, end); }

 private:
  /// Mappings grow in whole granules, so one mapping holds the image of
  /// every suite program (globals of at most ~50 KB, plus the stack).
  static constexpr std::size_t kGranule = std::size_t{1} << 20;

  void unmap() {
    if (base_) ::munmap(base_, capacity_);
    base_ = nullptr;
    capacity_ = 0;
    written_ = 0;
  }

  std::uint8_t* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t written_ = 0;
};

thread_local Arena t_arena;

/// What linking fixes about one function.
struct LinkedFn {
  const Function* f = nullptr;
  int module_index = 0;
  double call_charge = 0.0;    ///< call overhead + i-cache penalty
  std::size_t first_slot = 0;  ///< index of its instruction 0's Slot
};

/// What linking fixes about one instruction, plus its predictor bit.
struct Slot {
  double charge = 0.0;       ///< cost per execution, spill overhead included
  std::int32_t callee = -1;  ///< Call: LinkedFn index, -1 if unresolved
  std::int8_t taken = -1;    ///< CondBr: last direction, -1 before the first
};

class Machine {
 public:
  Machine(const Program& p, const CostModel& cm, const ExecLimits& lim)
      : p_(p), cm_(cm), lim_(lim) {}
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine() { t_arena.written_below(written_); }

  ExecResult run();

 private:
  struct Trap {
    std::string reason;
    bool hung = false;  ///< instruction budget ran out (timeout analogue)
  };

  void check_mem(std::int64_t addr, std::int64_t bytes) const {
    if (addr < 4096 || bytes < 0 || addr + bytes > size_)
      throw Trap{"memory access out of bounds"};
  }

  void check_write(std::int64_t addr, std::int64_t bytes) {
    check_mem(addr, bytes);
    written_ = std::max(written_, static_cast<std::size_t>(addr + bytes));
  }

  std::int64_t read_int(std::int64_t addr, int bytes) const {
    check_mem(addr, bytes);
    std::uint64_t raw = 0;
    std::memcpy(&raw, mem_ + addr, static_cast<std::size_t>(bytes));
    // Sign-extend from the loaded width.
    const int shift = 64 - 8 * bytes;
    return (static_cast<std::int64_t>(raw << shift)) >> shift;
  }

  void write_int(std::int64_t addr, int bytes, std::int64_t v) {
    check_write(addr, bytes);
    std::uint64_t raw = static_cast<std::uint64_t>(v);
    std::memcpy(mem_ + addr, &raw, static_cast<std::size_t>(bytes));
  }

  double read_f64(std::int64_t addr) const {
    check_mem(addr, 8);
    double v;
    std::memcpy(&v, mem_ + addr, 8);
    return v;
  }

  void write_f64(std::int64_t addr, double v) {
    check_write(addr, 8);
    std::memcpy(mem_ + addr, &v, 8);
  }

  RtVal load_value(Type t, std::int64_t addr) const {
    RtVal v;
    const int eb = t.elem_bytes();
    for (int l = 0; l < t.lanes; ++l) {
      if (t.is_float()) {
        v.f[static_cast<std::size_t>(l)] = read_f64(addr + l * eb);
      } else {
        v.i[static_cast<std::size_t>(l)] = read_int(addr + l * eb, eb);
      }
    }
    return v;
  }

  void store_value(Type t, std::int64_t addr, const RtVal& v) {
    const int eb = t.elem_bytes();
    for (int l = 0; l < t.lanes; ++l) {
      if (t.is_float()) {
        write_f64(addr + l * eb, v.f[static_cast<std::size_t>(l)]);
      } else {
        write_int(addr + l * eb, eb, v.i[static_cast<std::size_t>(l)]);
      }
    }
  }

  void charge(double c, int module_index) {
    cycles_ += c;
    module_cycles_[static_cast<std::size_t>(module_index)] += c;
  }

  /// The zeroed value frame of a call at `depth`, `n` values long. Frames
  /// are kept per depth and reused; a frame's storage stays put while
  /// deeper frames are added.
  RtVal* frame(int depth, std::size_t n) {
    const auto d = static_cast<std::size_t>(depth);
    if (frames_.size() <= d) frames_.resize(d + 1);
    frames_[d].assign(n, RtVal{});
    return frames_[d].data();
  }

  /// Runs function `fn` (a LinkedFn index) in the frame already made for
  /// `depth`, whose first slots hold the arguments.
  RtVal exec_call(int fn, int depth);

  const Program& p_;
  const CostModel& cm_;
  const ExecLimits& lim_;

  std::uint8_t* mem_ = nullptr;  ///< this thread's arena image
  std::int64_t size_ = 0;        ///< bytes of the image this run may use
  std::size_t written_ = 0;      ///< this run wrote only below this
  std::int64_t sp_ = 0;  ///< stack grows upward from the stack base
  std::vector<std::vector<std::int64_t>> global_addr_;  ///< [module][global]
  std::vector<LinkedFn> fns_;  ///< every function, in module order
  std::vector<Slot> slots_;    ///< every function's instructions
  std::vector<std::vector<RtVal>> frames_;             ///< [call depth]
  std::vector<std::pair<ValueId, RtVal>> phi_copies_;  ///< one block's phis

  double cycles_ = 0.0;
  std::vector<double> module_cycles_;
  std::uint64_t executed_ = 0;
};

RtVal Machine::exec_call(int fn, int depth) {
  if (depth > lim_.max_call_depth) throw Trap{"call depth exceeded"};
  const LinkedFn& linked = fns_[static_cast<std::size_t>(fn)];
  const Function& f = *linked.f;
  const int mi = linked.module_index;
  charge(linked.call_charge, mi);

  RtVal* const vals = frames_[static_cast<std::size_t>(depth)].data();
  Slot* const slots = slots_.data() + linked.first_slot;

  const std::int64_t sp_save = sp_;
  BlockId cur = 0;
  BlockId prev = -1;
  RtVal ret{};

  while (true) {
    const BasicBlock& bb = f.block(cur);

    // Resolve phis as a parallel copy based on the incoming edge.
    phi_copies_.clear();
    for (ValueId id : bb.insts) {
      const Instr& in = f.instr(id);
      if (in.dead()) continue;
      if (in.op != Opcode::Phi) break;  // phis are grouped at the top
      for (std::size_t k = 0; k < in.phi_blocks.size(); ++k) {
        if (in.phi_blocks[k] == prev) {
          phi_copies_.emplace_back(id, vals[in.ops[k]]);
          break;
        }
      }
    }
    for (const auto& [id, v] : phi_copies_) vals[id] = v;

    bool moved = false;
    for (ValueId id : bb.insts) {
      const Instr& in = f.instr(id);
      if (in.dead() || in.op == Opcode::Phi) continue;
      if (++executed_ > lim_.max_instructions)
        throw Trap{"instruction budget exhausted (non-terminating?)", true};
      charge(slots[id].charge, mi);

      auto op0 = [&]() -> const RtVal& { return vals[in.ops[0]]; };
      auto op1 = [&]() -> const RtVal& { return vals[in.ops[1]]; };
      RtVal& out = vals[id];

      switch (in.op) {
        case Opcode::ConstInt:
          out.i[0] = in.imm;
          break;
        case Opcode::ConstFP:
          out.f[0] = in.fimm;
          break;
        case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
        case Opcode::SDiv: case Opcode::SRem: case Opcode::Shl:
        case Opcode::LShr: case Opcode::AShr: case Opcode::And:
        case Opcode::Or: case Opcode::Xor: {
          const RtVal& a = op0();
          const RtVal& b = op1();
          for (int l = 0; l < in.type.lanes; ++l) {
            const std::size_t li = static_cast<std::size_t>(l);
            std::int64_t x = a.i[li], y = b.i[li], r = 0;
            // Wrap-around semantics: compute in unsigned to avoid UB.
            const std::uint64_t ux = static_cast<std::uint64_t>(x);
            const std::uint64_t uy = static_cast<std::uint64_t>(y);
            switch (in.op) {
              case Opcode::Add:
                r = static_cast<std::int64_t>(ux + uy);
                break;
              case Opcode::Sub:
                r = static_cast<std::int64_t>(ux - uy);
                break;
              case Opcode::Mul:
                r = static_cast<std::int64_t>(ux * uy);
                break;
              case Opcode::SDiv:
                if (y == 0) throw Trap{"division by zero"};
                if (x == INT64_MIN && y == -1) throw Trap{"sdiv overflow"};
                r = x / y;
                break;
              case Opcode::SRem:
                if (y == 0) throw Trap{"remainder by zero"};
                if (x == INT64_MIN && y == -1) throw Trap{"srem overflow"};
                r = x % y;
                break;
              case Opcode::Shl:
                r = static_cast<std::int64_t>(ux << (uy & 63));
                break;
              case Opcode::LShr: {
                const int w = in.type.bit_width();
                const std::uint64_t masked =
                    ux & (w == 64 ? ~0ULL : ((1ULL << w) - 1));
                r = static_cast<std::int64_t>(masked >> (uy & 63));
                break;
              }
              case Opcode::AShr: r = x >> (y & 63); break;
              case Opcode::And: r = x & y; break;
              case Opcode::Or: r = x | y; break;
              case Opcode::Xor: r = x ^ y; break;
              default: break;
            }
            out.i[li] = wrap_int(in.type, r);
          }
          break;
        }
        case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
        case Opcode::FDiv: {
          const RtVal& a = op0();
          const RtVal& b = op1();
          for (int l = 0; l < in.type.lanes; ++l) {
            const std::size_t li = static_cast<std::size_t>(l);
            switch (in.op) {
              case Opcode::FAdd: out.f[li] = a.f[li] + b.f[li]; break;
              case Opcode::FSub: out.f[li] = a.f[li] - b.f[li]; break;
              case Opcode::FMul: out.f[li] = a.f[li] * b.f[li]; break;
              case Opcode::FDiv: out.f[li] = a.f[li] / b.f[li]; break;
              default: break;
            }
          }
          break;
        }
        case Opcode::ICmp: {
          const std::int64_t x = op0().i[0], y = op1().i[0];
          bool r = false;
          switch (in.pred) {
            case CmpPred::EQ: r = x == y; break;
            case CmpPred::NE: r = x != y; break;
            case CmpPred::SLT: r = x < y; break;
            case CmpPred::SLE: r = x <= y; break;
            case CmpPred::SGT: r = x > y; break;
            case CmpPred::SGE: r = x >= y; break;
            default: throw Trap{"bad icmp predicate"};
          }
          out.i[0] = r ? 1 : 0;
          break;
        }
        case Opcode::FCmp: {
          const double x = op0().f[0], y = op1().f[0];
          bool r = false;
          switch (in.pred) {
            case CmpPred::OEQ: r = x == y; break;
            case CmpPred::ONE: r = x != y; break;
            case CmpPred::OLT: r = x < y; break;
            case CmpPred::OLE: r = x <= y; break;
            case CmpPred::OGT: r = x > y; break;
            case CmpPred::OGE: r = x >= y; break;
            default: throw Trap{"bad fcmp predicate"};
          }
          out.i[0] = r ? 1 : 0;
          break;
        }
        case Opcode::Select:
          out = op0().i[0] ? vals[in.ops[1]] : vals[in.ops[2]];
          break;
        case Opcode::SExt:
        case Opcode::Trunc:
          for (int l = 0; l < in.type.lanes; ++l)
            out.i[static_cast<std::size_t>(l)] =
                wrap_int(in.type, op0().i[static_cast<std::size_t>(l)]);
          break;
        case Opcode::ZExt: {
          const Type from = f.instr(in.ops[0]).type;
          const int w = from.bit_width();
          for (int l = 0; l < in.type.lanes; ++l) {
            const std::uint64_t raw =
                static_cast<std::uint64_t>(
                    op0().i[static_cast<std::size_t>(l)]) &
                (w == 64 ? ~0ULL : ((1ULL << w) - 1));
            out.i[static_cast<std::size_t>(l)] =
                wrap_int(in.type, static_cast<std::int64_t>(raw));
          }
          break;
        }
        case Opcode::SIToFP:
          for (int l = 0; l < in.type.lanes; ++l)
            out.f[static_cast<std::size_t>(l)] =
                static_cast<double>(op0().i[static_cast<std::size_t>(l)]);
          break;
        case Opcode::FPToSI:
          for (int l = 0; l < in.type.lanes; ++l)
            out.i[static_cast<std::size_t>(l)] = wrap_int(
                in.type, static_cast<std::int64_t>(
                             op0().f[static_cast<std::size_t>(l)]));
          break;
        case Opcode::Alloca: {
          sp_ = (sp_ + 15) & ~15LL;
          out.i[0] = sp_;
          sp_ += in.alloca_bytes;
          if (sp_ > size_) throw Trap{"stack overflow"};
          break;
        }
        case Opcode::GlobalAddr:
          out.i[0] = global_addr_[static_cast<std::size_t>(mi)]
                                 [static_cast<std::size_t>(in.global_index)];
          break;
        case Opcode::Load:
          out = load_value(in.type, op0().i[0]);
          break;
        case Opcode::Store:
          store_value(f.instr(in.ops[0]).type, op1().i[0], op0());
          break;
        case Opcode::Gep:
          out.i[0] = op0().i[0] + op1().i[0] * in.stride;
          break;
        case Opcode::Memset: {
          const std::int64_t dst = op0().i[0];
          const std::int64_t byte = op1().i[0];
          const std::int64_t size = vals[in.ops[2]].i[0];
          check_write(dst, size);
          std::memset(mem_ + dst, static_cast<int>(byte & 0xff),
                      static_cast<std::size_t>(size));
          charge(cm_.mem_intrinsic_base +
                     cm_.mem_intrinsic_per_byte * static_cast<double>(size),
                 mi);
          break;
        }
        case Opcode::Memcpy: {
          const std::int64_t dst = op0().i[0];
          const std::int64_t src = op1().i[0];
          const std::int64_t size = vals[in.ops[2]].i[0];
          check_write(dst, size);
          check_mem(src, size);
          std::memmove(mem_ + dst, mem_ + src, static_cast<std::size_t>(size));
          charge(cm_.mem_intrinsic_base +
                     cm_.mem_intrinsic_per_byte * static_cast<double>(size),
                 mi);
          break;
        }
        case Opcode::VSplat:
          for (int l = 0; l < 4; ++l) {
            out.i[static_cast<std::size_t>(l)] = op0().i[0];
            out.f[static_cast<std::size_t>(l)] = op0().f[0];
          }
          break;
        case Opcode::VExtract:
          out.i[0] = op0().i[static_cast<std::size_t>(in.imm)];
          out.f[0] = op0().f[static_cast<std::size_t>(in.imm)];
          break;
        case Opcode::VReduceAdd: {
          const Type vt = f.instr(in.ops[0]).type;
          if (vt.is_float()) {
            out.f[0] = op0().f[0] + op0().f[1] + op0().f[2] + op0().f[3];
          } else {
            std::int64_t acc = 0;
            for (int l = 0; l < 4; ++l)
              acc += op0().i[static_cast<std::size_t>(l)];
            out.i[0] = wrap_int(in.type, acc);
          }
          break;
        }
        case Opcode::Call: {
          const std::int32_t target = slots[id].callee;
          if (target < 0) throw Trap{"unknown symbol " + in.callee};
          const std::size_t n =
              fns_[static_cast<std::size_t>(target)].f->instrs.size();
          RtVal* const args = frame(depth + 1, n);
          const std::size_t nargs = std::min(in.ops.size(), n);
          for (std::size_t a = 0; a < nargs; ++a) args[a] = vals[in.ops[a]];
          out = exec_call(target, depth + 1);
          break;
        }
        case Opcode::Br:
          prev = cur;
          cur = in.succs[0];
          moved = true;
          break;
        case Opcode::CondBr: {
          const bool taken = op0().i[0] != 0;
          std::int8_t& last = slots[id].taken;
          if (last >= 0 && (last != 0) != taken) charge(cm_.mispredict, mi);
          last = taken ? 1 : 0;
          prev = cur;
          cur = taken ? in.succs[0] : in.succs[1];
          moved = true;
          break;
        }
        case Opcode::Ret:
          if (!in.ops.empty()) ret = vals[in.ops[0]];
          sp_ = sp_save;
          return ret;
        case Opcode::Arg:
        case Opcode::Tombstone:
        case Opcode::Phi:
          throw Trap{"unexpected opcode in block body"};
      }
      if (moved) break;
    }
    if (!moved) throw Trap{"block fell through without terminator"};
  }
}

ExecResult Machine::run() {
  ExecResult result;

  // ---- lay out globals and the stack -----------------------------------
  std::int64_t addr = 4096;
  global_addr_.resize(p_.modules.size());
  for (std::size_t mi = 0; mi < p_.modules.size(); ++mi) {
    for (const auto& g : p_.modules[mi].globals) {
      global_addr_[mi].push_back(addr);
      addr += static_cast<std::int64_t>((g.init.size() + 15) & ~15ULL);
    }
  }
  const std::int64_t stack_base = addr;
  size_ = static_cast<std::int64_t>(
      std::min(static_cast<std::uint64_t>(stack_base) + (1 << 22),
               lim_.max_memory_bytes));
  mem_ = t_arena.acquire(static_cast<std::size_t>(size_));
  sp_ = stack_base;
  for (std::size_t mi = 0; mi < p_.modules.size(); ++mi) {
    for (std::size_t gi = 0; gi < p_.modules[mi].globals.size(); ++gi) {
      const auto& init = p_.modules[mi].globals[gi].init;
      const std::int64_t at = global_addr_[mi][gi];
      // A memory limit below the globals' end cuts them short; the rest
      // lies out of bounds.
      const std::int64_t n =
          std::min(static_cast<std::int64_t>(init.size()), size_ - at);
      if (n <= 0) continue;
      std::memcpy(mem_ + at, init.data(), static_cast<std::size_t>(n));
      written_ = std::max(written_, static_cast<std::size_t>(at + n));
    }
  }

  // ---- link: symbols, per-instruction charges and call targets ---------
  module_cycles_.assign(p_.modules.size(), 0.0);
  std::unordered_map<std::string_view, int> symbols;
  for (std::size_t mi = 0; mi < p_.modules.size(); ++mi) {
    for (const Function& f : p_.modules[mi].functions) {
      if (!symbols.emplace(f.name, static_cast<int>(fns_.size())).second) {
        result.trap = "duplicate symbol " + f.name;
        return result;
      }
      double spill_overhead = 0.0;  // extra cycles per executed instruction
      const int pressure = estimate_register_pressure(f);
      if (pressure > cm_.num_registers)
        spill_overhead = cm_.spill_per_instr * (pressure - cm_.num_registers);
      double icache_penalty = 0.0;  // extra cycles per call
      const auto size = f.live_instr_count();
      if (size > static_cast<std::size_t>(cm_.icache_instrs))
        icache_penalty = cm_.icache_per_call *
                         (static_cast<double>(size) / cm_.icache_instrs - 1.0);
      fns_.push_back(LinkedFn{&f, static_cast<int>(mi),
                              cm_.call_overhead + icache_penalty,
                              slots_.size()});
      for (const Instr& in : f.instrs)
        slots_.push_back(Slot{cm_.instr_cost(in) + spill_overhead});
    }
  }
  for (const LinkedFn& linked : fns_) {
    const auto& instrs = linked.f->instrs;
    for (std::size_t id = 0; id < instrs.size(); ++id) {
      if (instrs[id].op != Opcode::Call) continue;
      const auto it = symbols.find(instrs[id].callee);
      if (it != symbols.end()) slots_[linked.first_slot + id].callee = it->second;
    }
  }

  const auto entry = symbols.find(p_.entry);
  if (entry == symbols.end()) {
    result.trap = "missing entry symbol " + p_.entry;
    return result;
  }

  try {
    frame(0, fns_[static_cast<std::size_t>(entry->second)].f->instrs.size());
    const RtVal r = exec_call(entry->second, 0);
    result.ok = true;
    result.ret = r.i[0];
  } catch (const Trap& t) {
    result.ok = false;
    result.trap = t.reason;
    result.hung = t.hung;
  }
  result.cycles = cycles_;
  result.instructions = executed_;
  for (std::size_t mi = 0; mi < p_.modules.size(); ++mi)
    result.module_cycles[p_.modules[mi].name] = module_cycles_[mi];
  return result;
}

}  // namespace

ExecResult interpret(const Program& p, const CostModel& cm,
                     const ExecLimits& limits) {
  Machine m(p, cm, limits);
  return m.run();
}

}  // namespace citroen::ir
