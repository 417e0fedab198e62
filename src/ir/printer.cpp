#include "ir/printer.hpp"

#include <charconv>
#include <concepts>
#include <string_view>

namespace citroen::ir {

namespace {

/// Collects the printed text.
struct StringSink {
  std::string& out;
  void put(std::string_view s) { out.append(s); }
};

/// Folds the printed text into FNV-1a without materialising it.
struct HashSink {
  std::uint64_t h = 1469598103934665603ULL;
  void put(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
  }
};

/// Streams the textual form into a sink. Numbers are formatted as the
/// iostream printer this replaced formatted them: integers in decimal,
/// doubles as printf's %g at precision 6.
template <class Sink>
class Printer {
 public:
  explicit Printer(Sink& sink) : sink_(sink) {}

  Printer& operator<<(std::string_view s) {
    sink_.put(s);
    return *this;
  }

  template <std::integral Int>
  Printer& operator<<(Int v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    sink_.put(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
    return *this;
  }

  Printer& operator<<(double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 6);
    sink_.put(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
    return *this;
  }

  /// Type::str() without building a string.
  Printer& operator<<(Type t) {
    if (t.lanes > 1) return *this << "<4 x " << scalar_name(t.scalar) << ">";
    return *this << scalar_name(t.scalar);
  }

  void instr(const Function& f, ValueId id) {
    const Instr& in = f.instr(id);
    *this << "  ";
    if (!in.type.is_void()) *this << "%" << id << " = ";
    *this << opcode_name(in.op);
    if (in.op == Opcode::ICmp || in.op == Opcode::FCmp)
      *this << " " << pred_name(in.pred);
    if (!in.type.is_void()) *this << " " << in.type;
    if (in.op == Opcode::ConstInt) *this << " " << in.imm;
    if (in.op == Opcode::ConstFP) *this << " " << in.fimm;
    if (in.op == Opcode::GlobalAddr) *this << " @g" << in.global_index;
    if (in.op == Opcode::Alloca) *this << " bytes=" << in.alloca_bytes;
    if (in.op == Opcode::Gep) *this << " stride=" << in.stride;
    if (in.op == Opcode::VExtract) *this << " lane=" << in.imm;
    if (in.op == Opcode::Call) *this << " @" << in.callee;
    if (in.op == Opcode::Phi) {
      for (std::size_t k = 0; k < in.ops.size(); ++k)
        *this << " [%" << in.ops[k] << ", bb" << in.phi_blocks[k] << "]";
    } else {
      for (ValueId op : in.ops) *this << " %" << op;
    }
    for (BlockId s : in.succs) *this << " ->bb" << s;
    *this << "\n";
  }

  void function(const Function& f) {
    *this << "func @" << f.name << "(";
    for (std::size_t i = 0; i < f.arg_types.size(); ++i) {
      if (i) *this << ", ";
      *this << "%" << i << ": " << f.arg_types[i];
    }
    *this << ") -> " << f.ret_type;
    if (f.attr_readnone) *this << " readnone";
    *this << " {\n";
    for (BlockId b = 0; b < static_cast<BlockId>(f.blocks.size()); ++b) {
      *this << "bb" << b << " (" << f.block(b).name << "):\n";
      for (ValueId id : f.block(b).insts) {
        if (!f.instr(id).dead()) instr(f, id);
      }
    }
    *this << "}\n";
  }

  void module(const Module& m) {
    *this << "module " << m.name << "\n";
    for (std::size_t g = 0; g < m.globals.size(); ++g)
      *this << "global @g" << g << " \"" << m.globals[g].name
            << "\" bytes=" << m.globals[g].init.size() << "\n";
    for (const auto& f : m.functions) function(f);
  }

 private:
  Sink& sink_;
};

}  // namespace

std::string print_function(const Function& f) {
  std::string out;
  StringSink sink{out};
  Printer<StringSink>(sink).function(f);
  return out;
}

std::string print_module(const Module& m) {
  std::string out;
  StringSink sink{out};
  Printer<StringSink>(sink).module(m);
  return out;
}

std::uint64_t print_hash(const Module& m) {
  HashSink sink;
  Printer<HashSink>(sink).module(m);
  return sink.h;
}

}  // namespace citroen::ir
