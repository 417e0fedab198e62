#include "ir/module.hpp"

#include <algorithm>

namespace citroen::ir {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::Arg: return "arg";
    case Opcode::Tombstone: return "tombstone";
    case Opcode::ConstInt: return "const";
    case Opcode::ConstFP: return "fconst";
    case Opcode::Add: return "add";
    case Opcode::Sub: return "sub";
    case Opcode::Mul: return "mul";
    case Opcode::SDiv: return "sdiv";
    case Opcode::SRem: return "srem";
    case Opcode::Shl: return "shl";
    case Opcode::LShr: return "lshr";
    case Opcode::AShr: return "ashr";
    case Opcode::And: return "and";
    case Opcode::Or: return "or";
    case Opcode::Xor: return "xor";
    case Opcode::FAdd: return "fadd";
    case Opcode::FSub: return "fsub";
    case Opcode::FMul: return "fmul";
    case Opcode::FDiv: return "fdiv";
    case Opcode::ICmp: return "icmp";
    case Opcode::FCmp: return "fcmp";
    case Opcode::Select: return "select";
    case Opcode::SExt: return "sext";
    case Opcode::ZExt: return "zext";
    case Opcode::Trunc: return "trunc";
    case Opcode::SIToFP: return "sitofp";
    case Opcode::FPToSI: return "fptosi";
    case Opcode::Alloca: return "alloca";
    case Opcode::GlobalAddr: return "globaladdr";
    case Opcode::Load: return "load";
    case Opcode::Store: return "store";
    case Opcode::Gep: return "gep";
    case Opcode::Memset: return "memset";
    case Opcode::Memcpy: return "memcpy";
    case Opcode::VSplat: return "vsplat";
    case Opcode::VExtract: return "vextract";
    case Opcode::VReduceAdd: return "vreduce.add";
    case Opcode::Br: return "br";
    case Opcode::CondBr: return "condbr";
    case Opcode::Ret: return "ret";
    case Opcode::Call: return "call";
    case Opcode::Phi: return "phi";
  }
  return "?";
}

const char* pred_name(CmpPred p) {
  switch (p) {
    case CmpPred::EQ: return "eq";
    case CmpPred::NE: return "ne";
    case CmpPred::SLT: return "slt";
    case CmpPred::SLE: return "sle";
    case CmpPred::SGT: return "sgt";
    case CmpPred::SGE: return "sge";
    case CmpPred::OEQ: return "oeq";
    case CmpPred::ONE: return "one";
    case CmpPred::OLT: return "olt";
    case CmpPred::OLE: return "ole";
    case CmpPred::OGT: return "ogt";
    case CmpPred::OGE: return "oge";
  }
  return "?";
}

const char* scalar_name(Scalar s) {
  switch (s) {
    case Scalar::Void: return "void";
    case Scalar::I1: return "i1";
    case Scalar::I16: return "i16";
    case Scalar::I32: return "i32";
    case Scalar::I64: return "i64";
    case Scalar::F64: return "f64";
    case Scalar::Ptr: return "ptr";
  }
  return "";
}

std::string Type::str() const {
  const std::string base = scalar_name(scalar);
  if (lanes > 1) return "<4 x " + base + ">";
  return base;
}

ValueId Function::terminator(BlockId b) const {
  const auto& bb = block(b);
  if (bb.insts.empty()) return kNoValue;
  const ValueId last = bb.insts.back();
  return is_terminator(instr(last).op) ? last : kNoValue;
}

std::vector<BlockId> Function::successors(BlockId b) const {
  const ValueId t = terminator(b);
  if (t == kNoValue) return {};
  return instr(t).succs;
}

std::vector<std::vector<BlockId>> Function::predecessors() const {
  std::vector<std::vector<BlockId>> preds(blocks.size());
  for (BlockId b = 0; b < static_cast<BlockId>(blocks.size()); ++b) {
    for (BlockId s : successors(b)) preds[static_cast<std::size_t>(s)].push_back(b);
  }
  return preds;
}

std::size_t Function::live_instr_count() const {
  std::size_t n = 0;
  for (const auto& bb : blocks) {
    for (ValueId id : bb.insts) {
      if (!instr(id).dead()) ++n;
    }
  }
  return n;
}

ValueId Function::add_instr(Instr in) {
  instrs.push_back(std::move(in));
  return static_cast<ValueId>(instrs.size() - 1);
}

void Function::kill(ValueId id) {
  Instr& in = instr(id);
  in.op = Opcode::Tombstone;
  in.ops.clear();
  in.phi_blocks.clear();
  in.succs.clear();
}

void Function::purge_dead_from_blocks() {
  for (auto& bb : blocks) {
    std::erase_if(bb.insts, [this](ValueId id) { return instr(id).dead(); });
  }
}

void Function::replace_all_uses(ValueId from, ValueId to) {
  for (auto& in : instrs) {
    if (in.dead()) continue;
    for (auto& op : in.ops) {
      if (op == from) op = to;
    }
  }
}

Function* Module::find_function(const std::string& fname) {
  for (auto& f : functions) {
    if (f.name == fname) return &f;
  }
  return nullptr;
}

const Function* Module::find_function(const std::string& fname) const {
  for (const auto& f : functions) {
    if (f.name == fname) return &f;
  }
  return nullptr;
}

std::size_t Module::code_size() const {
  std::size_t n = 0;
  for (const auto& f : functions) n += f.live_instr_count();
  return n;
}

Module* Program::find_module(const std::string& mname) {
  for (auto& m : modules) {
    if (m.name == mname) return &m;
  }
  return nullptr;
}

const Module* Program::find_module(const std::string& mname) const {
  for (const auto& m : modules) {
    if (m.name == mname) return &m;
  }
  return nullptr;
}

std::pair<int, int> Program::find_symbol(const std::string& fname) const {
  for (std::size_t mi = 0; mi < modules.size(); ++mi) {
    for (std::size_t fi = 0; fi < modules[mi].functions.size(); ++fi) {
      if (modules[mi].functions[fi].name == fname)
        return {static_cast<int>(mi), static_cast<int>(fi)};
    }
  }
  return {-1, -1};
}

}  // namespace citroen::ir
