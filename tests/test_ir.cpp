// Unit and property tests for the MiniIR layer: builder, verifier,
// analyses, and the interpreter's semantics.

#include <gtest/gtest.h>

#include <cstring>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"

using namespace citroen;
using namespace citroen::ir;

namespace {

/// main() { return <body>(); } with one module-level i32 data array.
struct TestProgram {
  Program p;
  Module& module() { return p.modules[0]; }
  Function& fn() { return p.modules[0].functions[0]; }
};

TestProgram make_single(const std::string& name = "f") {
  TestProgram tp;
  Module m;
  m.name = "m";
  create_function(m, name, kI64, {}, false);
  tp.p.modules.push_back(std::move(m));
  tp.p.entry = name;
  return tp;
}

}  // namespace

TEST(Type, WidthsAndSizes) {
  EXPECT_EQ(kI16.bit_width(), 16);
  EXPECT_EQ(kI16.elem_bytes(), 2);
  EXPECT_EQ(kI64.total_bytes(), 8);
  EXPECT_EQ(kI32.vector4().total_bytes(), 16);
  EXPECT_TRUE(kI32.vector4().is_vector());
  EXPECT_EQ(kF64.vector4().element(), kF64);
  EXPECT_EQ(kI1.str(), "i1");
  EXPECT_EQ(kF64.vector4().str(), "<4 x f64>");
}

TEST(Builder, StraightLineArithmetic) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  const ValueId x = b.const_i64(20);
  const ValueId y = b.const_i64(22);
  b.ret(b.binop(Opcode::Add, x, y));
  ASSERT_TRUE(verify_module(tp.module()).empty());
  const auto r = interpret(tp.p);
  ASSERT_TRUE(r.ok) << r.trap;
  EXPECT_EQ(r.ret, 42);
}

TEST(Builder, CountedLoopSumsCorrectly) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  const ValueId acc = b.stack_alloc(kI64);
  b.store(b.const_i64(0), acc);
  auto loop = b.begin_loop(b.const_i64(0), b.const_i64(10));
  b.store(b.binop(Opcode::Add, b.load(kI64, acc), loop.iv), acc);
  b.end_loop(loop);
  b.ret(b.load(kI64, acc));
  ASSERT_TRUE(verify_module(tp.module()).empty());
  const auto r = interpret(tp.p);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret, 45);  // 0+1+...+9
}

TEST(Builder, NestedLoopsAndStep) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  const ValueId acc = b.stack_alloc(kI64);
  b.store(b.const_i64(0), acc);
  auto outer = b.begin_loop(b.const_i64(0), b.const_i64(4), 1, "o");
  auto inner = b.begin_loop(b.const_i64(0), b.const_i64(6), 2, "in");
  b.store(b.binop(Opcode::Add, b.load(kI64, acc), b.const_i64(1)), acc);
  b.end_loop(inner);
  b.end_loop(outer);
  b.ret(b.load(kI64, acc));
  const auto r = interpret(tp.p);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret, 4 * 3);  // inner runs ceil(6/2)=3 times
}

// ---- interpreter semantics: arithmetic wrap per width ----------------------

struct WrapCase {
  const char* name;
  Type type;
  Opcode op;
  std::int64_t a, b, expected;
};

// Without this, gtest prints the raw bytes of the case, and those hold the
// run-time address of `name`: the test names registered by
// gtest_discover_tests would then change on every build.
void PrintTo(const WrapCase& c, std::ostream* os) { *os << c.name; }

class WrapSemantics : public ::testing::TestWithParam<WrapCase> {};

TEST_P(WrapSemantics, MatchesTwosComplement) {
  const auto& c = GetParam();
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  const ValueId x = b.const_int(c.type, c.a);
  const ValueId y = b.const_int(c.type, c.b);
  const ValueId r = b.binop(c.op, x, y);
  b.ret(b.cast(Opcode::SExt, r, kI64));
  const auto out = interpret(tp.p);
  ASSERT_TRUE(out.ok) << out.trap;
  EXPECT_EQ(out.ret, c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WrapSemantics,
    ::testing::Values(
        WrapCase{"i16_add_wrap", kI16, Opcode::Add, 32767, 1, -32768},
        WrapCase{"i16_mul_wrap", kI16, Opcode::Mul, 300, 300, 300 * 300 -
                                                                65536 * 1},
        WrapCase{"i32_add_wrap", kI32, Opcode::Add, 2147483647, 1,
                 -2147483648LL},
        WrapCase{"i32_sub", kI32, Opcode::Sub, -5, 7, -12},
        WrapCase{"i16_shl", kI16, Opcode::Shl, 0x4001, 1, -32766},
        WrapCase{"i32_lshr_signbit", kI32, Opcode::LShr, -2147483648LL, 31,
                 1},
        WrapCase{"i32_ashr", kI32, Opcode::AShr, -16, 2, -4},
        WrapCase{"i64_xor", kI64, Opcode::Xor, 0xff, 0x0f, 0xf0},
        WrapCase{"i16_sdiv", kI16, Opcode::SDiv, -7, 2, -3},
        WrapCase{"i16_srem", kI16, Opcode::SRem, -7, 2, -1}),
    [](const auto& info) { return info.param.name; });

TEST(Interpreter, DivisionByZeroTraps) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  b.ret(b.binop(Opcode::SDiv, b.const_i64(1), b.const_i64(0)));
  const auto r = interpret(tp.p);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.trap.find("division"), std::string::npos);
}

TEST(Interpreter, OutOfBoundsLoadTraps) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  b.ret(b.load(kI64, b.const_i64(0)));  // null-ish address
  const auto r = interpret(tp.p);
  EXPECT_FALSE(r.ok);
}

TEST(Interpreter, FuelLimitStopsInfiniteLoop) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  const BlockId spin = b.new_block("spin");
  b.br(spin);
  b.set_insert(spin);
  b.br(spin);
  ExecLimits lim;
  lim.max_instructions = 10000;
  const auto r = interpret(tp.p, {}, lim);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.trap.find("budget"), std::string::npos);
}

TEST(Interpreter, MemoryRoundTripPerType) {
  auto tp = make_single();
  tp.module().globals.push_back(
      GlobalVar{"buf", std::vector<std::uint8_t>(64, 0)});
  IRBuilder b(tp.fn());
  b.set_insert(0);
  const ValueId base = b.global_addr(0);
  // Store i16 -123 and f64 2.5, read both back.
  b.store(b.const_i16(-123), base);
  const ValueId f_ptr = b.gep(base, b.const_i64(2), kF64);
  b.store(b.const_f64(2.5), f_ptr);
  const ValueId iv = b.cast(Opcode::SExt, b.load(kI16, base), kI64);
  const ValueId fv = b.cast(Opcode::FPToSI,
                            b.binop(Opcode::FMul, b.load(kF64, f_ptr),
                                    b.const_f64(4.0)),
                            kI64);
  b.ret(b.binop(Opcode::Add, iv, fv));
  const auto r = interpret(tp.p);
  ASSERT_TRUE(r.ok) << r.trap;
  EXPECT_EQ(r.ret, -123 + 10);
}

TEST(Interpreter, PhiParallelCopySemantics) {
  // Swap phis: (a, b) <- (b, a) each iteration; after an odd number of
  // iterations the values are exchanged. Catches sequential-assignment
  // bugs in phi resolution.
  auto tp = make_single();
  Function& f = tp.fn();
  IRBuilder b(f);
  b.set_insert(0);
  const ValueId c1 = b.const_i64(1);
  const ValueId c2 = b.const_i64(2);
  const ValueId c0 = b.const_i64(0);
  const ValueId c3 = b.const_i64(3);
  const BlockId header = b.new_block("header");
  const BlockId body = b.new_block("body");
  const BlockId exit = b.new_block("exit");
  b.br(header);
  b.set_insert(header);
  const ValueId iv = b.phi(kI64, {{c0, 0}});
  const ValueId pa = b.phi(kI64, {{c1, 0}});
  const ValueId pb = b.phi(kI64, {{c2, 0}});
  const ValueId cond = b.icmp(CmpPred::SLT, iv, c3);
  b.cond_br(cond, body, exit);
  b.set_insert(body);
  const ValueId next = b.binop(Opcode::Add, iv, c1);
  b.br(header);
  // Wire the back edges: iv<-next, a<-b, b<-a (the swap).
  f.instr(iv).ops.push_back(next);
  f.instr(iv).phi_blocks.push_back(body);
  f.instr(pa).ops.push_back(pb);
  f.instr(pa).phi_blocks.push_back(body);
  f.instr(pb).ops.push_back(pa);
  f.instr(pb).phi_blocks.push_back(body);
  b.set_insert(exit);
  const ValueId ten = b.const_i64(10);
  b.ret(b.binop(Opcode::Add, b.binop(Opcode::Mul, pa, ten), pb));
  ASSERT_TRUE(verify_module(tp.module()).empty())
      << verify_module(tp.module()).front();
  const auto r = interpret(tp.p);
  ASSERT_TRUE(r.ok) << r.trap;
  EXPECT_EQ(r.ret, 21);  // 3 swaps: (1,2)->(2,1)->(1,2)->(2,1)
}

TEST(Interpreter, CrossModuleCallsResolve) {
  Program p;
  Module callee_m;
  callee_m.name = "lib";
  create_function(callee_m, "forty", kI64, {}, false);
  {
    IRBuilder b(callee_m.functions[0]);
    b.set_insert(0);
    b.ret(b.const_i64(40));
  }
  Module main_m;
  main_m.name = "app";
  create_function(main_m, "main", kI64, {}, false);
  {
    IRBuilder b(main_m.functions[0]);
    b.set_insert(0);
    const ValueId r = b.call(kI64, "forty", {});
    b.ret(b.binop(Opcode::Add, r, b.const_i64(2)));
  }
  p.modules = {std::move(callee_m), std::move(main_m)};
  const auto r = interpret(p);
  ASSERT_TRUE(r.ok) << r.trap;
  EXPECT_EQ(r.ret, 42);
  EXPECT_GT(r.module_cycles.at("lib"), 0.0);
}

TEST(Interpreter, VectorOpsLaneWise) {
  auto tp = make_single();
  tp.module().globals.push_back(GlobalVar{"v", [] {
                                  std::vector<std::uint8_t> b(16);
                                  const std::int32_t vals[4] = {1, 2, 3, 4};
                                  std::memcpy(b.data(), vals, 16);
                                  return b;
                                }()});
  IRBuilder b(tp.fn());
  b.set_insert(0);
  const ValueId base = b.global_addr(0);
  Instr vl;
  vl.op = Opcode::Load;
  vl.type = kI32.vector4();
  vl.ops = {base};
  const ValueId vec = tp.fn().add_instr(std::move(vl));
  tp.fn().block(0).insts.push_back(vec);
  const ValueId two = b.const_i32(2);
  const ValueId splat = b.vsplat(two);
  const ValueId prod = b.binop(Opcode::Mul, vec, splat);
  const ValueId red = b.vreduce_add(prod);
  b.ret(b.cast(Opcode::SExt, red, kI64));
  const auto r = interpret(tp.p);
  ASSERT_TRUE(r.ok) << r.trap;
  EXPECT_EQ(r.ret, 2 * (1 + 2 + 3 + 4));
}

TEST(Verifier, CatchesUseBeforeDef) {
  auto tp = make_single();
  Function& f = tp.fn();
  IRBuilder b(f);
  b.set_insert(0);
  const ValueId x = b.const_i64(1);
  const ValueId y = b.binop(Opcode::Add, x, x);
  b.ret(y);
  // Swap the add before its operand's definition.
  auto& insts = f.block(0).insts;
  std::swap(insts[0], insts[1]);
  EXPECT_FALSE(verify_function(f).empty());
}

TEST(Verifier, CatchesMissingTerminator) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  b.const_i64(1);  // no ret
  EXPECT_FALSE(verify_function(tp.fn()).empty());
}

TEST(Verifier, CatchesCrossBlockDominanceViolation) {
  auto tp = make_single();
  Function& f = tp.fn();
  IRBuilder b(f);
  b.set_insert(0);
  const ValueId c = b.const_i64(1);
  const ValueId cond = b.icmp(CmpPred::EQ, c, c);
  const BlockId t = b.new_block("t");
  const BlockId e = b.new_block("e");
  const BlockId j = b.new_block("j");
  b.cond_br(cond, t, e);
  b.set_insert(t);
  const ValueId only_t = b.binop(Opcode::Add, c, c);
  b.br(j);
  b.set_insert(e);
  b.br(j);
  b.set_insert(j);
  b.ret(only_t);  // defined only on the t-path
  EXPECT_FALSE(verify_function(f).empty());
}

TEST(Analysis, DominatorsOnDiamond) {
  auto tp = make_single();
  Function& f = tp.fn();
  IRBuilder b(f);
  b.set_insert(0);
  const ValueId c = b.const_i64(1);
  const ValueId cond = b.icmp(CmpPred::EQ, c, c);
  const BlockId t = b.new_block("t");
  const BlockId e = b.new_block("e");
  const BlockId j = b.new_block("j");
  b.cond_br(cond, t, e);
  b.set_insert(t);
  b.br(j);
  b.set_insert(e);
  b.br(j);
  b.set_insert(j);
  b.ret(c);
  const DomTree dt = compute_dominators(f);
  EXPECT_TRUE(dt.dominates(0, t));
  EXPECT_TRUE(dt.dominates(0, j));
  EXPECT_FALSE(dt.dominates(t, j));
  EXPECT_FALSE(dt.dominates(t, e));
  EXPECT_EQ(dt.idom[static_cast<std::size_t>(j)], 0);
}

TEST(Analysis, FindsNestedLoops) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  auto outer = b.begin_loop(b.const_i64(0), b.const_i64(3), 1, "o");
  auto inner = b.begin_loop(b.const_i64(0), b.const_i64(3), 1, "in");
  b.end_loop(inner);
  b.end_loop(outer);
  b.ret(b.const_i64(0));
  const DomTree dt = compute_dominators(tp.fn());
  const auto loops = find_loops(tp.fn(), dt);
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].depth, 1);
  EXPECT_EQ(loops[1].depth, 2);
  EXPECT_TRUE(loops[0].contains(loops[1].header));
}

TEST(Analysis, RegisterPressureGrowsWithLiveValues) {
  auto narrow = make_single("n");
  {
    IRBuilder b(narrow.fn());
    b.set_insert(0);
    ValueId acc = b.const_i64(1);
    for (int i = 0; i < 10; ++i)
      acc = b.binop(Opcode::Add, acc, acc);  // chain: short live ranges
    b.ret(acc);
  }
  auto wide = make_single("w");
  {
    IRBuilder b(wide.fn());
    b.set_insert(0);
    std::vector<ValueId> vals;
    for (int i = 0; i < 24; ++i) vals.push_back(b.const_i64(i + 1));
    std::vector<ValueId> muls;
    for (int i = 0; i < 24; ++i)
      muls.push_back(b.binop(Opcode::Mul, vals[static_cast<std::size_t>(i)],
                             vals[static_cast<std::size_t>((i + 1) % 24)]));
    ValueId acc = muls[0];
    for (std::size_t i = 1; i < muls.size(); ++i)
      acc = b.binop(Opcode::Add, acc, muls[i]);
    b.ret(acc);
  }
  // All values in one block: pressure estimate uses live-out sets, which
  // are empty for straight-line single-block code; this documents the
  // approximation (block-boundary pressure only).
  EXPECT_GE(estimate_register_pressure(wide.fn()), 0);
  EXPECT_GE(estimate_register_pressure(narrow.fn()), 0);
}

TEST(Printer, RoundsTripStructure) {
  auto tp = make_single();
  IRBuilder b(tp.fn());
  b.set_insert(0);
  b.ret(b.binop(Opcode::Add, b.const_i64(1), b.const_i64(2)));
  const std::string s = print_function(tp.fn());
  EXPECT_NE(s.find("func @f"), std::string::npos);
  EXPECT_NE(s.find("add"), std::string::npos);
  EXPECT_NE(s.find("ret"), std::string::npos);
}
