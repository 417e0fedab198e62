// The printer's text and the build-identity hash taken from it.
//
// A build's identity is FNV-1a over its printed text: binary hashes,
// prefix-cache keys, disk-tier files, journals and checkpoints all carry
// it. So the text must not change by a byte, and `print_hash` must fold
// exactly the bytes `print_module` produces.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_suite/suite.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "passes/pass.hpp"
#include "support/rng.hpp"

using namespace citroen;
using namespace citroen::ir;

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Floating-point constants of every printed shape (negative, large,
/// tiny, fractional, rounded to six digits, signed zero, non-finite) and
/// vector operations.
Module fp_module() {
  Module m;
  m.name = "golden_fp";
  m.globals.push_back(GlobalVar{"coef", std::vector<std::uint8_t>(32)});
  m.globals.push_back(GlobalVar{"out", std::vector<std::uint8_t>(8)});
  create_function(m, "kernel", kF64, {kF64, kPtr}, true);
  Function& f = m.functions[0];
  f.attr_readnone = true;
  IRBuilder b(f);
  b.set_insert(0);
  ValueId acc = b.arg(0);
  for (const double v :
       {-2.5, 1e300, 0.1, 123456789.0, 1e-7, -0.0, 3.0, 1.0 / 3.0,
        6.02214076e23, -1e-300, 100000.0, 1000000.0, 0.0001, 0.00001,
        -7.25e-5, 4.9e-324, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    acc = b.binop(Opcode::FAdd, acc, b.const_f64(v));
  }
  acc = b.binop(Opcode::FMul, acc, b.const_f64(0.5));
  acc = b.binop(Opcode::FDiv, acc, b.const_f64(-3.75));
  acc = b.binop(Opcode::FSub, acc, b.const_f64(1234.5678));
  Instr vl;
  vl.op = Opcode::Load;
  vl.type = kF64.vector4();
  vl.ops = {b.global_addr(0)};
  const ValueId vec = f.add_instr(std::move(vl));
  f.block(0).insts.push_back(vec);
  const ValueId splat = b.vsplat(acc);
  const ValueId prod = b.binop(Opcode::FMul, vec, splat);
  const ValueId lane = b.vextract(prod, 2);
  const ValueId red = b.vreduce_add(prod);
  const ValueId cmp = b.fcmp(CmpPred::OLT, lane, red);
  const ValueId pick = b.select(cmp, lane, red);
  const ValueId as_int = b.cast(Opcode::FPToSI, pick, kI64);
  const ValueId back = b.cast(Opcode::SIToFP, as_int, kF64);
  b.store(back, b.global_addr(1));
  b.ret(b.binop(Opcode::FAdd, back, b.const_f64(-0.001)));
  return m;
}

/// Integers at their extremes, phis, calls, memory operations and a dead
/// instruction (which the printer skips).
Module int_module() {
  Module m;
  m.name = "golden_int";
  m.globals.push_back(GlobalVar{"table", std::vector<std::uint8_t>(100)});
  create_function(m, "helper", kI64, {kI64, kI32}, true);
  create_function(m, "main", kI64, {}, false);
  {
    IRBuilder b(m.functions[0]);
    b.set_insert(0);
    const ValueId wide = b.cast(Opcode::SExt, b.arg(1), kI64);
    const ValueId dead = b.binop(Opcode::Mul, wide, wide);
    m.functions[0].kill(dead);
    const ValueId z = b.cast(Opcode::ZExt, b.const_i16(-123), kI64);
    const ValueId t = b.cast(Opcode::Trunc, b.arg(0), kI32);
    const ValueId tw = b.cast(Opcode::SExt, t, kI64);
    b.ret(b.binop(Opcode::Xor, b.binop(Opcode::Add, wide, z), tw));
  }
  Function& f = m.functions[1];
  IRBuilder b(f);
  b.set_insert(0);
  const ValueId lo = b.const_i64(std::numeric_limits<std::int64_t>::min());
  const ValueId hi = b.const_i64(std::numeric_limits<std::int64_t>::max());
  const ValueId zero = b.const_i64(0);
  const ValueId one = b.const_i64(1);
  const ValueId buf = b.stack_alloc(kI32, 25);
  b.memset(buf, b.const_i64(-1), b.const_i64(100));
  b.memcpy(b.global_addr(0), buf, b.const_i64(100));
  const BlockId header = b.new_block("loop.header");
  const BlockId body = b.new_block("loop.body");
  const BlockId exit = b.new_block("loop.exit");
  b.br(header);
  b.set_insert(header);
  const ValueId iv = b.phi(kI64, {{zero, 0}});
  const ValueId acc = b.phi(kI64, {{lo, 0}});
  b.cond_br(b.icmp(CmpPred::SLT, iv, b.const_i64(-42)), body, exit);
  b.set_insert(body);
  const ValueId slot = b.gep(b.global_addr(0), iv, kI32);
  const ValueId elem = b.load(kI32, slot);
  const ValueId call = b.call(kI64, "helper", {hi, elem});
  const ValueId next_acc = b.binop(Opcode::Sub, acc, call);
  const ValueId next = b.binop(Opcode::Add, iv, one);
  b.store(b.const_i32(-2147483648LL), slot);
  b.br(header);
  f.instr(iv).ops.push_back(next);
  f.instr(iv).phi_blocks.push_back(body);
  f.instr(acc).ops.push_back(next_acc);
  f.instr(acc).phi_blocks.push_back(body);
  b.set_insert(exit);
  b.call(kVoid, "sink", {acc});
  b.ret(b.binop(Opcode::AShr, acc, b.const_i64(63)));
  return m;
}

// Recorded from the ostringstream printer that `print_module` replaced.
// clang-format off
const char* const kFpGolden =
    "module golden_fp\n"
    "global @g0 \"coef\" bytes=32\n"
    "global @g1 \"out\" bytes=8\n"
    "func @kernel(%0: f64, %1: ptr) -> f64 readnone {\n"
    "bb0 (entry):\n"
    "  %2 = fconst f64 -2.5\n"
    "  %3 = fadd f64 %0 %2\n"
    "  %4 = fconst f64 1e+300\n"
    "  %5 = fadd f64 %3 %4\n"
    "  %6 = fconst f64 0.1\n"
    "  %7 = fadd f64 %5 %6\n"
    "  %8 = fconst f64 1.23457e+08\n"
    "  %9 = fadd f64 %7 %8\n"
    "  %10 = fconst f64 1e-07\n"
    "  %11 = fadd f64 %9 %10\n"
    "  %12 = fconst f64 -0\n"
    "  %13 = fadd f64 %11 %12\n"
    "  %14 = fconst f64 3\n"
    "  %15 = fadd f64 %13 %14\n"
    "  %16 = fconst f64 0.333333\n"
    "  %17 = fadd f64 %15 %16\n"
    "  %18 = fconst f64 6.02214e+23\n"
    "  %19 = fadd f64 %17 %18\n"
    "  %20 = fconst f64 -1e-300\n"
    "  %21 = fadd f64 %19 %20\n"
    "  %22 = fconst f64 100000\n"
    "  %23 = fadd f64 %21 %22\n"
    "  %24 = fconst f64 1e+06\n"
    "  %25 = fadd f64 %23 %24\n"
    "  %26 = fconst f64 0.0001\n"
    "  %27 = fadd f64 %25 %26\n"
    "  %28 = fconst f64 1e-05\n"
    "  %29 = fadd f64 %27 %28\n"
    "  %30 = fconst f64 -7.25e-05\n"
    "  %31 = fadd f64 %29 %30\n"
    "  %32 = fconst f64 4.94066e-324\n"
    "  %33 = fadd f64 %31 %32\n"
    "  %34 = fconst f64 inf\n"
    "  %35 = fadd f64 %33 %34\n"
    "  %36 = fconst f64 -inf\n"
    "  %37 = fadd f64 %35 %36\n"
    "  %38 = fconst f64 0.5\n"
    "  %39 = fmul f64 %37 %38\n"
    "  %40 = fconst f64 -3.75\n"
    "  %41 = fdiv f64 %39 %40\n"
    "  %42 = fconst f64 1234.57\n"
    "  %43 = fsub f64 %41 %42\n"
    "  %44 = globaladdr ptr @g0\n"
    "  %45 = load <4 x f64> %44\n"
    "  %46 = vsplat <4 x f64> %43\n"
    "  %47 = fmul <4 x f64> %45 %46\n"
    "  %48 = vextract f64 lane=2 %47\n"
    "  %49 = vreduce.add f64 %47\n"
    "  %50 = fcmp olt i1 %48 %49\n"
    "  %51 = select f64 %50 %48 %49\n"
    "  %52 = fptosi i64 %51\n"
    "  %53 = sitofp f64 %52\n"
    "  %54 = globaladdr ptr @g1\n"
    "  store %53 %54\n"
    "  %56 = fconst f64 -0.001\n"
    "  %57 = fadd f64 %53 %56\n"
    "  ret %57\n"
    "}\n"
    ;
const char* const kIntGolden =
    "module golden_int\n"
    "global @g0 \"table\" bytes=100\n"
    "func @helper(%0: i64, %1: i32) -> i64 {\n"
    "bb0 (entry):\n"
    "  %2 = sext i64 %1\n"
    "  %4 = const i16 -123\n"
    "  %5 = zext i64 %4\n"
    "  %6 = trunc i32 %0\n"
    "  %7 = sext i64 %6\n"
    "  %8 = add i64 %2 %5\n"
    "  %9 = xor i64 %8 %7\n"
    "  ret %9\n"
    "}\n"
    "func @main() -> i64 {\n"
    "bb0 (entry):\n"
    "  %0 = const i64 -9223372036854775808\n"
    "  %1 = const i64 9223372036854775807\n"
    "  %2 = const i64 0\n"
    "  %3 = const i64 1\n"
    "  %4 = alloca ptr bytes=100\n"
    "  %5 = const i64 100\n"
    "  %6 = const i64 -1\n"
    "  memset %4 %6 %5\n"
    "  %8 = const i64 100\n"
    "  %9 = globaladdr ptr @g0\n"
    "  memcpy %9 %4 %8\n"
    "  br ->bb1\n"
    "bb1 (loop.header):\n"
    "  %12 = phi i64 [%2, bb0] [%22, bb2]\n"
    "  %13 = phi i64 [%0, bb0] [%21, bb2]\n"
    "  %14 = const i64 -42\n"
    "  %15 = icmp slt i1 %12 %14\n"
    "  condbr %15 ->bb2 ->bb3\n"
    "bb2 (loop.body):\n"
    "  %17 = globaladdr ptr @g0\n"
    "  %18 = gep ptr stride=4 %17 %12\n"
    "  %19 = load i32 %18\n"
    "  %20 = call i64 @helper %1 %19\n"
    "  %21 = sub i64 %13 %20\n"
    "  %22 = add i64 %12 %3\n"
    "  %23 = const i32 -2147483648\n"
    "  store %23 %18\n"
    "  br ->bb1\n"
    "bb3 (loop.exit):\n"
    "  call @sink %13\n"
    "  %27 = const i64 63\n"
    "  %28 = ashr i64 %13 %27\n"
    "  ret %28\n"
    "}\n"
    ;
// clang-format on

}  // namespace

TEST(Printer, TextMatchesRecordedGolden) {
  EXPECT_EQ(print_module(fp_module()), kFpGolden);
  EXPECT_EQ(print_module(int_module()), kIntGolden);
}

TEST(Printer, HashIsFnvOfTextOnGoldenModules) {
  for (const Module& m : {fp_module(), int_module()}) {
    EXPECT_EQ(print_hash(m), fnv1a(print_module(m))) << m.name;
  }
}

class PrintHashPerProgram : public ::testing::TestWithParam<std::string> {};

TEST_P(PrintHashPerProgram, HashIsFnvOfTextUnderRandomSequences) {
  const auto& space = passes::PassRegistry::instance().pass_names();
  Rng rng(std::hash<std::string>{}(GetParam()) ^ 0x5eed);
  for (int seq = 0; seq <= 30; ++seq) {
    auto p = bench_suite::make_program(GetParam());
    for (auto& m : p.modules) {
      // Sequence 0 checks the unoptimised module.
      if (seq > 0) {
        std::vector<std::string> names;
        const int len = 1 + static_cast<int>(rng.uniform_index(24));
        for (int i = 0; i < len; ++i)
          names.push_back(space[rng.uniform_index(space.size())]);
        passes::run_sequence(m, names);
      }
      const std::string text = print_module(m);
      ASSERT_EQ(print_hash(m), fnv1a(text))
          << GetParam() << " module " << m.name << " sequence " << seq;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, PrintHashPerProgram,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const auto& b : bench_suite::benchmark_list())
                             names.push_back(b.name);
                           return names;
                         }()),
                         [](const auto& info) { return info.param; });
