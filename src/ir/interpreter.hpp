#pragma once
// MiniIR interpreter with a deterministic micro-architectural cost model.
//
// Running a program serves two purposes at once:
//  1. *Semantics* — the entry function's i64 return value is the program
//     output used by differential testing (original vs. optimised build).
//  2. *Timing* — each executed instruction is charged a cycle cost; the
//     total stands in for wall-clock runtime on the paper's ARM/x86 boxes.
//     Costs model the first-order effects phase ordering exploits:
//       - vector ops amortise 4 lanes for ~1.6x one lane's cost,
//       - a 1-bit branch predictor charges mispredictions (so unrolling
//         and if-conversion pay off),
//       - calls have fixed overhead (so inlining pays off),
//       - register pressure above the register file charges per-instruction
//         spill traffic (so *over*-unrolling and over-inlining hurt),
//       - oversized functions charge an i-cache penalty per call.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/module.hpp"

namespace citroen::ir {

/// Cycle cost table; the sim/ layer offers named presets (ARM A57-like,
/// x86 Zen-like) that differ in these constants.
struct CostModel {
  double alu = 1.0;            ///< add/sub/logic/shift/cmp/select/cast
  double imul = 3.0;           ///< integer multiply
  double idiv = 18.0;          ///< integer divide/remainder
  double falu = 2.0;           ///< fp add/sub
  double fmul = 3.0;           ///< fp multiply
  double fdiv = 16.0;          ///< fp divide
  double load = 4.0;           ///< scalar load (cache-hit latency)
  double store = 2.0;          ///< scalar store
  double vector_factor = 1.6;  ///< vector op cost = scalar cost * factor
  double branch = 1.0;         ///< taken/not-taken baseline
  double mispredict = 12.0;    ///< 1-bit predictor miss penalty
  double call_overhead = 10.0; ///< per dynamic call (prologue/epilogue)
  double mem_intrinsic_base = 12.0;   ///< memset/memcpy fixed cost
  double mem_intrinsic_per_byte = 0.2;
  int num_registers = 16;      ///< beyond this, spill overhead applies
  double spill_per_instr = 0.2;///< extra cycles/instr per excess live value
  int icache_instrs = 320;     ///< function size before i-cache penalties
  double icache_per_call = 24.0;

  /// Base cost of one executed instruction (ignoring penalties).
  double instr_cost(const Instr& in) const;
};

struct ExecLimits {
  std::uint64_t max_instructions = 80'000'000;
  std::uint64_t max_memory_bytes = 1u << 26;
  int max_call_depth = 256;
};

struct ExecResult {
  bool ok = false;             ///< completed without trapping
  std::string trap;            ///< reason when !ok
  /// The run was cut off by `ExecLimits::max_instructions` rather than a
  /// semantic trap — the deterministic analogue of a wall-clock timeout.
  /// Callers classify this as a *hang*, not a crash.
  bool hung = false;
  std::int64_t ret = 0;        ///< entry function return value (checksum)
  double cycles = 0.0;         ///< modelled total runtime
  std::uint64_t instructions = 0;
  /// Modelled cycles attributed to each module (per-module "perf" view),
  /// inserted in module order: the evaluator sums them in the map's
  /// iteration order, so that order is part of the result.
  std::unordered_map<std::string, double> module_cycles;
};

/// Execute `p` from its entry symbol under `cm`. Memory the run has not
/// written reads as zero, except where its globals' initial bytes lie.
/// Each thread reuses one memory image from run to run; throws
/// std::bad_alloc when that image cannot be mapped.
ExecResult interpret(const Program& p, const CostModel& cm = {},
                     const ExecLimits& limits = {});

}  // namespace citroen::ir
