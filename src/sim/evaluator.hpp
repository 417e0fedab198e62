#pragma once
// The compile-and-measure service every autotuner in this repo talks to.
//
// It mirrors the paper's experimental setup:
//   - per-module pass sequences (untuned modules get the reference -O3),
//   - differential testing of every optimised build against the -O0
//     reference output (Sec. 1.1 / 5.4),
//   - an identical-binary cache so sequences that produce the same
//     optimised program are not re-measured (Kulkarni et al.),
//   - separate accounting of compile time vs. measurement time for the
//     Fig. 5.12 runtime-breakdown experiment.
//
// Tuners program against the abstract `Evaluator` interface so the same
// search code runs against the raw `ProgramEvaluator` or the hardened
// `RobustEvaluator` (sim/robust_evaluator.hpp) that adds retries,
// replicated measurement and quarantine on top of an injected fault model
// (sim/faults.hpp).
//
// Batch evaluation: `evaluate_batch`/`compile_batch` are prefetch + serial
// replay. `prefetch` performs only pure, memoizable work — pass pipelines
// through the pipeline-prefix cache and interpreter runs into a
// measurement memo — on a work-stealing thread pool; the serial loop then
// runs the *unchanged* single-candidate code path, which consumes the
// memos. Every order-sensitive step (fault-injector counters, the
// identical-binary cache, quarantine state) executes in exact serial
// order, so batch results are bit-identical to the serial path at every
// thread count, by construction.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/interpreter.hpp"
#include "ir/module.hpp"
#include "passes/pass.hpp"
#include "sim/prefix_cache.hpp"
#include "support/flat_map.hpp"

namespace citroen {
class ThreadPool;  // support/thread_pool.hpp
}

namespace citroen::persist {
class Writer;  // persist/codec.hpp
class Reader;
}

namespace citroen::sim {

class FaultInjector;  // sim/faults.hpp

/// Map module name -> pass sequence. Modules absent from the map are
/// compiled with the reference -O3 pipeline. Keys iterate in sorted
/// order (as with the std::map this replaces), so signatures and hashes
/// derived from iteration order are stable.
using SequenceAssignment = FlatMap<std::string, std::vector<std::string>>;

/// Structured failure taxonomy for evaluation outcomes, alongside the
/// human-readable `why_invalid`. Mirrors the hazard classes the
/// autotuning literature reports for phase-order search.
enum class FailureKind {
  None,           ///< valid outcome
  Crash,          ///< pass pipeline aborted or the build trapped at runtime
  Hang,           ///< instruction budget exhausted (timeout analogue)
  Miscompile,     ///< differential test failed (any workload)
  NoisyRejected,  ///< measurement spread too large to trust (robust layer)
  Verifier,       ///< IR verifier rejected the optimised module
  // Fork-worker classes (dist/pool.hpp). Append-only: the
  // enum is serialized as a u8 in journals and checkpoints.
  WorkerCrash,    ///< evaluation killed its sandbox worker (signal/exit)
  WorkerTimeout,  ///< evaluation blew its wall/CPU deadline in the sandbox
  WorkerOOM,      ///< evaluation exhausted the sandbox memory cap
  // Dist-layer classes (dist/pool.hpp). Unlike the sandbox classes these
  // describe *infrastructure* failures (a remote peer, not the
  // candidate): the pool reassigns or falls back locally and never
  // synthesizes an outcome from them, so they appear in stats/obs only.
  PeerLost,       ///< peer socket died mid-job (EOF, ECONNRESET, SIGKILL)
  PeerTimeout,    ///< peer blew the job wall deadline or a liveness probe
  PeerProtocol,   ///< peer sent an undecodable or out-of-protocol frame
};

/// Stable display name ("crash", "hang", ...), for reports and logs.
const char* failure_kind_name(FailureKind k);

struct EvalOutcome {
  bool valid = false;       ///< compiled, verified, and output-matched
  std::string why_invalid;  ///< verifier/difftest/trap reason when !valid
  FailureKind failure = FailureKind::None;
  bool transient = false;   ///< failure was injected-transient (retryable)
  double cycles = 0.0;      ///< modelled runtime of the optimised build
  double speedup = 0.0;     ///< o3_cycles / cycles (0 when invalid)
  bool cache_hit = false;   ///< identical binary already measured
  int attempts = 1;         ///< compile+measure attempts consumed (>=1)
  std::uint64_t binary_hash = 0;  ///< structural hash (0 if build failed)
  passes::StatsRegistry stats;  ///< compilation statistics of tuned modules
  std::size_t code_size = 0;    ///< total live instructions after opt
};

/// Compile-only result: the statistics CITROEN's cost model consumes
/// without paying for a runtime measurement.
struct CompileOutcome {
  bool valid = false;
  std::string why_invalid;
  FailureKind failure = FailureKind::None;
  bool transient = false;   ///< failure was injected-transient (retryable)
  passes::StatsRegistry stats;  ///< merged over tuned modules
  /// Per-tuned-module statistics (the paper concatenates these when a
  /// program has several tuned modules).
  std::map<std::string, passes::StatsRegistry> module_stats;
  std::size_t code_size = 0;
  std::uint64_t binary_hash = 0;  ///< structural hash of the built program
  /// The optimised program, when requested (feature-extraction baselines
  /// need the IR itself).
  std::shared_ptr<const ir::Program> program;
};

/// One tuned module's build as a worker reports it. In the worker
/// `build` is its own cached build; the result frame carries every
/// field but the IR, so on the pool's side it is a summary
/// (`ModuleBuild::summary`).
struct BuildSummary {
  std::string module;
  std::shared_ptr<const ModuleBuild> build;
};

/// The pure, order-insensitive part of one evaluation: what a worker
/// computes out-of-process and ships back. Contains no injected-fault
/// or cache state — the pool installs it (`install_pure_result`) and
/// replays the normal serial path, which finds the builds resident and
/// the runs memoized, so pooled results stay byte-identical to
/// in-process ones.
struct PureEvalResult {
  bool built = false;             ///< all modules compiled and verified
  std::uint64_t binary_hash = 0;  ///< composed hash (0 when !built)
  /// Every tuned module the build reached, in program order, the one
  /// that failed included. Untuned modules reuse the prebuilt -O3 build.
  std::vector<BuildSummary> summaries;
  /// Interpreter runs: runs[0] the base workload, runs[1+i] workload i,
  /// truncated at the serial path's early-stop point (see MeasureMemo).
  /// Empty when the job was compile-only or the build failed.
  std::vector<ir::ExecResult> runs;
};

/// Abstract compile-and-measure service. `ProgramEvaluator` is the plain
/// implementation; `RobustEvaluator` hardens one against faults.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  virtual const ir::Program& base_program() const = 0;
  virtual const std::string& program_name() const = 0;

  /// Modelled cycles of the -O3 build (the paper's baseline).
  virtual double o3_cycles() const = 0;
  /// Modelled cycles of the unoptimised build.
  virtual double o0_cycles() const = 0;
  /// Reference output for differential testing.
  virtual std::int64_t reference_output() const = 0;

  /// Fraction of -O3 runtime attributed to each module, descending.
  virtual std::vector<std::pair<std::string, double>> hot_modules() const = 0;

  /// Compile with per-module sequences; no execution.
  virtual CompileOutcome compile(const SequenceAssignment& seqs,
                                 bool keep_program = false) const = 0;

  /// Full evaluation: compile, verify, differential-test, measure.
  virtual EvalOutcome evaluate(const SequenceAssignment& seqs) = 0;

  /// Warm internal memo caches for an upcoming batch of candidates by
  /// doing the pure work (pass pipelines, interpreter runs) concurrently.
  /// Purely a performance hint: subsequent `evaluate`/`compile` calls
  /// return bit-identical results whether or not prefetch ran, at any
  /// thread count. With `with_measure` false only compilation is warmed.
  /// The base implementation is a no-op.
  virtual void prefetch(std::span<const SequenceAssignment> batch,
                        bool with_measure = true) {
    (void)batch;
    (void)with_measure;
  }

  /// Evaluate a whole batch (an ES population, a replay chunk): prefetch,
  /// then the exact serial evaluation loop. Results are bit-identical to
  /// calling `evaluate` on each element in order.
  std::vector<EvalOutcome> evaluate_batch(
      std::span<const SequenceAssignment> batch);

  /// Compile-only batch counterpart of `evaluate_batch`.
  std::vector<CompileOutcome> compile_batch(
      std::span<const SequenceAssignment> batch, bool keep_program = false);

  /// True when this assignment's signature is known to fail
  /// deterministically; candidate generators skip such proposals. The
  /// plain evaluator quarantines nothing.
  virtual bool is_quarantined(const SequenceAssignment&) const {
    return false;
  }

  /// Attach a fault injector to the layer that consumes it (nullptr
  /// detaches). Decorators forward towards the ProgramEvaluator at the
  /// bottom of the stack; the default is a no-op so evaluators without an
  /// injection site ignore it.
  virtual void set_fault_injector(const FaultInjector* injector) {
    (void)injector;
  }

  // ---- accounting (Fig. 5.12 / Table 4.2) -------------------------------
  virtual double total_compile_seconds() const = 0;
  virtual double total_measure_seconds() const = 0;
  virtual int num_compiles() const = 0;
  virtual int num_measurements() const = 0;
  virtual int num_cache_hits() const = 0;
};

class ProgramEvaluator : public Evaluator {
 public:
  /// `base` must be the unoptimised (-O0 style) program. `limits` bounds
  /// every interpreter run this evaluator performs (instruction budget,
  /// memory, call depth); budget exhaustion surfaces as a `Hang` failure.
  ProgramEvaluator(ir::Program base, ir::CostModel machine,
                   ir::ExecLimits limits = {});

  const ir::Program& base_program() const override { return base_; }
  const std::string& program_name() const override { return base_.name; }

  double o3_cycles() const override { return o3_cycles_; }
  double o0_cycles() const override { return o0_cycles_; }
  std::int64_t reference_output() const override { return reference_output_; }

  /// Adjust interpreter limits after construction (e.g. derive a hang
  /// budget from the -O0 instruction count). Flushes the measurement
  /// cache; the -O3/-O0 baselines are not re-derived.
  void set_exec_limits(const ir::ExecLimits& limits);
  const ir::ExecLimits& exec_limits() const { return limits_; }

  /// Attach a fault injector (nullptr detaches). Injected faults apply to
  /// subsequent compiles/evaluations; deterministic injected outcomes are
  /// cached like real ones, transient ones are never cached.
  void set_fault_injector(const FaultInjector* injector) override;
  const FaultInjector* fault_injector() const { return injector_; }

  /// Pool used by `prefetch` (nullptr -> ThreadPool::global()). The pool
  /// choice affects wall-clock only, never results.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Reconfigure the pipeline-prefix cache (byte budget 0 disables it).
  /// Drops cached builds and measurement memos; evaluation
  /// results are unaffected. Applies to the shared cache when one is
  /// attached.
  void set_prefix_cache_config(const PrefixCacheConfig& config);
  PrefixCacheStats prefix_cache_stats() const { return bc().stats(); }

  /// Route module builds through a cache shared with other evaluators
  /// (nullptr detaches, reverting to the private cache). Safe for
  /// results at any thread count — the cache is pure memoization of pure
  /// pass pipelines, and keys carry a per-module content hash so
  /// same-named modules from different programs never alias. Drops this
  /// evaluator's measurement memos.
  void set_shared_prefix_cache(std::shared_ptr<PrefixCache> cache);

  /// Fraction of -O3 runtime attributed to each module, descending.
  /// This is the `perf`-based hot-module profile of Sec. 5.3.1.
  std::vector<std::pair<std::string, double>> hot_modules() const override;

  /// Register an additional workload: a program built by the same
  /// generator with a different data seed (identical module/function
  /// structure, different global images). Differential testing and
  /// timing then run over ALL workloads: a build is valid only if it
  /// matches the reference output on every input, and `cycles` becomes
  /// the mean — the multi-input methodology the thesis's Sec. 6.2.2
  /// critique calls for. Invalidates the measurement cache.
  void add_workload(const ir::Program& variant);

  std::size_t num_workloads() const { return workloads_.size() + 1; }

  /// Compile with per-module sequences; no execution. With `keep_program`
  /// the optimised IR is returned for feature extraction.
  CompileOutcome compile(const SequenceAssignment& seqs,
                         bool keep_program = false) const override;

  /// Full evaluation: compile, verify, differential-test, measure.
  EvalOutcome evaluate(const SequenceAssignment& seqs) override;

  /// Concurrently warm the prefix cache (and, with `with_measure`, the
  /// interpreter-run memo) for the batch. See the determinism contract in
  /// the file header. No-op when the prefix cache is disabled.
  void prefetch(std::span<const SequenceAssignment> batch,
                bool with_measure = true) override;

  // ---- out-of-process evaluation (sandbox/) -----------------------------
  /// Perform only the pure part of an evaluation: assemble the binary
  /// through the prefix cache and (with `with_measure`) interpret it on
  /// every workload up to the serial early-stop point. Consults no fault
  /// injector, touches no outcome cache and charges no accounting — safe
  /// to run in a forked worker whose side effects are discarded.
  PureEvalResult pure_evaluate(const SequenceAssignment& seqs,
                               bool with_measure) const;

  /// Install a worker's PureEvalResult for `seqs`: its build summaries
  /// into the build cache, under the keys assembly looks up, and its
  /// interpreter runs as a measure memo, exactly as prefetch would have
  /// left them. The serial path then neither rebuilds nor re-interprets.
  /// Installing never changes results, only where the time is spent.
  /// The memo is skipped if the binary already has an outcome or a memo.
  void install_pure_result(const SequenceAssignment& seqs,
                           PureEvalResult res);

  // ---- accounting (Fig. 5.12 / Table 4.2) -------------------------------
  double total_compile_seconds() const override { return compile_seconds_; }
  double total_measure_seconds() const override { return measure_seconds_; }
  int num_compiles() const override { return num_compiles_; }
  int num_measurements() const override { return num_measurements_; }
  int num_cache_hits() const override { return num_cache_hits_; }

  // ---- checkpointing (persist/) -----------------------------------------
  /// Serialize the order-sensitive runtime state: the identical-binary
  /// cache (whose hits decide what counts against a tuner's budget) and
  /// the accounting counters. Pure memos (prefix cache, measurement
  /// memos) are deliberately excluded — results do not depend on them.
  void save_runtime_state(persist::Writer& w) const;
  void load_runtime_state(persist::Reader& r);

 private:
  /// One candidate binary by reference: the cached build of every base
  /// module in program order (the prebuilt -O3 build where a module is
  /// untuned), with the composed hash and the live-instruction count.
  /// No IR is copied until `materialize`. A failed assembly keeps the
  /// builds it reached, a build that failed included.
  struct Assembly {
    std::vector<std::shared_ptr<const ModuleBuild>> modules;
    std::uint64_t hash = 0;
    std::size_t code_size = 0;
    std::string error;  ///< why the build failed; empty on success
    FailureKind failure = FailureKind::None;
    bool transient = false;
  };

  /// Assemble through the build cache, consulting `injector` (null on
  /// the pure path) for tuned modules. Stats of tuned modules built
  /// before any failure are merged into the optional outputs.
  Assembly assemble(const SequenceAssignment& seqs,
                    const FaultInjector* injector,
                    passes::StatsRegistry* stats_out = nullptr,
                    std::map<std::string, passes::StatsRegistry>*
                        module_stats_out = nullptr) const;
  /// `assemble` with this evaluator's injector and compile accounting.
  Assembly build(const SequenceAssignment& seqs,
                 passes::StatsRegistry* stats_out,
                 std::map<std::string, passes::StatsRegistry>*
                     module_stats_out = nullptr) const;
  /// Copy an assembly's modules into a program the interpreter can run.
  /// A summary in it is rebuilt for its IR, under the sequence `seqs`
  /// gives its module (-O3 where untuned).
  ir::Program materialize(const Assembly& a,
                          const SequenceAssignment& seqs) const;

  struct Workload {
    /// Global data images per module: [module][global] -> bytes.
    std::vector<std::vector<std::vector<std::uint8_t>>> images;
    std::int64_t reference = 0;  ///< -O0 output on this input
  };

  /// Pure interpreter runs for an assembled binary, with the serial
  /// path's early-stop rule: extra workloads only while outputs match.
  std::vector<ir::ExecResult> measure_pure(ir::Program built) const;

  /// Pure interpreter runs for one binary, precomputed by `prefetch`:
  /// runs[0] is the base workload, runs[1+i] workload i. May be shorter
  /// than the workload count (prefetch stops where the serial path
  /// would); the serial consumer falls back to interpreting directly.
  struct MeasureMemo {
    std::vector<ir::ExecResult> runs;
  };

  /// Swap the workload's global images into a built program.
  static void apply_workload(ir::Program& built, const Workload& w);

  ir::Program base_;
  Assembly o3_;  ///< the reference -O3 build, reused for untuned modules
  ir::CostModel machine_;
  ir::ExecLimits limits_;
  const FaultInjector* injector_ = nullptr;
  std::vector<Workload> workloads_;  ///< extra inputs beyond the base
  double o3_cycles_ = 0.0;
  double o0_cycles_ = 0.0;
  std::int64_t reference_output_ = 0;
  std::unordered_map<std::string, double> o3_module_cycles_;

  /// The active build cache: the shared one when attached, else private.
  PrefixCache& bc() const {
    return shared_cache_ ? *shared_cache_ : build_cache_;
  }
  /// Content-hash salt for a module's prefix-cache keys.
  std::uint64_t module_salt(const std::string& name) const {
    const auto it = module_salt_.find(name);
    return it == module_salt_.end() ? 0 : it->second;
  }

  mutable PrefixCache build_cache_;
  std::shared_ptr<PrefixCache> shared_cache_;
  /// Print-hash of each base (-O0) module, mixed into prefix-cache keys.
  std::unordered_map<std::string, std::uint64_t> module_salt_;
  std::unordered_map<std::uint64_t, MeasureMemo> measure_memo_;
  ThreadPool* pool_ = nullptr;

  std::unordered_map<std::uint64_t, EvalOutcome> cache_;
  mutable double compile_seconds_ = 0.0;
  double measure_seconds_ = 0.0;
  mutable int num_compiles_ = 0;
  int num_measurements_ = 0;
  int num_cache_hits_ = 0;
};

/// Structural hash of a program (identical-binary detection).
std::uint64_t program_hash(const ir::Program& p);

/// Stable signature of a sequence assignment (quarantine keying).
std::uint64_t assignment_signature(const SequenceAssignment& seqs);

// ---- serialization (persist/codec.hpp) ------------------------------------
// The journal stores every evaluation as (assignment, outcome); these
// encoders are bit-exact (doubles as IEEE-754 bit patterns) so a record
// replayed after a crash byte-compares against the original.
void put(persist::Writer& w, const SequenceAssignment& a);
void get(persist::Reader& r, SequenceAssignment& a);
void put(persist::Writer& w, const EvalOutcome& o);
void get(persist::Reader& r, EvalOutcome& o);

}  // namespace citroen::sim
