#include "sim/evaluator.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/codec.hpp"
#include "sim/faults.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace citroen::sim {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_string(const std::string& s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Fold one module's print hash into a composed program hash. Modules
/// are mixed in program order, so equal programs hash equal and the
/// composed value can be assembled from per-module cached hashes.
void mix_module_hash(std::uint64_t& h, std::uint64_t module_hash) {
  h ^= module_hash;
  h *= kFnvPrime;
}

/// Cache key of one (module, interned sequence) build job, used to
/// deduplicate prefetch work. Mirrors the prefix cache's keying.
std::uint64_t build_job_key(const std::string& module,
                            const std::vector<passes::PassId>& ids) {
  std::uint64_t h = fnv_string(module);
  h ^= 0xff;
  h *= kFnvPrime;
  for (const passes::PassId id : ids) {
    h ^= static_cast<std::uint8_t>(id & 0xff);
    h *= kFnvPrime;
    h ^= static_cast<std::uint8_t>(id >> 8);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

const char* failure_kind_name(FailureKind k) {
  switch (k) {
    case FailureKind::None: return "none";
    case FailureKind::Crash: return "crash";
    case FailureKind::Hang: return "hang";
    case FailureKind::Miscompile: return "miscompile";
    case FailureKind::NoisyRejected: return "noisy-rejected";
    case FailureKind::Verifier: return "verifier";
    case FailureKind::WorkerCrash: return "worker-crash";
    case FailureKind::WorkerTimeout: return "worker-timeout";
    case FailureKind::WorkerOOM: return "worker-oom";
    case FailureKind::PeerLost: return "peer-lost";
    case FailureKind::PeerTimeout: return "peer-timeout";
    case FailureKind::PeerProtocol: return "peer-protocol";
  }
  return "unknown";
}

std::uint64_t program_hash(const ir::Program& p) {
  // The printer output is a deterministic structural encoding; hashing
  // it per module and folding the per-module hashes detects identical
  // binaries across different pass sequences, and lets the evaluator
  // compose the program hash from cached per-module values.
  std::uint64_t h = kFnvOffset;
  for (const auto& m : p.modules) mix_module_hash(h, ir::print_hash(m));
  return h;
}

std::uint64_t assignment_signature(const SequenceAssignment& seqs) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const auto& [module, seq] : seqs) {
    mix(module);
    for (const auto& p : seq) mix(p);
  }
  return h;
}

ProgramEvaluator::ProgramEvaluator(ir::Program base, ir::CostModel machine,
                                   ir::ExecLimits limits)
    : base_(std::move(base)), machine_(machine), limits_(limits) {
  const auto errs = [&] {
    std::vector<std::string> all;
    for (const auto& m : base_.modules) {
      auto e = ir::verify_module(m);
      all.insert(all.end(), e.begin(), e.end());
    }
    return all;
  }();
  if (!errs.empty())
    throw std::runtime_error("base program invalid: " + errs.front());

  // Content salts must exist before the first build (the -O3 reference
  // below), or constructor-time cache keys would alias by module name
  // alone — harmless in a private RAM cache, wrong the moment a cache is
  // shared across evaluators or spilled to the disk tier.
  for (const auto& m : base_.modules)
    module_salt_[m.name] = ir::print_hash(m);

  const auto o0 = ir::interpret(base_, machine_, limits_);
  if (!o0.ok)
    throw std::runtime_error("base program traps: " + o0.trap);
  o0_cycles_ = o0.cycles;
  reference_output_ = o0.ret;

  Assembly o3_build = build({}, nullptr);
  if (!o3_build.error.empty())
    throw std::runtime_error("-O3 build failed: " + o3_build.error);
  const auto o3 = ir::interpret(materialize(o3_build), machine_, limits_);
  if (!o3.ok || o3.ret != reference_output_)
    throw std::runtime_error("-O3 build miscompiled " + base_.name + ": " +
                             (o3.ok ? "output mismatch" : o3.trap));
  o3_cycles_ = o3.cycles;
  o3_module_cycles_ = o3.module_cycles;
  o3_ = std::move(o3_build);
}

void ProgramEvaluator::set_exec_limits(const ir::ExecLimits& limits) {
  limits_ = limits;
  // Validity can change under the new limits; drop stale outcomes and
  // memoized interpreter runs.
  cache_.clear();
  measure_memo_.clear();
}

void ProgramEvaluator::set_fault_injector(const FaultInjector* injector) {
  injector_ = (injector && injector->plan().enabled()) ? injector : nullptr;
  // Outcomes cached under a different fault model are no longer valid.
  cache_.clear();
  measure_memo_.clear();
}

void ProgramEvaluator::set_prefix_cache_config(
    const PrefixCacheConfig& config) {
  bc().configure(config);
  measure_memo_.clear();
}

void ProgramEvaluator::set_shared_prefix_cache(
    std::shared_ptr<PrefixCache> cache) {
  shared_cache_ = std::move(cache);
  measure_memo_.clear();
}

void ProgramEvaluator::apply_workload(ir::Program& built, const Workload& w) {
  for (std::size_t mi = 0; mi < built.modules.size(); ++mi) {
    auto& globals = built.modules[mi].globals;
    for (std::size_t gi = 0; gi < globals.size(); ++gi)
      globals[gi].init = w.images[mi][gi];
  }
}

void ProgramEvaluator::add_workload(const ir::Program& variant) {
  if (variant.modules.size() != base_.modules.size())
    throw std::runtime_error("workload structure mismatch");
  Workload w;
  for (std::size_t mi = 0; mi < variant.modules.size(); ++mi) {
    const auto& m = variant.modules[mi];
    if (m.globals.size() != base_.modules[mi].globals.size())
      throw std::runtime_error("workload global-count mismatch in " + m.name);
    std::vector<std::vector<std::uint8_t>> images;
    for (const auto& g : m.globals) images.push_back(g.init);
    w.images.push_back(std::move(images));
  }
  const auto ref = ir::interpret(variant, machine_, limits_);
  if (!ref.ok)
    throw std::runtime_error("workload variant traps: " + ref.trap);
  w.reference = ref.ret;
  workloads_.push_back(std::move(w));

  // Timings and validity now mean something different: flush the cache
  // and recompute the multi-workload -O3 baseline.
  cache_.clear();
  measure_memo_.clear();
  ir::Program o3 = materialize(o3_);
  double total = ir::interpret(o3, machine_, limits_).cycles;
  for (const auto& wk : workloads_) {
    apply_workload(o3, wk);
    const auto r = ir::interpret(o3, machine_, limits_);
    if (!r.ok || r.ret != wk.reference)
      throw std::runtime_error("-O3 fails on added workload");
    total += r.cycles;
  }
  o3_cycles_ = total / static_cast<double>(num_workloads());
}

std::vector<std::pair<std::string, double>> ProgramEvaluator::hot_modules()
    const {
  double total = 0.0;
  for (const auto& [name, c] : o3_module_cycles_) total += c;
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, c] : o3_module_cycles_)
    out.emplace_back(name, total > 0.0 ? c / total : 0.0);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

ProgramEvaluator::Assembly ProgramEvaluator::assemble(
    const SequenceAssignment& seqs, const FaultInjector* injector,
    passes::StatsRegistry* stats_out,
    std::map<std::string, passes::StatsRegistry>* module_stats_out) const {
  Assembly a;
  a.hash = kFnvOffset;
  a.modules.reserve(base_.modules.size());
  for (std::size_t i = 0; i < base_.modules.size(); ++i) {
    const ir::Module& m = base_.modules[i];
    const auto it = seqs.find(m.name);
    // Reuse the prebuilt -O3 module when this module is not being tuned
    // (constructor pass: o3_ is still empty, so compile everything).
    std::shared_ptr<const ModuleBuild> mb;
    if (it == seqs.end() && !o3_.modules.empty()) {
      mb = o3_.modules[i];
    } else {
      const auto& seq = it == seqs.end() ? passes::o3_sequence() : it->second;
      // Injected compiler faults hit tuned (adversarially ordered)
      // pipelines only; the fixed reference pipeline is assumed sound.
      if (injector && it != seqs.end()) {
        const auto fault = injector->compile_fault(m.name, seq);
        if (fault.kind == FaultKind::Crash) {
          a.error = "pass pipeline crashed (injected): " + fault.detail;
          a.failure = FailureKind::Crash;
          a.transient = fault.transient;
          return a;
        }
      }
      std::vector<passes::PassId> ids;
      try {
        ids = passes::intern_sequence(seq);
      } catch (const std::exception& e) {
        a.error = std::string("pass pipeline failed: ") + e.what();
        a.failure = FailureKind::Crash;
        return a;
      }
      mb = bc().build(m, ids, module_salt(m.name));
      if (!mb->ok) {
        a.error = (mb->crashed ? "pass pipeline failed: " : "verifier: ") +
                  mb->error;
        a.failure = mb->crashed ? FailureKind::Crash : FailureKind::Verifier;
        return a;
      }
      if (stats_out && it != seqs.end()) stats_out->merge(mb->stats);
      if (module_stats_out && it != seqs.end())
        (*module_stats_out)[m.name] = mb->stats;
    }
    mix_module_hash(a.hash, mb->print_hash);
    a.code_size += mb->code_size;
    a.modules.push_back(std::move(mb));
  }
  return a;
}

ProgramEvaluator::Assembly ProgramEvaluator::build(
    const SequenceAssignment& seqs, passes::StatsRegistry* stats_out,
    std::map<std::string, passes::StatsRegistry>* module_stats_out) const {
  const Stopwatch sw;
  OBS_SPAN("build", "eval");
  OBS_COUNTER_INC("citroen_builds_total");
  Assembly a = assemble(seqs, injector_, stats_out, module_stats_out);
  if (a.error.empty()) {
    ++num_compiles_;
    compile_seconds_ += sw.seconds();
  }
  return a;
}

ir::Program ProgramEvaluator::materialize(const Assembly& a) const {
  ir::Program p;
  p.name = base_.name;
  p.entry = base_.entry;
  p.modules.reserve(a.modules.size());
  for (const auto& mb : a.modules) p.modules.push_back(mb->module);
  return p;
}

CompileOutcome ProgramEvaluator::compile(const SequenceAssignment& seqs,
                                         bool keep_program) const {
  CompileOutcome out;
  const Assembly a = build(seqs, &out.stats, &out.module_stats);
  if (!a.error.empty()) {
    out.why_invalid = a.error;
    out.failure = a.failure;
    out.transient = a.transient;
    return out;
  }
  out.valid = true;
  out.binary_hash = a.hash;
  out.code_size = a.code_size;
  if (keep_program)
    out.program = std::make_shared<const ir::Program>(materialize(a));
  return out;
}

EvalOutcome ProgramEvaluator::evaluate(const SequenceAssignment& seqs) {
  EvalOutcome out;
  const Assembly a = build(seqs, &out.stats);
  if (!a.error.empty()) {
    out.why_invalid = a.error;
    out.failure = a.failure;
    out.transient = a.transient;
    return out;
  }
  out.code_size = a.code_size;
  out.binary_hash = a.hash;
  const std::uint64_t h = a.hash;
  const auto hit = cache_.find(h);
  if (hit != cache_.end()) {
    const auto stats = out.stats;          // stats depend on the sequence,
    const auto size = out.code_size;       // not on the cached binary
    out = hit->second;
    out.stats = stats;
    out.code_size = size;
    out.cache_hit = true;
    ++num_cache_hits_;
    OBS_INSTANT("binary_cache_hit", "eval");
    OBS_COUNTER_INC("citroen_binary_cache_hits_total");
    return out;
  }

  const Stopwatch sw;
  OBS_SPAN("measure", "eval");
  OBS_COUNTER_INC("citroen_measurements_total");

  // Injected runtime hang: the binary would blow the instruction budget.
  // No cycles come back from a timed-out run.
  if (injector_) {
    const auto fault = injector_->runtime_fault(h);
    if (fault.kind == FaultKind::Hang) {
      ++num_measurements_;
      out.why_invalid =
          "hang: instruction budget exhausted (injected: " + fault.detail +
          ")";
      out.failure = FailureKind::Hang;
      out.transient = fault.transient;
      measure_seconds_ += sw.seconds();
      // Transient hangs must not poison the identical-binary cache: a
      // retry of the same binary may well succeed.
      if (!out.transient) cache_[h] = out;
      return out;
    }
  }

  // Interpreter runs are pure in the binary; consume prefetched memos
  // where available (missing/short memos fall back to interpreting the
  // program, materialized on its first run). Run idx > 0 is workload
  // idx-1, whose images overwrite every global.
  const MeasureMemo* memo = nullptr;
  if (const auto mit = measure_memo_.find(h); mit != measure_memo_.end())
    memo = &mit->second;
  std::optional<ir::Program> prog;
  const auto run_at = [&](std::size_t idx) -> ir::ExecResult {
    if (memo && idx < memo->runs.size()) return memo->runs[idx];
    if (!prog) prog = materialize(a);
    if (idx > 0) apply_workload(*prog, workloads_[idx - 1]);
    return ir::interpret(*prog, machine_, limits_);
  };

  const auto run = run_at(0);
  ++num_measurements_;
  std::int64_t ret = run.ret;
  if (injector_ && run.ok && injector_->miscompiles(h, 0)) ret ^= 1;
  if (!run.ok) {
    if (run.hung) {
      out.why_invalid = "hang: " + run.trap;
      out.failure = FailureKind::Hang;
    } else {
      out.why_invalid = "runtime trap: " + run.trap;
      out.failure = FailureKind::Crash;
    }
  } else if (ret != reference_output_) {
    // Differential testing: the optimised program must produce the same
    // output as the -O0 reference on the same workload.
    out.why_invalid = "differential test failed (output mismatch)";
    out.failure = FailureKind::Miscompile;
  } else {
    out.valid = true;
    out.cycles = run.cycles;
    // Additional workloads: the build must match every reference; the
    // reported runtime is the mean over inputs.
    for (std::size_t wi = 0; wi < workloads_.size(); ++wi) {
      const auto& w = workloads_[wi];
      const auto r = run_at(wi + 1);
      std::int64_t wret = r.ret;
      if (injector_ && r.ok && injector_->miscompiles(h, wi + 1)) wret ^= 1;
      if (!r.ok) {
        out.valid = false;
        if (r.hung) {
          out.why_invalid = "hang on extra workload: " + r.trap;
          out.failure = FailureKind::Hang;
        } else {
          out.why_invalid = "runtime trap on extra workload: " + r.trap;
          out.failure = FailureKind::Crash;
        }
        break;
      }
      if (wret != w.reference) {
        out.valid = false;
        out.why_invalid =
            "differential test failed on extra workload";
        out.failure = FailureKind::Miscompile;
        break;
      }
      out.cycles += r.cycles;
    }
    if (out.valid) {
      out.cycles /= static_cast<double>(num_workloads());
      out.speedup = o3_cycles_ / out.cycles;
      // Deterministic payload (simulated cycles, not wall time), so this
      // histogram is identical across runs/threads.
      OBS_HISTO_RECORD("citroen_eval_cycles", out.cycles);
    } else {
      out.cycles = 0.0;
    }
  }
  measure_seconds_ += sw.seconds();
  cache_[h] = out;
  return out;
}

void ProgramEvaluator::prefetch(std::span<const SequenceAssignment> batch,
                                bool with_measure) {
  if (batch.empty() || !bc().enabled()) return;
  ThreadPool& pool = pool_ ? *pool_ : ThreadPool::global();

  // Stage 1: compile every unique (module, sequence) job concurrently
  // into the prefix cache. Pass pipelines are pure in (module, ids), so
  // concurrent population cannot change any later result. The fault
  // injector is deliberately NOT consulted here: its attempt counters
  // are order-sensitive and belong to the serial replay.
  struct BuildJob {
    const ir::Module* module;
    std::vector<passes::PassId> ids;
    std::uint64_t salt = 0;
  };
  std::vector<BuildJob> jobs;
  std::unordered_set<std::uint64_t> seen_jobs;
  for (const auto& seqs : batch) {
    for (const auto& [name, seq] : seqs) {
      const ir::Module* m = base_.find_module(name);
      if (!m) continue;
      std::vector<passes::PassId> ids;
      try {
        ids = passes::intern_sequence(seq);
      } catch (const std::exception&) {
        continue;  // serial path reports the identical error itself
      }
      if (!seen_jobs.insert(build_job_key(name, ids)).second) continue;
      jobs.push_back(BuildJob{m, std::move(ids), module_salt(name)});
    }
  }
  std::mutex acct_mu;
  double build_secs = 0.0;
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    const Stopwatch sw;
    OBS_SPAN("prefetch_build", "eval");
    bc().build(*jobs[i].module, jobs[i].ids, jobs[i].salt);
    const double s = sw.seconds();
    const std::lock_guard<std::mutex> lock(acct_mu);
    build_secs += s;
  });
  compile_seconds_ += build_secs;
  if (!with_measure) return;

  // Stage 2: assemble each candidate's binary from the (now warm) cache
  // and interpret every not-yet-measured distinct binary concurrently.
  // Runs use raw interpreter results only; injected miscompiles/hangs
  // are applied by the serial replay, which falls back to interpreting
  // directly if its early-stop point differs from ours.
  std::vector<Assembly> mjobs;
  std::unordered_set<std::uint64_t> seen_binaries;
  for (const auto& seqs : batch) {
    Assembly a = assemble(seqs, nullptr);
    if (!a.error.empty()) continue;
    if (cache_.count(a.hash) || measure_memo_.count(a.hash)) continue;
    if (!seen_binaries.insert(a.hash).second) continue;
    mjobs.push_back(std::move(a));
  }

  std::vector<MeasureMemo> memos(mjobs.size());
  std::vector<double> secs(mjobs.size(), 0.0);
  pool.parallel_for(mjobs.size(), [&](std::size_t i) {
    const Stopwatch sw;
    OBS_SPAN("prefetch_measure", "eval");
    memos[i].runs = measure_pure(materialize(mjobs[i]));
    secs[i] = sw.seconds();
  });
  for (std::size_t i = 0; i < mjobs.size(); ++i) {
    measure_memo_.emplace(mjobs[i].hash, std::move(memos[i]));
    measure_seconds_ += secs[i];
  }
}

std::vector<ir::ExecResult> ProgramEvaluator::measure_pure(
    ir::Program built) const {
  std::vector<ir::ExecResult> runs;
  const auto run = ir::interpret(built, machine_, limits_);
  runs.push_back(run);
  if (run.ok && run.ret == reference_output_) {
    for (const auto& w : workloads_) {
      apply_workload(built, w);  // overwrites every global's image
      const auto r = ir::interpret(built, machine_, limits_);
      runs.push_back(r);
      if (!r.ok || r.ret != w.reference) break;
    }
  }
  return runs;
}

PureEvalResult ProgramEvaluator::pure_evaluate(const SequenceAssignment& seqs,
                                               bool with_measure) const {
  PureEvalResult out;
  Assembly a;
  {
    OBS_SPAN("build", "eval");
    OBS_COUNTER_INC("citroen_builds_total");
    a = assemble(seqs, nullptr);
    if (!a.error.empty()) return out;
  }
  out.built = true;
  out.binary_hash = a.hash;
  if (with_measure) {
    OBS_SPAN("measure", "eval");
    OBS_COUNTER_INC("citroen_measurements_total");
    out.runs = measure_pure(materialize(a));
  }
  return out;
}

void ProgramEvaluator::install_measure_memo(std::uint64_t binary_hash,
                                            std::vector<ir::ExecResult> runs) {
  if (binary_hash == 0 || runs.empty()) return;
  if (cache_.count(binary_hash) || measure_memo_.count(binary_hash)) return;
  measure_memo_.emplace(binary_hash, MeasureMemo{std::move(runs)});
}

std::vector<EvalOutcome> Evaluator::evaluate_batch(
    std::span<const SequenceAssignment> batch) {
  prefetch(batch, /*with_measure=*/true);
  std::vector<EvalOutcome> out;
  out.reserve(batch.size());
  for (const auto& seqs : batch) out.push_back(evaluate(seqs));
  return out;
}

std::vector<CompileOutcome> Evaluator::compile_batch(
    std::span<const SequenceAssignment> batch, bool keep_program) {
  prefetch(batch, /*with_measure=*/false);
  std::vector<CompileOutcome> out;
  out.reserve(batch.size());
  for (const auto& seqs : batch) out.push_back(compile(seqs, keep_program));
  return out;
}

// ---- serialization (persist/codec.hpp) ------------------------------------

void put(persist::Writer& w, const SequenceAssignment& a) {
  w.u64(a.size());
  for (const auto& [module, seq] : a) {
    w.str(module);
    persist::put(w, seq);
  }
}

void get(persist::Reader& r, SequenceAssignment& a) {
  a.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string module = r.str();
    persist::get(r, a[module]);
  }
}

void put(persist::Writer& w, const EvalOutcome& o) {
  w.b(o.valid);
  w.str(o.why_invalid);
  w.u8(static_cast<std::uint8_t>(o.failure));
  w.b(o.transient);
  w.f64(o.cycles);
  w.f64(o.speedup);
  w.b(o.cache_hit);
  w.i32(o.attempts);
  w.u64(o.binary_hash);
  persist::put(w, o.stats.counters());
  w.u64(o.code_size);
}

void get(persist::Reader& r, EvalOutcome& o) {
  o.valid = r.b();
  o.why_invalid = r.str();
  o.failure = static_cast<FailureKind>(r.u8());
  o.transient = r.b();
  o.cycles = r.f64();
  o.speedup = r.f64();
  o.cache_hit = r.b();
  o.attempts = r.i32();
  o.binary_hash = r.u64();
  std::map<std::string, std::int64_t> counters;
  persist::get(r, counters);
  o.stats.clear();
  // set(), not add(): merge() can legitimately leave zero-valued counters
  // and the restored registry must reproduce the original byte-for-byte.
  for (const auto& [k, v] : counters) o.stats.set(k, v);
  o.code_size = static_cast<std::size_t>(r.u64());
}

void ProgramEvaluator::save_runtime_state(persist::Writer& w) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(cache_.size());
  for (const auto& [h, _] : cache_) keys.push_back(h);
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const std::uint64_t h : keys) {
    w.u64(h);
    put(w, cache_.at(h));
  }
  w.f64(compile_seconds_);
  w.f64(measure_seconds_);
  w.i32(num_compiles_);
  w.i32(num_measurements_);
  w.i32(num_cache_hits_);
}

void ProgramEvaluator::load_runtime_state(persist::Reader& r) {
  cache_.clear();
  measure_memo_.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t h = r.u64();
    get(r, cache_[h]);
  }
  compile_seconds_ = r.f64();
  measure_seconds_ = r.f64();
  num_compiles_ = r.i32();
  num_measurements_ = r.i32();
  num_cache_hits_ = r.i32();
}

}  // namespace citroen::sim
