// perf_ledger — the repository's performance ledger.
//
//   perf_ledger --workload NAME --seed N --seconds S --trace 0|1
//               --citroend PATH --workdir DIR
//
// Runs one workload (citroen_suite, modelfree_parallel or
// daemon_sandboxed; NOTES.md gives the reason for each), checks every
// output, and prints one JSON object as the last line of stdout:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Human-readable detail goes to stderr.
//
// The ledger reaches the system only through public entry points: a
// timing decorator over sim::Evaluator, the tuners' step()/finish(),
// persist::JournaledEvaluator and RunSession, and a real citroend over
// its Unix socket. Spans the system already emits split the calls that
// cover two layers (prefetch builds and interprets; a tuner step fits
// the GP and scores candidates).
//
// A traced run first repeats the untraced pass, then runs the same pass
// traced: the two curve digests must match (tracing is a side channel),
// and the difference of their wall times is the tracing overhead.

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/tuners.hpp"
#include "bench_suite/suite.hpp"
#include "citroen/tuner.hpp"
#include "ledger_math.hpp"
#include "obs/trace.hpp"
#include "persist/codec.hpp"
#include "persist/journaled_evaluator.hpp"
#include "persist/run_session.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "sim/evaluator.hpp"
#include "sim/machine.hpp"
#include "sim/prefix_cache.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

using namespace citroen;
using ledger::Interval;

namespace {

// ---- workload constants -------------------------------------------------
// Nominal wall seconds of one pass of each workload on the reference box
// (4 cores, RelWithDebInfo). --seconds is divided by these to size a run,
// so the work a run does depends on --seconds only, never on how fast
// this build happens to be.
constexpr double kCitroenPassSeconds = 20.0;
constexpr double kModelfreePassSeconds = 30.0;
constexpr double kDaemonRoundSeconds = 3.0;  ///< one job per method

constexpr int kSetups = 5;          ///< set-ups per run; setup_s is the median
constexpr int kCheckInputs = 3;     ///< data seeds each winner is re-run on
constexpr int kModelfreeSeeds = 3;
constexpr double kProbeHz = 20.0;   ///< open-loop status probe rate
const char* const kModelfree[] = {"des", "opentuner", "ga", "random"};  ///< slowest first
const char* const kDaemonMethods[] = {"des", "ga", "random", "citroen"};

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double cpu_self_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_self_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1000000007ull + 1;
}

std::string machine_of(const std::string& program) {
  for (const auto& info : bench_suite::benchmark_list())
    if (info.name == program) return info.suite == "spec" ? "x86" : "arm";
  throw std::runtime_error("unknown program " + program);
}

// ---- timing decorator ---------------------------------------------------

/// What one timed evaluator saw. Owned by one job, written by the one
/// thread that drives that job.
struct CallLog {
  double evaluate_s = 0.0;
  double compile_s = 0.0;
  double prefetch_s = 0.0;
  std::uint64_t evaluates = 0;
  std::uint64_t invalid = 0;
  std::vector<Interval> calls;  ///< every timed call, in call order
};

/// Times evaluate/compile/prefetch of the evaluator below it and forwards
/// everything else unchanged.
class TimedEvaluator final : public sim::Evaluator {
 public:
  TimedEvaluator(sim::Evaluator& inner, CallLog& log)
      : inner_(inner), log_(log) {}

  const ir::Program& base_program() const override {
    return inner_.base_program();
  }
  const std::string& program_name() const override {
    return inner_.program_name();
  }
  double o3_cycles() const override { return inner_.o3_cycles(); }
  double o0_cycles() const override { return inner_.o0_cycles(); }
  std::int64_t reference_output() const override {
    return inner_.reference_output();
  }
  std::vector<std::pair<std::string, double>> hot_modules() const override {
    return inner_.hot_modules();
  }
  sim::CompileOutcome compile(const sim::SequenceAssignment& seqs,
                              bool keep_program = false) const override {
    const double t0 = now_s();
    auto out = inner_.compile(seqs, keep_program);
    record(t0, &log_.compile_s);
    return out;
  }
  sim::EvalOutcome evaluate(const sim::SequenceAssignment& seqs) override {
    const double t0 = now_s();
    auto out = inner_.evaluate(seqs);
    record(t0, &log_.evaluate_s);
    ++log_.evaluates;
    if (!out.valid) ++log_.invalid;
    return out;
  }
  void prefetch(std::span<const sim::SequenceAssignment> batch,
                bool with_measure = true) override {
    const double t0 = now_s();
    inner_.prefetch(batch, with_measure);
    record(t0, &log_.prefetch_s);
  }
  bool is_quarantined(const sim::SequenceAssignment& seqs) const override {
    return inner_.is_quarantined(seqs);
  }
  double total_compile_seconds() const override {
    return inner_.total_compile_seconds();
  }
  double total_measure_seconds() const override {
    return inner_.total_measure_seconds();
  }
  int num_compiles() const override { return inner_.num_compiles(); }
  int num_measurements() const override { return inner_.num_measurements(); }
  int num_cache_hits() const override { return inner_.num_cache_hits(); }

 private:
  void record(double t0, double* bucket) const {
    const double t1 = now_s();
    *bucket += t1 - t0;
    log_.calls.push_back({t0, t1});
  }

  sim::Evaluator& inner_;
  CallLog& log_;
};

// ---- per-job record -----------------------------------------------------

struct Job {
  std::string program;
  std::string machine;
  std::string method;
  std::uint64_t tuner_seed = 0;
  std::uint64_t data_seed = 0;

  bool ok = false;
  std::string error;
  Vec curve;
  sim::SequenceAssignment best;
  double wall_s = 0.0;

  // Traced passes only.
  CallLog outer;   ///< what the tuner called
  CallLog inner;   ///< below the journal (modelfree_parallel only)
  std::vector<Interval> tuner_calls;  ///< start/step/finish on the tuner
  std::vector<double> step_s;         ///< step() durations
  double model_s = 0.0;               ///< TuneResult::model_seconds
  double checkpoint_s = 0.0;
  std::uint64_t binary_hits = 0;      ///< identical-binary cache hits
};

/// One pass's measurements. End-to-end fields are filled by every pass;
/// per-layer fields by traced passes.
struct Pass {
  std::vector<Job> jobs;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  std::map<std::string, double> layer;  ///< per-layer metrics
  std::vector<double> status_ms;        ///< daemon status probes
  std::vector<double> accept_ms;        ///< daemon submit -> Accept
  double probe_late_max_ms = 0.0;
};

std::uint64_t pass_digest(const Pass& p) {
  std::vector<std::vector<double>> curves;
  for (const auto& j : p.jobs) curves.push_back(j.curve);
  return ledger::curve_digest(curves);
}

template <class F>
double timed(std::vector<Interval>* log, F&& f) {
  const double t0 = now_s();
  f();
  const double t1 = now_s();
  if (log) log->push_back({t0, t1});
  return t1 - t0;
}

// ---- span aggregation ---------------------------------------------------

struct Span {
  std::string name;
  std::uint64_t thread = 0;  ///< (pid << 32) | tid
  Interval at;
};

/// Pair 'B'/'E' events per thread into closed spans.
template <class Ev, class NameOf, class TsOf>
std::vector<Span> close_spans(const std::vector<Ev>& events, NameOf name_of,
                              TsOf ts_of) {
  std::vector<Span> out;
  std::map<std::uint64_t, std::vector<std::pair<std::string, double>>> open;
  for (const auto& ev : events) {
    if (ev.phase != 'B' && ev.phase != 'E') continue;
    const std::uint64_t key = (std::uint64_t{ev.pid} << 32) | ev.tid;
    auto& stack = open[key];
    if (ev.phase == 'B') {
      stack.emplace_back(name_of(ev), ts_of(ev));
    } else if (!stack.empty()) {
      out.push_back({stack.back().first, key, {stack.back().second, ts_of(ev)}});
      stack.pop_back();
    }
  }
  return out;
}

/// Which layer a span bills to. Nested spans of one layer ("build" inside
/// "prefetch_build") bill once, to the outermost. checkpoint_save is read
/// for the daemon only; in-process the ledger times the checkpoint calls
/// itself.
const char* layer_of(const std::string& name) {
  static const std::map<std::string, const char*> kLayer = {
      {"build", "passes.build_s"},         {"prefetch_build", "passes.build_s"},
      {"measure", "ir.interpret_s"},       {"prefetch_measure", "ir.interpret_s"},
      {"gp_fit", "gp.fit_s"},              {"gp_fit_hypers", "gp.fit_hypers_s"},
      {"acq_score", "af.score_s"},         {"es_ask", "heuristics.ask_s"},
      {"checkpoint_save", "persist.checkpoint_span_s"},
      {"worker_spawn", "sandbox.spawn_s"},
  };
  const auto it = kLayer.find(name);
  return it == kLayer.end() ? nullptr : it->second;
}

std::map<std::string, double> bill_spans(std::vector<Span> spans) {
  // Spans of one thread nest, so walking them by start time with a stack
  // of the counted spans still open finds each span's counted ancestors.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    return a.at.begin != b.at.begin ? a.at.begin < b.at.begin : a.at.end > b.at.end;
  });
  std::map<std::string, double> out;
  std::vector<std::pair<const char*, Interval>> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0 && spans[i - 1].thread != s.thread) open.clear();
    while (!open.empty() && open.back().second.end <= s.at.begin) open.pop_back();
    const char* layer = layer_of(s.name);
    if (!layer) continue;
    bool shadowed = false;
    for (const auto& [l, iv] : open) shadowed |= l == layer;
    if (shadowed) continue;
    open.emplace_back(layer, s.at);
    out[layer] += s.at.end - s.at.begin;
  }
  return out;
}

// ---- output check -------------------------------------------------------

/// Rebuild every job's best assignment on each of kCheckInputs data
/// images of its program and run it; its output must equal the
/// unoptimised program's output under ir::interpret, which runs no
/// passes. A job that fails on any input is marked failed.
void check_outputs(Pass& pass) {
  std::map<std::string, std::vector<std::size_t>> by_program;
  for (std::size_t i = 0; i < pass.jobs.size(); ++i)
    by_program[pass.jobs[i].program].push_back(i);
  std::vector<std::string> programs;
  for (const auto& [p, _] : by_program) programs.push_back(p);
  ThreadPool::global().parallel_for(programs.size(), [&](std::size_t k) {
    const auto& idx = by_program[programs[k]];
    const Job& first = pass.jobs[idx.front()];
    const auto machine = sim::machine_by_name(first.machine);
    for (int in = 0; in < kCheckInputs; ++in) {
      const std::uint64_t data_seed = first.data_seed + static_cast<std::uint64_t>(in);
      ir::Program unopt = bench_suite::make_program(first.program, data_seed);
      const ir::ExecResult ref = ir::interpret(unopt, machine);
      sim::ProgramEvaluator ev(std::move(unopt), machine);
      for (const std::size_t i : idx) {
        Job& j = pass.jobs[i];
        if (!j.ok) continue;
        const auto built = ev.compile(j.best, /*keep_program=*/true);
        const bool good = ref.ok && built.valid && built.program &&
                          [&] {
                            const auto r = ir::interpret(*built.program, machine);
                            return r.ok && r.ret == ref.ret;
                          }();
        if (!good) {
          j.ok = false;
          j.error = "wrong output on data seed " + std::to_string(data_seed);
        }
      }
    }
  });
}

/// Failed jobs, plus pass-level failures already recorded (a daemon that
/// did not exit cleanly), each counted once.
void count_failures(Pass& pass) {
  pass.failed = pass.failures.size();
  for (const auto& j : pass.jobs)
    if (!j.ok) {
      pass.failures.push_back(j.program + "/" + j.method + "/s" +
                              std::to_string(j.tuner_seed) + ": " + j.error);
      ++pass.failed;
    }
}

// ---- in-process workloads -----------------------------------------------

void fill_common_layers(Pass& pass, const std::vector<obs::TraceEvent>& events,
                        const std::vector<sim::PrefixCacheStats>& caches) {
  const auto spans = close_spans(
      events, [](const obs::TraceEvent& e) { return std::string(e.name ? e.name : ""); },
      [](const obs::TraceEvent& e) { return 1e-9 * static_cast<double>(e.ts_ns); });
  for (const auto& [k, v] : bill_spans(spans)) pass.layer[k] += v;

  sim::PrefixCacheStats sum{};
  for (const auto& c : caches) {
    sum.builds += c.builds;
    sum.full_hits += c.full_hits;
    sum.prefix_hits += c.prefix_hits;
    sum.passes_run += c.passes_run;
    sum.passes_saved += c.passes_saved;
    sum.evictions += c.evictions;
  }
  pass.layer["sim.prefix.passes_run"] = static_cast<double>(sum.passes_run);
  pass.layer["sim.prefix.passes_saved"] = static_cast<double>(sum.passes_saved);
  pass.layer["sim.prefix.hit_frac"] =
      sum.builds ? static_cast<double>(sum.full_hits + sum.prefix_hits) /
                       static_cast<double>(sum.builds)
                 : 0.0;
  pass.layer["sim.prefix.evictions"] = static_cast<double>(sum.evictions);

  double evaluate = 0, compile = 0, prefetch = 0, journal = 0, invalid = 0;
  double checkpoint = 0, model = 0, citroen_self = 0, baseline_self = 0;
  double tuner_time = 0, job_time = 0, evaluates = 0, binary_hits = 0;
  std::vector<double> steps;
  for (const auto& j : pass.jobs) {
    evaluates += static_cast<double>(j.outer.evaluates);
    binary_hits += static_cast<double>(j.binary_hits);
    // The innermost timed evaluator is the one right above the
    // ProgramEvaluator; the journal cost is what the outer one adds.
    const CallLog& lowest = j.inner.evaluates ? j.inner : j.outer;
    evaluate += lowest.evaluate_s;
    if (j.inner.evaluates) journal += j.outer.evaluate_s - j.inner.evaluate_s;
    compile += j.outer.compile_s;
    prefetch += j.outer.prefetch_s;
    invalid += static_cast<double>(j.outer.invalid);
    checkpoint += j.checkpoint_s;
    model += j.model_s;
    const double self = ledger::total_self_time(j.tuner_calls, j.outer.calls);
    (j.method == "citroen" ? citroen_self : baseline_self) += self;
    for (const auto& c : j.tuner_calls) tuner_time += c.end - c.begin;
    tuner_time += j.checkpoint_s;
    job_time += j.wall_s;
    if (j.method == "citroen") steps.insert(steps.end(), j.step_s.begin(), j.step_s.end());
  }
  const double n_eval = evaluates;
  pass.layer["sim.evaluate_s"] = evaluate;
  pass.layer["sim.compile_s"] = compile;
  pass.layer["sim.prefetch_s"] = prefetch;
  pass.layer["sim.binary_hit_frac"] = n_eval ? binary_hits / n_eval : 0.0;
  pass.layer["sim.invalid_frac"] = n_eval ? invalid / n_eval : 0.0;
  pass.layer["persist.journal_us_per_eval"] = n_eval ? 1e6 * journal / n_eval : 0.0;
  pass.layer["persist.checkpoint_s"] = checkpoint;
  pass.layer["citroen.model_s"] = model;
  pass.layer["citroen.self_s"] = citroen_self;
  pass.layer["baselines.self_s"] = baseline_self;
  pass.layer["citroen.step_p50_ms"] = 1e3 * ledger::percentile(steps, 0.5);
  pass.layer["citroen.step_p95_ms"] = 1e3 * ledger::percentile(steps, 0.95);
  // For the sum check: the tuner threads' wall time, and the part of it
  // spent inside tuner and checkpoint calls.
  pass.layer["ledger.tuner_thread_s"] = job_time;
  pass.layer["ledger.layers_sum_s"] = tuner_time;
  const auto tail = ledger::tail_percentile(steps);
  std::fprintf(stderr,
               "  citroen steps: n=%zu p50=%.2f ms, tail p%.1f=%.2f ms (%zu samples beyond)\n",
               steps.size(), 1e3 * ledger::median(steps), 100 * tail.q,
               1e3 * tail.value, ledger::samples_beyond(tail.count, tail.q));
}

/// CITROEN alone, fig5_12's settings at budget 40, over the whole suite,
/// one program after another; the global pool serves candidate prefetch.
Pass citroen_suite(std::uint64_t seed, int passes, bool trace) {
  Pass out;
  std::vector<std::string> programs;
  for (const auto& info : bench_suite::benchmark_list()) programs.push_back(info.name);
  const std::uint64_t data_seed = mix_seed(seed, 1);
  std::vector<double> setups;
  std::vector<double> walls, cpus;
  std::vector<sim::PrefixCacheStats> caches;
  std::vector<obs::TraceEvent> events;
  for (int p = 0; p < passes; ++p) {
    // The evaluators this pass tunes against, built before the window.
    std::vector<std::unique_ptr<sim::ProgramEvaluator>> evals;
    const int n_setups = p == 0 ? std::max(1, kSetups - passes + 1) : 1;
    for (int k = 0; k < n_setups; ++k) {
      evals.clear();  // release the previous set before timing the next
      const double t0 = now_s();
      for (const auto& name : programs)
        evals.push_back(std::make_unique<sim::ProgramEvaluator>(
            bench_suite::make_program(name, data_seed), sim::arm_a57_model()));
      setups.push_back(now_s() - t0);
    }
    if (trace) {
      obs::drain_trace();
      obs::trace_force_enable(true);
    }
    const double c0 = cpu_self_s(), w0 = now_s();
    for (std::size_t i = 0; i < programs.size(); ++i) {
      Job j;
      j.program = programs[i];
      j.machine = "arm";
      j.method = "citroen";
      j.tuner_seed = mix_seed(seed, 100 + 1000 * static_cast<std::uint64_t>(p) + i);
      j.data_seed = data_seed;
      const double t0 = now_s();
      try {
        std::optional<TimedEvaluator> timed_eval;
        sim::Evaluator* eval = evals[i].get();
        if (trace) eval = &timed_eval.emplace(*eval, j.outer);
        core::CitroenConfig cfg;
        cfg.budget = 40;
        cfg.initial_random = cfg.budget / 5;
        cfg.seed = j.tuner_seed;
        cfg.gp.fit_steps = 6;
        core::CitroenTuner tuner(*eval, cfg);
        auto* log = trace ? &j.tuner_calls : nullptr;
        timed(log, [&] { tuner.start(); });
        bool more = true;
        while (more) {
          const double d = timed(log, [&] { more = tuner.step(); });
          if (trace) j.step_s.push_back(d);
        }
        core::TuneResult r;
        timed(log, [&] { r = tuner.finish(); });
        j.curve = r.speedup_curve;
        j.best = r.best_assignment;
        j.model_s = r.model_seconds;
        j.ok = !j.curve.empty();
        if (!j.ok) j.error = "empty curve";
      } catch (const std::exception& e) {
        j.error = e.what();
      }
      j.wall_s = now_s() - t0;
      j.binary_hits = static_cast<std::uint64_t>(evals[i]->num_cache_hits());
      out.jobs.push_back(std::move(j));
      // As in fig5_12, a program's evaluator (and its prefix cache) lives
      // for that program's run only.
      if (trace) caches.push_back(evals[i]->prefix_cache_stats());
      evals[i].reset();
    }
    walls.push_back(now_s() - w0);
    cpus.push_back(cpu_self_s() - c0);
    if (trace) {
      obs::trace_force_enable(false);
      auto evs = obs::drain_trace();
      events.insert(events.end(), evs.begin(), evs.end());
    }
  }
  out.setup_s = ledger::median(setups);
  out.wall_s = ledger::median(walls);
  out.cpu_s = ledger::median(cpus);
  out.peak_rss_mb = peak_rss_self_mb();
  if (trace) fill_common_layers(out, events, caches);
  check_outputs(out);
  count_failures(out);
  return out;
}

/// fig5_6 without its model-based tuners: random, GA, DES and OpenTuner
/// x 3 seeds at budget 60 on every program, fig5_6's machine per suite, as
/// coarse jobs on the global pool with one prefix cache per program. As in
/// fig5_6, each run builds its own evaluator. Every run is journaled and
/// checkpointed in a fresh session directory.
Pass modelfree_parallel(std::uint64_t seed, int passes, bool trace,
                        const std::string& workdir) {
  Pass out;
  std::vector<std::string> programs;
  for (const auto& info : bench_suite::benchmark_list()) programs.push_back(info.name);
  const std::uint64_t data_seed = mix_seed(seed, 2);
  const std::size_t per_program = std::size(kModelfree) * kModelfreeSeeds;
  std::vector<double> setups, walls, cpus;
  std::vector<sim::PrefixCacheStats> caches(programs.size() * static_cast<std::size_t>(passes));
  std::vector<obs::TraceEvent> events;
  static int session_counter = 0;
  for (int p = 0; p < passes; ++p) {
    // Program-major, slowest methods first within a program, so few caches
    // are live at once and the pool's tail is short. Every run gets its own
    // tuner seed: fig5_6's seed-per-repeat convention made all of a
    // method's runs fast or slow together and swung wall time by 2x.
    std::vector<Job> jobs;
    for (const auto& prog : programs)
      for (const char* m : kModelfree)
        for (int k = 0; k < kModelfreeSeeds; ++k) {
          Job j;
          j.program = prog;
          j.machine = machine_of(prog);
          j.method = m;
          j.tuner_seed = mix_seed(seed, 200 + 1000 * static_cast<std::uint64_t>(p) + jobs.size());
          j.data_seed = data_seed;
          jobs.push_back(std::move(j));
        }
    // Set-up builds the programs and their shared caches; the runs' own
    // evaluators are built inside the runs.
    std::vector<ir::Program> built;
    std::vector<std::shared_ptr<sim::PrefixCache>> cache;
    const int n_setups = p == 0 ? std::max(1, kSetups - passes + 1) : 1;
    for (int i = 0; i < n_setups; ++i) {
      built.clear();
      cache.clear();
      const double t0 = now_s();
      for (const auto& prog : programs) {
        built.push_back(bench_suite::make_program(prog, data_seed));
        cache.push_back(std::make_shared<sim::PrefixCache>());
      }
      setups.push_back(now_s() - t0);
    }
    std::vector<std::atomic<std::size_t>> unfinished(programs.size());
    for (auto& u : unfinished) u = per_program;
    const std::string session_root = workdir + "/sessions" + std::to_string(session_counter++);
    if (trace) {
      obs::drain_trace();
      obs::trace_force_enable(true);
    }
    // The pool's threads take runs in job order, so programs finish one
    // after another and only a few caches are live at once.
    std::atomic<std::size_t> next{0};
    const auto run = [&](std::size_t i) {
      Job& j = jobs[i];
      const std::size_t prog = i / per_program;
      const double t0 = now_s();
      try {
        sim::ProgramEvaluator base(built[prog], sim::machine_by_name(j.machine));
        base.set_shared_prefix_cache(cache[prog]);
        persist::SessionConfig scfg;
        scfg.dir = session_root + "/" + j.program;
        persist::RunSession session(scfg, j.method + "_s" + std::to_string(i % kModelfreeSeeds));
        std::optional<TimedEvaluator> timed_inner, timed_outer;
        sim::Evaluator* below = &base;
        if (trace) below = &timed_inner.emplace(base, j.inner);
        persist::JournaledEvaluator jeval(*below, session);
        sim::Evaluator* top = &jeval;
        if (trace) top = &timed_outer.emplace(jeval, j.outer);
        baselines::PhaseTunerConfig cfg;
        cfg.budget = 60;
        cfg.seed = j.tuner_seed;
        auto tuner = baselines::make_phase_tuner(j.method, *top, cfg);
        auto* log = trace ? &j.tuner_calls : nullptr;
        const auto checkpoint = [&](bool complete, const Vec* curve) {
          const double c = now_s();
          persist::Writer w;
          if (complete) {
            persist::put(w, *curve);
          } else {
            tuner->save_state(w);
            base.save_runtime_state(w);
          }
          session.save_checkpoint(w.take(), complete);
          j.checkpoint_s += now_s() - c;
        };
        bool more = true;
        while (more) {
          timed(log, [&] { more = tuner->step(); });
          if (more && session.checkpoint_due()) checkpoint(false, nullptr);
        }
        baselines::TuneTrace t;
        timed(log, [&] { t = tuner->finish(); });
        checkpoint(true, &t.speedup_curve);
        j.curve = t.speedup_curve;
        j.best = t.best_assignment;
        j.binary_hits = static_cast<std::uint64_t>(base.num_cache_hits());
        j.ok = !j.curve.empty();
        if (!j.ok) j.error = "empty curve";
      } catch (const std::exception& e) {
        j.error = e.what();
      }
      j.wall_s = now_s() - t0;
      // The last run of a program releases its cache.
      if (--unfinished[prog] == 0) {
        if (trace) caches[static_cast<std::size_t>(p) * programs.size() + prog] = cache[prog]->stats();
        cache[prog].reset();
      }
    };
    const double c0 = cpu_self_s(), w0 = now_s();
    ThreadPool::global().parallel_for(
        static_cast<std::size_t>(ThreadPool::global().size()), [&](std::size_t) {
          for (std::size_t i; (i = next++) < jobs.size();) run(i);
        });
    walls.push_back(now_s() - w0);
    cpus.push_back(cpu_self_s() - c0);
    if (trace) {
      obs::trace_force_enable(false);
      auto evs = obs::drain_trace();
      events.insert(events.end(), evs.begin(), evs.end());
    }
    for (auto& j : jobs) out.jobs.push_back(std::move(j));
  }
  out.setup_s = ledger::median(setups);
  out.wall_s = ledger::median(walls);
  out.cpu_s = ledger::median(cpus);
  out.peak_rss_mb = peak_rss_self_mb();
  if (trace) fill_common_layers(out, events, caches);
  check_outputs(out);
  count_failures(out);
  return out;
}

// ---- the daemon ---------------------------------------------------------

struct ProcStat {
  double cpu_s = 0.0;  ///< utime + stime + reaped children's
  double hwm_mb = 0.0;
};

ProcStat read_proc(pid_t pid) {
  ProcStat st;
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(f, line);
  const auto rp = line.rfind(')');
  if (rp != std::string::npos) {
    std::istringstream in(line.substr(rp + 2));
    std::vector<std::string> fields;
    for (std::string tok; in >> tok;) fields.push_back(tok);
    // Fields after the command: state is index 0, utime is field 14 of the
    // full line, i.e. index 11 here; stime, cutime, cstime follow.
    if (fields.size() > 14) {
      const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
      double ticks = 0;
      for (int k = 11; k <= 14; ++k) ticks += std::stod(fields[static_cast<std::size_t>(k)]);
      st.cpu_s = ticks / tick;
    }
  }
  std::ifstream s("/proc/" + std::to_string(pid) + "/status");
  while (std::getline(s, line))
    if (line.rfind("VmHWM:", 0) == 0) st.hwm_mb = std::stod(line.substr(6)) / 1024.0;
  return st;
}

/// Process group of the live citroend, for the fatal-signal handler.
std::atomic<pid_t> g_daemon_group{0};

/// SIGTERM/SIGINT: take the daemon and its workers down too, then die of
/// the same signal.
extern "C" void on_fatal_signal(int sig) {
  const pid_t group = g_daemon_group.load();
  if (group > 0) ::kill(-group, SIGKILL);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

/// A citroend child in its own process group. The destructor makes sure
/// the daemon and every worker it forked have ended.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& dir, bool trace) : dir_(dir) {
    std::filesystem::create_directories(dir + "/state");
    socket_ = dir + "/d.sock";
    std::vector<std::string> args = {bin, "--socket", socket_, "--state-dir",
                                     dir + "/state", "--drain-deadline", "5"};
    std::vector<std::string> env = {"CITROEN_SANDBOX=1"};
    if (trace) {
      env.push_back("CITROEN_TRACE=" + dir + "/trace.json");
      env.push_back("CITROEN_METRICS=1");
    }
    std::vector<char*> argv, envp;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (auto& e : env) envp.push_back(e.data());
    for (char** e = environ; *e; ++e)
      if (std::strncmp(*e, "CITROEN_", 8) != 0) envp.push_back(*e);
    envp.push_back(nullptr);
    t0_ = now_s();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::setpgid(0, 0);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the ledger
      // The ledger's stdout carries its result; the daemon and its
      // workers must neither write to it nor hold it open.
      const int null = ::open("/dev/null", O_RDWR);
      if (null >= 0)
        for (const int fd : {STDIN_FILENO, STDOUT_FILENO, STDERR_FILENO}) ::dup2(null, fd);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    if (pid_ < 0) throw std::runtime_error("fork failed");
    ::setpgid(pid_, pid_);
    g_daemon_group = pid_;
  }
  ~Daemon() { stop(/*graceful=*/false); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  pid_t pid() const { return pid_; }
  double spawned_at() const { return t0_; }
  std::string trace_path() const { return dir_ + "/trace.json"; }

  /// Wait until the listener accepts, polling every millisecond.
  void wait_listening(double timeout_s) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    const double until = now_s() + timeout_s;
    while (now_s() < until) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool up = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
      ::close(fd);
      if (up) return;
      int st = 0;
      if (::waitpid(pid_, &st, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("citroend exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("citroend did not listen within the timeout");
  }

  /// SIGTERM (drain) or SIGKILL, then reap the daemon and its group.
  int stop(bool graceful) {
    if (pid_ <= 0) return 0;
    ::kill(pid_, graceful ? SIGTERM : SIGKILL);
    int st = 0;
    const double until = now_s() + 30.0;
    while (::waitpid(pid_, &st, WNOHANG) == 0) {
      if (now_s() > until) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &st, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(-pid_, SIGKILL);
    for (int i = 0; i < 2000 && ::kill(-pid_, 0) == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    g_daemon_group = 0;
    pid_ = -1;
    return WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
  }

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
  double t0_ = 0.0;
};

/// Prometheus text from the daemon's scrape endpoint (an HTTP GET on the
/// same Unix socket), as name -> value for unlabeled samples.
std::map<std::string, double> scrape(const std::string& socket_path) {
  std::map<std::string, double> out;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::write(fd, req, sizeof(req) - 1) < 0) {
    ::close(fd);
    return out;
  }
  std::string body;
  char buf[4096];
  for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) > 0;) body.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    try {
      out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
    } catch (const std::exception&) {
    }
  }
  return out;
}

struct FileEvent {
  char phase = 0;
  std::uint32_t pid = 0, tid = 0;
  double ts_s = 0.0;
  std::string name;
};

/// The daemon's Chrome trace, one event per line.
std::vector<FileEvent> read_trace_file(const std::string& path) {
  std::vector<FileEvent> out;
  std::ifstream f(path);
  const auto field = [](const std::string& l, const char* key) -> std::string {
    const auto at = l.find(key);
    if (at == std::string::npos) return {};
    auto from = at + std::strlen(key);
    if (l[from] == '"') {
      const auto to = l.find('"', from + 1);
      return l.substr(from + 1, to - from - 1);
    }
    auto to = from;
    while (to < l.size() && l[to] != ',' && l[to] != '}') ++to;
    return l.substr(from, to - from);
  };
  for (std::string line; std::getline(f, line);) {
    const std::string ph = field(line, "\"ph\":");
    if (ph.size() != 1) continue;
    FileEvent e;
    e.phase = ph[0];
    e.pid = static_cast<std::uint32_t>(std::stoul(field(line, "\"pid\":")));
    e.tid = static_cast<std::uint32_t>(std::stoul(field(line, "\"tid\":")));
    e.ts_s = 1e-6 * std::stod(field(line, "\"ts\":"));
    e.name = field(line, "\"name\":");
    out.push_back(std::move(e));
  }
  return out;
}

struct TenantJob {
  serve::JobSpec spec;
  double submit_s = 0, accept_s = 0, result_s = 0;
  serve::JobOutcome outcome;
  bool ok = false;
  std::string error;
};

/// One tenant in a closed loop over a seeded job queue against a real
/// sandboxed citroend, plus one open-loop status probe. (Three concurrent
/// tenants hit a reap stall whose length swings between seeds; NOTES.md.)
Pass daemon_sandboxed(std::uint64_t seed, int rounds, bool trace,
                      const std::string& bin, const std::string& workdir) {
  Pass out;
  static int instance = 0;
  const std::string root = workdir + "/daemon" + std::to_string(instance++);
  std::vector<std::string> programs;
  for (const auto& info : bench_suite::benchmark_list()) programs.push_back(info.name);

  // Job mix: each round runs every method once, in seeded order. Which
  // program a (round, method) slot tunes is fixed, so every seed serves
  // the same programs and only the order and the tuner seeds move.
  std::vector<TenantJob> queue;
  const std::size_t methods = std::size(kDaemonMethods);
  Rng rng(mix_seed(seed, 300));
  for (std::size_t r = 0; r < static_cast<std::size_t>(rounds); ++r) {
    std::vector<std::size_t> order(methods);
    for (std::size_t m = 0; m < methods; ++m) order[m] = m;
    for (std::size_t a = methods - 1; a > 0; --a)
      std::swap(order[a], order[rng.uniform_index(a + 1)]);
    for (const std::size_t m : order) {
      const std::size_t slot = r * methods + m;
      TenantJob tj;
      tj.spec.program = programs[slot % programs.size()];
      tj.spec.machine = machine_of(tj.spec.program);
      tj.spec.method = kDaemonMethods[m];
      tj.spec.budget = 30;
      tj.spec.seed = mix_seed(seed, 400 + slot);
      queue.push_back(std::move(tj));
    }
  }

  // Set-up: spawn to the first HelloOk, kSetups times; the last daemon
  // serves the pass.
  std::vector<double> setups;
  std::unique_ptr<Daemon> d;
  for (int i = 0; i < kSetups; ++i) {
    if (d) d->stop(/*graceful=*/true);
    d = std::make_unique<Daemon>(bin, root + "/s" + std::to_string(i), trace);
    d->wait_listening(30.0);
    serve::ClientConfig cc;
    cc.socket_path = d->socket();
    cc.tenant = "setup";
    serve::Client c(cc);
    if (!c.connect()) throw std::runtime_error("hello failed: " + c.error());
    setups.push_back(now_s() - d->spawned_at());
  }
  out.setup_s = ledger::median(setups);

  serve::ClientConfig cc;
  cc.socket_path = d->socket();
  cc.frame_timeout_seconds = 120.0;
  cc.tenant = "tenant";
  serve::Client tenant(cc);
  cc.tenant = "probe";
  serve::Client probe(cc);
  if (!tenant.connect() || !probe.connect())
    throw std::runtime_error("connect failed: " + tenant.error() + probe.error());

  const ProcStat before = read_proc(d->pid());
  const double w0 = now_s();
  std::atomic<bool> running{true};
  std::thread closed_loop([&] {
    for (TenantJob& tj : queue) {
      tj.submit_s = now_s();
      const auto id = tenant.submit(tj.spec, 60.0);
      tj.accept_s = now_s();
      if (!id) {
        tj.error = "submit: " + tenant.error();
        continue;
      }
      tj.outcome = tenant.wait_result(*id, 150.0);
      tj.result_s = now_s();
      tj.ok = tj.outcome.status == serve::ResultStatus::Ok;
      if (!tj.ok) tj.error = "result: " + tj.outcome.error;
    }
    running = false;
  });
  // The probe: due every 1/kProbeHz seconds whether or not the previous
  // answer came back, and timed from when it was due.
  std::vector<double> lateness;
  std::string probe_error;
  std::thread open_loop([&] {
    for (std::uint64_t k = 0; running; ++k) {
      const double due = w0 + static_cast<double>(k) / kProbeHz;
      const double wait = due - now_s();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      const double sent = now_s();
      const auto snap = probe.inspect(/*include_flight=*/false);
      const double done = now_s();
      if (!snap) {
        probe_error = "status probe: " + probe.error();
        break;
      }
      out.status_ms.push_back(1e3 * (done - due));
      lateness.push_back(1e3 * (sent - due));
    }
  });
  closed_loop.join();
  open_loop.join();
  out.wall_s = now_s() - w0;
  const ProcStat after = read_proc(d->pid());
  out.cpu_s = after.cpu_s - before.cpu_s;
  out.peak_rss_mb = after.hwm_mb;
  const auto metrics = trace ? scrape(d->socket()) : std::map<std::string, double>{};
  tenant.disconnect();
  probe.disconnect();
  const int status = d->stop(/*graceful=*/true);
  if (status != 0) out.failures.push_back("citroend exit status " + std::to_string(status));
  if (!probe_error.empty()) out.failures.push_back(probe_error);
  for (const double l : lateness) out.probe_late_max_ms = std::max(out.probe_late_max_ms, l);

  for (const auto& tj : queue) {
    Job j;
    j.program = tj.spec.program;
    j.machine = tj.spec.machine;
    j.method = tj.spec.method;
    j.tuner_seed = tj.spec.seed;
    j.ok = tj.ok;
    j.error = tj.error;
    j.curve = tj.outcome.curve;
    j.wall_s = tj.result_s - tj.submit_s;
    out.accept_ms.push_back(1e3 * (tj.accept_s - tj.submit_s));
    out.jobs.push_back(std::move(j));
  }

  // Outside the window: every served curve must byte-equal an in-process
  // serial replay of its spec.
  std::vector<const TenantJob*> flat;
  for (const auto& tj : queue) flat.push_back(&tj);
  std::vector<char> same(flat.size(), 0);
  ThreadPool::global().parallel_for(flat.size(), [&](std::size_t i) {
    if (!flat[i]->ok) return;
    const Vec replay = serve::serial_replay(flat[i]->spec);
    same[i] = replay.size() == flat[i]->outcome.curve.size() &&
              (replay.empty() ||
               std::memcmp(replay.data(), flat[i]->outcome.curve.data(),
                           replay.size() * sizeof(double)) == 0);
  });
  for (std::size_t i = 0; i < flat.size(); ++i)
    if (flat[i]->ok && !same[i]) {
      out.jobs[i].ok = false;
      out.jobs[i].error = "served curve differs from serial replay";
    }

  if (trace) {
    const auto events = read_trace_file(d->trace_path());
    const auto spans = close_spans(
        events, [](const FileEvent& e) { return e.name; },
        [](const FileEvent& e) { return e.ts_s; });
    const auto billed = bill_spans(spans);
    for (const auto& [k, v] : billed) out.layer[k] = v;
    out.layer["persist.checkpoint_s"] = billed.count("persist.checkpoint_span_s")
                                            ? billed.at("persist.checkpoint_span_s")
                                            : 0.0;
    std::vector<Interval> loops, job_steps;
    std::vector<double> steps;
    for (const auto& s : spans) {
      if (s.name == "serve_loop") loops.push_back(s.at);
      if (s.name == "serve_job_step") job_steps.push_back(s.at);
      if (s.name == "tuner_step") steps.push_back(s.at.end - s.at.begin);
    }
    std::sort(job_steps.begin(), job_steps.end(),
              [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
    out.layer["serve.loop_self_s"] = ledger::total_self_time(loops, job_steps);
    out.layer["citroen.step_p50_ms"] = 1e3 * ledger::percentile(steps, 0.5);
    out.layer["citroen.step_p95_ms"] = 1e3 * ledger::percentile(steps, 0.95);
    const auto get = [&](const char* k) {
      const auto it = metrics.find(k);
      return it == metrics.end() ? 0.0 : it->second;
    };
    out.layer["sandbox.forks"] = get("citroen_sandbox_forks_total");
    out.layer["sandbox.jobs_dispatched"] = get("citroen_sandbox_jobs_dispatched_total");
    const double builds = get("citroen_prefix_cache_builds_total");
    out.layer["sim.prefix.passes_saved"] = get("citroen_prefix_cache_passes_saved_total");
    out.layer["sim.prefix.hit_frac"] =
        builds > 0 ? (get("citroen_prefix_cache_full_hits_total") +
                      get("citroen_prefix_cache_prefix_hits_total")) / builds
                   : 0.0;
    std::fprintf(stderr, "  daemon trace: %zu events, %zu serve_job_step spans\n",
                 events.size(), job_steps.size());
  }
  out.layer["serve.accept_p50_ms"] = ledger::median(out.accept_ms);
  out.layer["serve.status_p50_ms"] = ledger::median(out.status_ms);
  out.layer["serve.status_p95_ms"] = ledger::percentile(out.status_ms, 0.95);
  count_failures(out);
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return out;
}

// ---- reporting ----------------------------------------------------------

const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},        {"wall_s", "s"},        {"cpu_s", "s"},
    {"evals_per_s", "1/s"},  {"job_p50_s", "s"},     {"speedup_geomean", "x"},
    {"peak_rss_mb", "MB"},
};

const char* const kPerLayer[][2] = {
    {"citroen.self_s", "s"},          {"citroen.model_s", "s"},
    {"gp.fit_hypers_s", "s"},         {"gp.fit_s", "s"},
    {"af.score_s", "s"},              {"heuristics.ask_s", "s"},
    {"citroen.step_p50_ms", "ms"},    {"citroen.step_p95_ms", "ms"},
    {"sim.prefetch_s", "s"},          {"sim.compile_s", "s"},
    {"passes.build_s", "s"},          {"sim.prefix.passes_run", "count"},
    {"sim.prefix.passes_saved", "count"}, {"sim.prefix.hit_frac", "ratio"},
    {"sim.evaluate_s", "s"},          {"ir.interpret_s", "s"},
    {"sim.binary_hit_frac", "ratio"}, {"sim.invalid_frac", "ratio"},
    {"sim.prefix.evictions", "count"}, {"support.pool.efficiency", "ratio"},
    {"baselines.self_s", "s"},        {"persist.journal_us_per_eval", "us"},
    {"persist.checkpoint_s", "s"},    {"sandbox.forks", "count"},
    {"sandbox.jobs_dispatched", "count"}, {"sandbox.spawn_s", "s"},
    {"serve.accept_p50_ms", "ms"},    {"serve.loop_self_s", "s"},
    {"serve.status_p50_ms", "ms"},    {"serve.status_p95_ms", "ms"},
    {"obs.trace_overhead_s", "s"},
};

std::map<std::string, double> end_to_end(const Pass& p) {
  std::vector<double> finals, job_walls;
  double evals = 0;
  for (const auto& j : p.jobs) {
    if (!j.curve.empty()) finals.push_back(j.curve.back());
    job_walls.push_back(j.wall_s);
    evals += static_cast<double>(j.curve.size());
  }
  return {{"setup_s", p.setup_s},
          {"wall_s", p.wall_s},
          {"cpu_s", p.cpu_s},
          {"evals_per_s", p.wall_s > 0 ? evals / p.wall_s : 0.0},
          {"job_p50_s", ledger::median(job_walls)},
          {"speedup_geomean", ledger::geomean(finals)},
          {"peak_rss_mb", p.peak_rss_mb}};
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::map<std::string, double>& values,
                const char* const (*names)[2], std::size_t n) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(names[i][0]);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", it == values.end() ? 0.0 : it->second);
    if (i) s += ", ";
    s += "\"" + std::string(names[i][0]) + "\": {\"value\": " + buf +
         ", \"unit\": \"" + names[i][1] + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string citroend;
  std::string workdir;
};

Pass run_pass(const Options& o, bool trace) {
  if (o.workload == "citroen_suite")
    return citroen_suite(o.seed, std::max(1, static_cast<int>(std::lround(o.seconds / kCitroenPassSeconds))), trace);
  if (o.workload == "modelfree_parallel")
    return modelfree_parallel(o.seed, std::max(1, static_cast<int>(std::lround(o.seconds / kModelfreePassSeconds))), trace, o.workdir);
  if (o.workload == "daemon_sandboxed")
    return daemon_sandboxed(
        o.seed,
        std::max(1, static_cast<int>(std::lround(o.seconds / kDaemonRoundSeconds))),
        trace, o.citroend, o.workdir);
  throw std::runtime_error("unknown workload " + o.workload);
}

void describe(const char* label, const Pass& p) {
  const auto m = end_to_end(p);
  std::fprintf(stderr, "%s: %zu jobs, digest %016" PRIx64 ", failed %" PRIu64 "\n",
               label, p.jobs.size(), pass_digest(p), p.failed);
  for (const auto& [k, v] : m) std::fprintf(stderr, "  %-18s %.6g\n", k.c_str(), v);
  for (const auto& j : p.jobs)
    std::fprintf(stderr, "    job %-20s %-9s seed %-10" PRIu64 " %7.3f s  best %.4f\n",
                 j.program.c_str(), j.method.c_str(), j.tuner_seed, j.wall_s,
                 j.curve.empty() ? 0.0 : j.curve.back());
  if (!p.status_ms.empty()) {
    const auto tail = ledger::tail_percentile(p.status_ms);
    std::fprintf(stderr,
                 "  status probes: n=%zu p50=%.2f ms p95=%.2f ms, tail p%.1f=%.2f ms "
                 "(%zu beyond); generator ran at most %.2f ms late\n",
                 p.status_ms.size(), ledger::median(p.status_ms),
                 ledger::percentile(p.status_ms, 0.95), 100 * tail.q, tail.value,
                 ledger::samples_beyond(tail.count, tail.q), p.probe_late_max_ms);
  }
  for (const auto& f : p.failures) std::fprintf(stderr, "  FAIL %s\n", f.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--citroend") o.citroend = v;
    else if (k == "--workdir") o.workdir = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (o.workload.empty() || o.workdir.empty()) {
    std::fprintf(stderr, "usage: perf_ledger --workload NAME --seed N --seconds S "
                         "--trace 0|1 --citroend PATH --workdir DIR\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_fatal_signal);
  std::signal(SIGINT, on_fatal_signal);
  try {
    std::filesystem::create_directories(o.workdir);
    const Pass plain = run_pass(o, /*trace=*/false);
    describe("untraced", plain);
    if (!o.trace) {
      print_json(plain.failed == 0, plain.jobs.size(), plain.failed,
                 end_to_end(plain), kEndToEnd, std::size(kEndToEnd));
      return 0;
    }
    Pass traced = run_pass(o, /*trace=*/true);
    describe("traced", traced);
    const bool same_digest = pass_digest(plain) == pass_digest(traced);
    if (!same_digest) std::fprintf(stderr, "FAIL tracing changed the curve digest\n");
    auto layer = traced.layer;
    const double overhead = traced.wall_s - plain.wall_s;
    layer["obs.trace_overhead_s"] = overhead;
    const int threads = ThreadPool::global().size();
    layer["support.pool.efficiency"] =
        traced.wall_s > 0 ? traced.cpu_s / (traced.wall_s * threads) : 0.0;
    bool sums = true;
    if (o.workload != "daemon_sandboxed") {
      const double thread_s = layer["ledger.tuner_thread_s"];
      const double sum = layer["ledger.layers_sum_s"];
      sums = ledger::sums_to_wall(sum, thread_s, overhead);
      std::fprintf(stderr,
                   "sum check: layers %.3f s vs tuner threads %.3f s (overhead %.3f s): %s\n",
                   sum, thread_s, overhead, sums ? "ok" : "FAIL");
    }
    const std::uint64_t failed = plain.failed + traced.failed;
    print_json(failed == 0 && same_digest && sums,
               plain.jobs.size() + traced.jobs.size(), failed, layer, kPerLayer,
               std::size(kPerLayer));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 1;
  }
  return 0;
}
