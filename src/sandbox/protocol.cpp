#include "sandbox/protocol.hpp"

#include <sys/mman.h>

#include <limits>
#include <map>
#include <new>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/codec.hpp"

namespace citroen::sandbox {

namespace {

void put_exec_result(persist::Writer& w, const ir::ExecResult& r) {
  w.b(r.ok);
  w.str(r.trap);
  w.b(r.hung);
  w.i64(r.ret);
  w.f64(r.cycles);
  w.u64(r.instructions);
}

ir::ExecResult get_exec_result(persist::Reader& r) {
  ir::ExecResult out;
  out.ok = r.b();
  out.trap = r.str();
  out.hung = r.b();
  out.ret = r.i64();
  out.cycles = r.f64();
  out.instructions = r.u64();
  return out;
}

/// A build summary: every ModuleBuild field the serial path reads, and
/// no IR. Counters travel by name, since StatKeys are interned per
/// process.
void put_summary(persist::Writer& w, const sim::BuildSummary& s) {
  const sim::ModuleBuild& b = *s.build;
  w.str(s.module);
  w.b(b.ok);
  w.b(b.crashed);
  w.str(b.error);
  persist::put(w, b.stats.counters());
  w.u64(b.print_hash);
  w.u64(static_cast<std::uint64_t>(b.code_size));
}

sim::BuildSummary get_summary(persist::Reader& r) {
  sim::BuildSummary out;
  out.module = r.str();
  auto b = std::make_shared<sim::ModuleBuild>();
  b->summary = true;
  b->ok = r.b();
  b->crashed = r.b();
  b->error = r.str();
  std::map<std::string, std::int64_t> counters;
  persist::get(r, counters);
  // set(), not add(): zero-valued counters must survive the trip.
  for (const auto& [k, v] : counters) b->stats.set(k, v);
  b->print_hash = r.u64();
  b->code_size = static_cast<std::size_t>(r.u64());
  out.build = std::move(b);
  return out;
}

void put_obs_event(persist::Writer& w, const ObsEventWire& e) {
  w.u8(static_cast<std::uint8_t>(e.phase));
  w.str(e.name);
  w.str(e.cat);
  w.str(e.arg_name);
  w.str(e.str_arg);
  w.u64(e.ts_ns);
  w.u64(e.id);
  w.u64(e.arg);
}

ObsEventWire get_obs_event(persist::Reader& r) {
  ObsEventWire out;
  out.phase = static_cast<char>(r.u8());
  out.name = r.str();
  out.cat = r.str();
  out.arg_name = r.str();
  out.str_arg = r.str();
  out.ts_ns = r.u64();
  out.id = r.u64();
  out.arg = r.u64();
  return out;
}

}  // namespace

std::string encode_job(const SandboxJob& job) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(job.kind));
  w.u64(job.id);
  w.b(job.has_plan);
  if (job.has_plan) sim::put(w, job.plan);
  sim::put(w, job.assignment);
  return w.take();
}

bool decode_job(const std::string& payload, SandboxJob* job,
                std::string* error) {
  try {
    persist::Reader r(payload);
    job->kind = static_cast<JobKind>(r.u8());
    if (job->kind != JobKind::Evaluate && job->kind != JobKind::Compile)
      throw std::runtime_error("unknown job kind");
    job->id = r.u64();
    job->has_plan = r.b();
    if (job->has_plan) sim::get(r, job->plan);
    sim::get(r, job->assignment);
    if (!r.at_end()) throw std::runtime_error("trailing bytes in job");
    return true;
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return false;
  }
}

std::string encode_result(const SandboxResult& res) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(res.status));
  w.u64(res.id);
  w.b(res.pure.built);
  w.u64(res.pure.binary_hash);
  w.u64(res.pure.runs.size());
  for (const auto& run : res.pure.runs) put_exec_result(w, run);
  w.u64(res.pure.summaries.size());
  for (const auto& s : res.pure.summaries) put_summary(w, s);
  w.u64(res.obs_events.size());
  for (const auto& ev : res.obs_events) put_obs_event(w, ev);
  w.u64(res.obs_counters.size());
  for (const auto& [name, delta] : res.obs_counters) {
    w.str(name);
    w.u64(delta);
  }
  return w.take();
}

bool decode_result(const std::string& payload, SandboxResult* res,
                   std::string* error) {
  try {
    persist::Reader r(payload);
    res->status = static_cast<ResultStatus>(r.u8());
    if (res->status != ResultStatus::Ok && res->status != ResultStatus::Oom)
      throw std::runtime_error("unknown result status");
    res->id = r.u64();
    res->pure.built = r.b();
    res->pure.binary_hash = r.u64();
    const std::uint64_t n = r.u64();
    res->pure.runs.clear();
    for (std::uint64_t i = 0; i < n; ++i)
      res->pure.runs.push_back(get_exec_result(r));
    const std::uint64_t n_summaries = r.u64();
    res->pure.summaries.clear();
    for (std::uint64_t i = 0; i < n_summaries; ++i)
      res->pure.summaries.push_back(get_summary(r));
    const std::uint64_t n_events = r.u64();
    res->obs_events.clear();
    for (std::uint64_t i = 0; i < n_events; ++i)
      res->obs_events.push_back(get_obs_event(r));
    const std::uint64_t n_counters = r.u64();
    res->obs_counters.clear();
    for (std::uint64_t i = 0; i < n_counters; ++i) {
      std::string name = r.str();
      const std::uint64_t delta = r.u64();
      res->obs_counters.emplace_back(std::move(name), delta);
    }
    if (!r.at_end()) throw std::runtime_error("trailing bytes in result");
    return true;
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return false;
  }
}

const char* worker_stage_name(WorkerStage s) {
  switch (s) {
    case WorkerStage::Idle: return "idle";
    case WorkerStage::Build: return "build";
    case WorkerStage::Measure: return "measure";
    case WorkerStage::Reply: return "reply";
  }
  return "unknown";
}

// ---- obs appendix helpers -------------------------------------------------

namespace {
/// Counters are cumulative; frames ship only the increment since the
/// previous frame (or since baseline_obs_counters()). Touched only from
/// the single worker/peer serving thread, so no lock.
std::map<std::string, std::uint64_t>& counter_base() {
  static auto* m = new std::map<std::string, std::uint64_t>();
  return *m;
}
}  // namespace

void baseline_obs_counters() {
  if (!obs::metrics_enabled()) return;
  for (const auto& [name, v] : obs::Registry::instance().counters_snapshot())
    counter_base()[name] = v;
}

void collect_obs_deltas(SandboxResult* res) {
  if (obs::trace_enabled()) {
    for (const auto& ev : obs::drain_trace()) {
      ObsEventWire w;
      w.phase = ev.phase;
      if (ev.name) w.name = ev.name;
      if (ev.cat) w.cat = ev.cat;
      if (ev.arg_name) w.arg_name = ev.arg_name;
      if (ev.str_arg) w.str_arg = ev.str_arg;
      w.ts_ns = ev.ts_ns;
      w.id = ev.id;
      w.arg = ev.arg;
      res->obs_events.push_back(std::move(w));
    }
  }
  if (obs::metrics_enabled()) {
    for (const auto& [name, v] :
         obs::Registry::instance().counters_snapshot()) {
      std::uint64_t& base = counter_base()[name];
      if (v > base) res->obs_counters.emplace_back(name, v - base);
      base = v;
    }
  }
}

void ingest_result_obs(const SandboxResult& res, std::uint32_t pid,
                       std::int64_t clock_offset_ns) {
  // Local time of a remote event is ts − offset; negate once (clamped:
  // INT64_MIN has no int64 negation) and let apply_clock_offset saturate.
  const std::int64_t rebase =
      clock_offset_ns == std::numeric_limits<std::int64_t>::min()
          ? std::numeric_limits<std::int64_t>::max()
          : -clock_offset_ns;
  if (obs::trace_enabled()) {
    for (const auto& ev : res.obs_events) {
      obs::TraceEvent te;
      te.phase = ev.phase;
      te.name = obs::intern(ev.name);
      te.cat = obs::intern(ev.cat);
      if (!ev.arg_name.empty()) te.arg_name = obs::intern(ev.arg_name);
      if (!ev.str_arg.empty()) te.str_arg = obs::intern(ev.str_arg);
      te.ts_ns = obs::apply_clock_offset(ev.ts_ns, rebase);
      te.id = ev.id;
      te.arg = ev.arg;
      te.pid = pid;
      te.tid = 0;
      obs::ingest_event(te);
    }
  }
  if (obs::metrics_enabled() && !res.obs_counters.empty()) {
    auto& reg = obs::Registry::instance();
    for (const auto& [name, delta] : res.obs_counters)
      reg.counter_from_wire(name).add(delta);
  }
}

ProgressCell* map_progress_cell() {
  void* mem = ::mmap(nullptr, sizeof(ProgressCell), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return nullptr;
  return new (mem) ProgressCell();
}

void unmap_progress_cell(ProgressCell* cell) {
  if (cell) ::munmap(cell, sizeof(ProgressCell));
}

}  // namespace citroen::sandbox
