#pragma once
// Trace subsystem: per-thread lock-free ring buffers feeding a bounded
// global sink, exported as Chrome trace_event JSON (loadable in Perfetto
// / chrome://tracing).
//
// Cost model: every emit site is guarded by `trace_enabled()`, a relaxed
// load of one global atomic bool. With CITROEN_TRACE unset the whole
// layer is that branch — no allocation, no clock read, no stores
// (BM_TraceEmitOverhead pins the number). When enabled, an emit is one
// CLOCK_MONOTONIC read plus a wait-free append to the calling thread's
// own ring; the only locks in the system (short spinlocks) are taken on
// the amortised ring-spill path and by drains/flushes.
//
// Determinism contract: events carry wall-clock timestamps but are only
// ever written to the trace file / returned from drain_trace(). Nothing
// here feeds back into tuning state, so all bench/tuner stdout is
// byte-identical with tracing on or off (enforced by ext_determinism and
// ext_observability in CI).
//
// Event names and categories are `const char*` by design: call sites
// pass string literals, and dynamic strings (crash signatures, pass
// names) go through intern(), which leaks them for the process lifetime
// so events never dangle.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace citroen::obs {

/// One trace event. Phases follow the Chrome trace_event format:
/// 'B'/'E' synchronous span begin/end (strictly nested per thread),
/// 'b'/'e' asynchronous span begin/end (paired by `id`, may overlap),
/// 'I' instant, 's'/'f' flow start/finish (linked by `id` across
/// processes — how a dist_job dispatch span points at its remote
/// execution span in the merged trace).
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  const char* arg_name = nullptr;  ///< nullptr: no numeric arg
  const char* str_arg = nullptr;   ///< nullptr: no "detail" string arg
  std::uint64_t ts_ns = 0;         ///< CLOCK_MONOTONIC nanoseconds
  std::uint64_t id = 0;            ///< async pairing id ('b'/'e' only)
  std::uint64_t arg = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  char phase = 'I';
};

namespace detail {
extern std::atomic<bool> g_trace_on;
}  // namespace detail

/// The one branch every disabled emit site pays.
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Programmatic enable/disable (benches and tests; the env path is
/// CITROEN_TRACE). Enabling does not set an output path — in-memory
/// tracing with drain_trace() works without ever touching the disk.
void trace_force_enable(bool on);

/// Output file for flush_trace(); "" disables file output. CITROEN_TRACE=1
/// defaults this to citroen_trace.json; CITROEN_TRACE=<path> uses <path>.
void set_trace_path(std::string path);
std::string trace_path();

/// Copy `s` into a process-lifetime arena and return a stable pointer.
/// Repeated calls with the same contents return the same pointer.
const char* intern(std::string_view s);

/// Append one event to the calling thread's ring (no-op when disabled).
void emit(char phase, const char* name, const char* cat, std::uint64_t id = 0,
          const char* arg_name = nullptr, std::uint64_t arg = 0,
          const char* str_arg = nullptr);

/// RAII synchronous span. Both literals must outlive the span (string
/// literals or intern()ed strings).
class Span {
 public:
  Span(const char* name, const char* cat) {
    if (trace_enabled()) {
      name_ = name;
      cat_ = cat;
      emit('B', name, cat);
    }
  }
  ~Span() {
    if (name_) emit('E', name_, cat_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
};

/// Move all buffered events (sink first, then each thread's ring) out of
/// the process, clearing them. Caller must be quiescent: no other thread
/// may be emitting concurrently (between tuner rounds, between sandbox
/// jobs, or after joining workers — all our call sites).
std::vector<TraceEvent> drain_trace();

/// Append a foreign event (e.g. one a sandbox worker shipped over IPC)
/// directly to the global sink. The caller sets pid/tid/ts; name strings
/// must be intern()ed or literal.
void ingest_event(const TraceEvent& ev);

/// ts_ns + offset_ns with saturation at 0 and UINT64_MAX instead of
/// wrapping. Used to re-base remote timestamps into the local
/// CLOCK_MONOTONIC timeline: with `offset` = (remote clock − local
/// clock) measured during the Hello/HelloOk handshake, the local time
/// of a remote event is apply_clock_offset(ts, -offset). Monotone in
/// `ts_ns`, so re-based spans never end before they begin regardless of
/// skew sign or magnitude.
std::uint64_t apply_clock_offset(std::uint64_t ts_ns, std::int64_t offset_ns);

/// Events discarded because the global sink hit its capacity (1M
/// events). Rings never overwrite:
/// a full ring spills to the sink, and the sink drops-newest at cap, so
/// a torn or half-overwritten event is impossible by construction.
std::uint64_t trace_dropped();

/// Test hook: shrink the sink so overflow accounting is exercisable.
void set_sink_capacity(std::size_t cap);

/// Spill every ring into the sink and, if a trace path is set, rewrite
/// the whole file (idempotent; safe to call repeatedly and right before
/// _Exit-style shutdown). The sink keeps its events, so each flush
/// writes the cumulative trace.
void flush_trace();

/// Sandbox workers call this immediately after fork: resets all lock
/// state (spinlocks only — fork-safe by construction), clears every
/// inherited ring/sink event, re-caches the pid, and clears the trace
/// path so a worker can never clobber the supervisor's file.
void reset_after_fork();

/// flush_trace() plus a metrics-file write — the one call _Exit-style
/// shutdown paths (watchdog kill, exit 99) make before dying, since
/// _Exit skips the atexit flushes.
void flush_all();

/// Serialize events as a Chrome trace_event JSON document.
std::string trace_json(const std::vector<TraceEvent>& events);

/// Check that 'B'/'E' events nest as a proper stack per (pid, tid),
/// that every 'b' has a matching 'e' per (pid, id), and that every
/// flow finish 'f' has a flow start 's' somewhere with the same id
/// (order-independent: merged multi-process traces interleave). Used by
/// the ext_observability gate and tests.
bool validate_span_nesting(const std::vector<TraceEvent>& events,
                           std::string* error);

/// Minimal strict JSON validator (objects/arrays/strings/numbers/
/// true/false/null) — enough to guarantee Perfetto and python json.tool
/// accept what we write, without shelling out.
bool json_well_formed(const std::string& text, std::string* error);

/// Escape a string for embedding in a JSON string literal (shared with
/// the metrics exporters).
std::string json_escape(std::string_view s);

}  // namespace citroen::obs

#define OBS_CONCAT_INNER(a, b) a##b
#define OBS_CONCAT(a, b) OBS_CONCAT_INNER(a, b)

/// Scoped synchronous span: OBS_SPAN("gp_fit", "gp");
#define OBS_SPAN(name, cat) \
  ::citroen::obs::Span OBS_CONCAT(obs_span_, __LINE__)(name, cat)

/// Instant event with optional numeric payload.
#define OBS_INSTANT(name, cat)                       \
  do {                                               \
    if (::citroen::obs::trace_enabled())             \
      ::citroen::obs::emit('I', name, cat);          \
  } while (0)

#define OBS_INSTANT_ARG(name, cat, arg_name, arg_value)               \
  do {                                                                \
    if (::citroen::obs::trace_enabled())                              \
      ::citroen::obs::emit('I', name, cat, 0, arg_name,               \
                           static_cast<std::uint64_t>(arg_value));    \
  } while (0)
