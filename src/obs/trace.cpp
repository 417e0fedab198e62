#include "obs/trace.hpp"

#include <time.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <unordered_set>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace citroen::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

namespace {

/// Fork-safe lock: a child can reset it unconditionally after fork even
/// if a parent thread held it at fork time (a pthread mutex copied in a
/// locked state would wedge the child forever). Contention is rare by
/// design — only ring spills, drains and flushes ever take one.
class SpinLock {
 public:
  void lock() {
    while (locked_.exchange(true, std::memory_order_acquire)) {
    }
  }
  void unlock() { locked_.store(false, std::memory_order_release); }
  void reset() { locked_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> locked_{false};
};

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

constexpr std::size_t kRingCapacity = 4096;

// ---- global sink ----------------------------------------------------------

SpinLock g_sink_mu;
std::vector<TraceEvent>& sink_events() {
  static std::vector<TraceEvent>* v = new std::vector<TraceEvent>();
  return *v;
}
std::atomic<std::size_t> g_sink_cap{std::size_t{1} << 20};
std::atomic<std::uint64_t> g_dropped{0};

/// Append under g_sink_mu, dropping newest past the cap. Rings never
/// overwrite slots in place, so every event that reaches the sink is
/// whole; overflow is visible only as this counter.
void sink_append_locked(const TraceEvent* evs, std::size_t n) {
  auto& sink = sink_events();
  const std::size_t cap = g_sink_cap.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (sink.size() >= cap) {
      g_dropped.fetch_add(n - i, std::memory_order_relaxed);
      return;
    }
    sink.push_back(evs[i]);
  }
}

// ---- per-thread rings -----------------------------------------------------

class TraceRing {
 public:
  /// Owner-thread only. Wait-free except when the ring fills, which
  /// spills the whole ring into the sink (amortised over kRingCapacity
  /// events).
  void push(const TraceEvent& ev) {
    std::size_t n = count_.load(std::memory_order_relaxed);
    if (n == kRingCapacity) {
      spill();
      n = 0;
    }
    slots_[n] = ev;
    count_.store(n + 1, std::memory_order_release);
  }

  /// Move everything into `out`; caller guarantees the owner thread is
  /// not emitting concurrently (see drain_trace contract).
  void drain_into(std::vector<TraceEvent>& out) {
    mu_.lock();
    const std::size_t n = count_.load(std::memory_order_acquire);
    out.insert(out.end(), slots_, slots_ + n);
    count_.store(0, std::memory_order_release);
    mu_.unlock();
  }

  void spill_into_sink() {
    mu_.lock();
    const std::size_t n = count_.load(std::memory_order_acquire);
    g_sink_mu.lock();
    sink_append_locked(slots_, n);
    g_sink_mu.unlock();
    count_.store(0, std::memory_order_release);
    mu_.unlock();
  }

  void clear() {
    count_.store(0, std::memory_order_relaxed);
    mu_.reset();
  }

 private:
  void spill() {
    mu_.lock();
    const std::size_t n = count_.load(std::memory_order_relaxed);
    g_sink_mu.lock();
    sink_append_locked(slots_, n);
    g_sink_mu.unlock();
    count_.store(0, std::memory_order_release);
    mu_.unlock();
  }

  TraceEvent slots_[kRingCapacity];
  std::atomic<std::size_t> count_{0};
  /// Excludes a drain/flush from racing the owner's spill; the owner's
  /// plain push path never touches it.
  SpinLock mu_;
};

SpinLock g_rings_mu;
std::vector<TraceRing*>& rings() {
  static std::vector<TraceRing*>* v = new std::vector<TraceRing*>();
  return *v;
}

std::atomic<std::uint32_t> g_next_tid{1};
std::uint32_t g_pid = 0;

TraceRing& local_ring() {
  // Rings are leaked on purpose: a pool thread may exit while its events
  // are still waiting for the final flush, and the registry keeps the
  // only owning pointer.
  thread_local TraceRing* ring = [] {
    auto* r = new TraceRing();
    g_rings_mu.lock();
    rings().push_back(r);
    g_rings_mu.unlock();
    return r;
  }();
  return *ring;
}

std::uint32_t local_tid() {
  thread_local std::uint32_t tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

// ---- string interning -----------------------------------------------------

SpinLock g_intern_mu;
std::unordered_set<std::string>& intern_table() {
  static auto* t = new std::unordered_set<std::string>();
  return *t;
}

// ---- output path + env init -----------------------------------------------

SpinLock g_path_mu;
std::string& trace_path_ref() {
  static auto* p = new std::string();
  return *p;
}

void atexit_flush() { flush_trace(); }

void register_atexit_once() {
  static bool registered = [] {
    std::atexit(&atexit_flush);
    return true;
  }();
  (void)registered;
}

/// CITROEN_TRACE: unset/""/"0" -> off; "1" -> on, default file;
/// anything else -> on, value is the output path.
const bool g_env_init = [] {
  g_pid = static_cast<std::uint32_t>(::getpid());
  const char* env = std::getenv("CITROEN_TRACE");
  if (!env || !*env || std::strcmp(env, "0") == 0) return true;
  trace_path_ref() =
      std::strcmp(env, "1") == 0 ? "citroen_trace.json" : env;
  detail::g_trace_on.store(true, std::memory_order_relaxed);
  register_atexit_once();
  return true;
}();

void drain_rings_into_sink() {
  g_rings_mu.lock();
  std::vector<TraceRing*> snapshot = rings();
  g_rings_mu.unlock();
  for (TraceRing* r : snapshot) r->spill_into_sink();
}

void append_json_event(std::string& out, const TraceEvent& ev) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"%c\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f", ev.phase,
                ev.pid, ev.tid,
                static_cast<double>(ev.ts_ns) / 1000.0);
  out += buf;
  out += ",\"name\":\"";
  out += json_escape(ev.name ? ev.name : "");
  out += "\",\"cat\":\"";
  out += json_escape(ev.cat ? ev.cat : "");
  out += '"';
  if (ev.phase == 'b' || ev.phase == 'e' || ev.phase == 's' ||
      ev.phase == 'f') {
    std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(ev.id));
    out += buf;
  }
  // Flow finishes bind to the enclosing slice's end, which is what makes
  // the daemon->peer arrow land on the remote execution span in Perfetto.
  if (ev.phase == 'f') out += ",\"bp\":\"e\"";
  if (ev.phase == 'I') out += ",\"s\":\"t\"";
  if (ev.arg_name || ev.str_arg) {
    out += ",\"args\":{";
    bool first = true;
    if (ev.arg_name) {
      out += '"';
      out += json_escape(ev.arg_name);
      std::snprintf(buf, sizeof(buf), "\":%llu",
                    static_cast<unsigned long long>(ev.arg));
      out += buf;
      first = false;
    }
    if (ev.str_arg) {
      if (!first) out += ',';
      out += "\"detail\":\"";
      out += json_escape(ev.str_arg);
      out += '"';
    }
    out += '}';
  }
  out += '}';
}

}  // namespace

void trace_force_enable(bool on) {
  detail::g_trace_on.store(on, std::memory_order_relaxed);
}

void set_trace_path(std::string path) {
  g_path_mu.lock();
  trace_path_ref() = std::move(path);
  g_path_mu.unlock();
  if (!trace_path().empty()) register_atexit_once();
}

std::string trace_path() {
  g_path_mu.lock();
  std::string p = trace_path_ref();
  g_path_mu.unlock();
  return p;
}

const char* intern(std::string_view s) {
  g_intern_mu.lock();
  const auto [it, _] = intern_table().emplace(s);
  const char* p = it->c_str();
  g_intern_mu.unlock();
  return p;
}

void emit(char phase, const char* name, const char* cat, std::uint64_t id,
          const char* arg_name, std::uint64_t arg, const char* str_arg) {
  if (!trace_enabled()) return;
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.arg_name = arg_name;
  ev.str_arg = str_arg;
  ev.ts_ns = now_ns();
  ev.id = id;
  ev.arg = arg;
  ev.pid = g_pid;
  ev.tid = local_tid();
  ev.phase = phase;
  local_ring().push(ev);
}

std::vector<TraceEvent> drain_trace() {
  std::vector<TraceEvent> out;
  g_sink_mu.lock();
  out.swap(sink_events());
  g_sink_mu.unlock();
  g_rings_mu.lock();
  std::vector<TraceRing*> snapshot = rings();
  g_rings_mu.unlock();
  for (TraceRing* r : snapshot) r->drain_into(out);
  return out;
}

void ingest_event(const TraceEvent& ev) {
  g_sink_mu.lock();
  sink_append_locked(&ev, 1);
  g_sink_mu.unlock();
}

std::uint64_t trace_dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

std::uint64_t apply_clock_offset(std::uint64_t ts_ns, std::int64_t offset_ns) {
  if (offset_ns >= 0) {
    const std::uint64_t d = static_cast<std::uint64_t>(offset_ns);
    return ts_ns > ~std::uint64_t{0} - d ? ~std::uint64_t{0} : ts_ns + d;
  }
  // offset_ns may be INT64_MIN, whose negation overflows; negate as u64.
  const std::uint64_t d = std::uint64_t{0} - static_cast<std::uint64_t>(offset_ns);
  return ts_ns < d ? 0 : ts_ns - d;
}

void set_sink_capacity(std::size_t cap) {
  g_sink_cap.store(cap, std::memory_order_relaxed);
}

void flush_trace() {
  const std::string path = trace_path();
  if (path.empty()) return;
  drain_rings_into_sink();
  g_sink_mu.lock();
  std::vector<TraceEvent> snapshot = sink_events();
  g_sink_mu.unlock();
  const std::string doc = trace_json(snapshot);
  // Whole-file rewrite each time: every flush leaves a complete, valid
  // JSON document on disk, so even a flush-then-_Exit shutdown (watchdog
  // deadline, exit 99) yields a loadable trace. Only SIGKILL between
  // flushes loses events.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

void reset_after_fork() {
  g_sink_mu.reset();
  g_rings_mu.reset();
  g_intern_mu.reset();
  g_path_mu.reset();
  g_pid = static_cast<std::uint32_t>(::getpid());
  trace_path_ref().clear();  // never clobber the supervisor's file
  sink_events().clear();
  for (TraceRing* r : rings()) r->clear();
  Registry::instance().reset_locks_after_fork();
  set_metrics_path("");  // ditto for the metrics/prom files
  flight_reset_after_fork();
}

void flush_all() {
  flush_trace();
  write_metrics_files(metrics_path());
  // _Exit-style shutdowns reach here (watchdog kill, exit 99): dump the
  // flight recorder to stderr so post-incident triage never depends on
  // tracing having been enabled. Stderr-only, so bench stdout stays
  // byte-identical.
  flight_dump(stderr);
}

std::string trace_json(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& ev : events) {
    if (!first) out += ",\n";
    first = false;
    append_json_event(out, ev);
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool validate_span_nesting(const std::vector<TraceEvent>& events,
                           std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  // Sync spans: per (pid, tid), 'B'/'E' must behave as a stack whose 'E'
  // names match the matching 'B'. Async spans: per (pid, id), 'b' then
  // 'e', no reuse while open.
  std::map<std::uint64_t, std::vector<const TraceEvent*>> stacks;
  std::map<std::pair<std::uint64_t, std::uint64_t>, const char*> open_async;
  // Flow binding is order-independent: a merged trace interleaves events
  // from several processes, and a peer's 'f' may be ingested before the
  // pool's 's' appears in drain order. Collect starts first.
  std::unordered_set<std::uint64_t> flow_starts;
  for (const auto& ev : events) {
    if (ev.phase == 's') flow_starts.insert(ev.id);
  }
  for (const auto& ev : events) {
    const std::uint64_t key =
        (std::uint64_t{ev.pid} << 32) | std::uint64_t{ev.tid};
    switch (ev.phase) {
      case 'B':
        stacks[key].push_back(&ev);
        break;
      case 'E': {
        auto& st = stacks[key];
        if (st.empty())
          return fail(std::string("unmatched span end: ") +
                      (ev.name ? ev.name : "?"));
        const TraceEvent* open = st.back();
        if (std::string_view(open->name ? open->name : "") !=
            std::string_view(ev.name ? ev.name : ""))
          return fail(std::string("span end '") + (ev.name ? ev.name : "?") +
                      "' does not match open span '" +
                      (open->name ? open->name : "?") + "'");
        if (ev.ts_ns < open->ts_ns)
          return fail(std::string("span '") + (ev.name ? ev.name : "?") +
                      "' ends before it begins");
        st.pop_back();
        break;
      }
      case 'b': {
        const auto akey = std::make_pair(std::uint64_t{ev.pid}, ev.id);
        if (open_async.count(akey))
          return fail("async id reused while open");
        open_async[akey] = ev.name;
        break;
      }
      case 'e': {
        const auto akey = std::make_pair(std::uint64_t{ev.pid}, ev.id);
        auto it = open_async.find(akey);
        if (it == open_async.end()) return fail("unmatched async end");
        open_async.erase(it);
        break;
      }
      case 'I':
      case 's':
        break;
      case 'f':
        if (!flow_starts.count(ev.id))
          return fail(std::string("flow finish without start: ") +
                      (ev.name ? ev.name : "?"));
        break;
      default:
        return fail(std::string("unknown phase '") + ev.phase + "'");
    }
  }
  for (const auto& [key, st] : stacks) {
    if (!st.empty())
      return fail(std::string("span never closed: ") +
                  (st.back()->name ? st.back()->name : "?"));
  }
  if (!open_async.empty()) return fail("async span never closed");
  return true;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- minimal strict JSON validator ----------------------------------------

namespace {

struct JsonCursor {
  const char* p;
  const char* end;
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }
  bool eof() const { return p >= end; }
};

bool parse_value(JsonCursor& c, int depth, std::string* error);

bool parse_literal(JsonCursor& c, const char* lit, std::string* error) {
  const std::size_t n = std::strlen(lit);
  if (static_cast<std::size_t>(c.end - c.p) < n ||
      std::strncmp(c.p, lit, n) != 0) {
    if (error) *error = std::string("bad literal, expected ") + lit;
    return false;
  }
  c.p += n;
  return true;
}

bool parse_string(JsonCursor& c, std::string* error) {
  if (c.eof() || *c.p != '"') {
    if (error) *error = "expected string";
    return false;
  }
  ++c.p;
  while (!c.eof()) {
    const unsigned char ch = static_cast<unsigned char>(*c.p);
    if (ch == '"') {
      ++c.p;
      return true;
    }
    if (ch < 0x20) {
      if (error) *error = "raw control character in string";
      return false;
    }
    if (ch == '\\') {
      ++c.p;
      if (c.eof()) break;
      const char esc = *c.p;
      if (esc == 'u') {
        for (int i = 0; i < 4; ++i) {
          ++c.p;
          if (c.eof() || !std::isxdigit(static_cast<unsigned char>(*c.p))) {
            if (error) *error = "bad \\u escape";
            return false;
          }
        }
      } else if (!std::strchr("\"\\/bfnrt", esc)) {
        if (error) *error = "bad escape";
        return false;
      }
    }
    ++c.p;
  }
  if (error) *error = "unterminated string";
  return false;
}

bool parse_number(JsonCursor& c, std::string* error) {
  const char* start = c.p;
  if (!c.eof() && *c.p == '-') ++c.p;
  while (!c.eof() && std::isdigit(static_cast<unsigned char>(*c.p))) ++c.p;
  if (!c.eof() && *c.p == '.') {
    ++c.p;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(*c.p))) ++c.p;
  }
  if (!c.eof() && (*c.p == 'e' || *c.p == 'E')) {
    ++c.p;
    if (!c.eof() && (*c.p == '+' || *c.p == '-')) ++c.p;
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(*c.p))) ++c.p;
  }
  if (c.p == start || (*start == '-' && c.p == start + 1)) {
    if (error) *error = "bad number";
    return false;
  }
  return true;
}

bool parse_value(JsonCursor& c, int depth, std::string* error) {
  if (depth > 128) {
    if (error) *error = "nesting too deep";
    return false;
  }
  c.skip_ws();
  if (c.eof()) {
    if (error) *error = "unexpected end of input";
    return false;
  }
  const char ch = *c.p;
  if (ch == '{') {
    ++c.p;
    c.skip_ws();
    if (!c.eof() && *c.p == '}') {
      ++c.p;
      return true;
    }
    for (;;) {
      c.skip_ws();
      if (!parse_string(c, error)) return false;
      c.skip_ws();
      if (c.eof() || *c.p != ':') {
        if (error) *error = "expected ':'";
        return false;
      }
      ++c.p;
      if (!parse_value(c, depth + 1, error)) return false;
      c.skip_ws();
      if (!c.eof() && *c.p == ',') {
        ++c.p;
        continue;
      }
      if (!c.eof() && *c.p == '}') {
        ++c.p;
        return true;
      }
      if (error) *error = "expected ',' or '}'";
      return false;
    }
  }
  if (ch == '[') {
    ++c.p;
    c.skip_ws();
    if (!c.eof() && *c.p == ']') {
      ++c.p;
      return true;
    }
    for (;;) {
      if (!parse_value(c, depth + 1, error)) return false;
      c.skip_ws();
      if (!c.eof() && *c.p == ',') {
        ++c.p;
        continue;
      }
      if (!c.eof() && *c.p == ']') {
        ++c.p;
        return true;
      }
      if (error) *error = "expected ',' or ']'";
      return false;
    }
  }
  if (ch == '"') return parse_string(c, error);
  if (ch == 't') return parse_literal(c, "true", error);
  if (ch == 'f') return parse_literal(c, "false", error);
  if (ch == 'n') return parse_literal(c, "null", error);
  return parse_number(c, error);
}

}  // namespace

bool json_well_formed(const std::string& text, std::string* error) {
  JsonCursor c{text.data(), text.data() + text.size()};
  if (!parse_value(c, 0, error)) return false;
  c.skip_ws();
  if (!c.eof()) {
    if (error) *error = "trailing bytes after JSON value";
    return false;
  }
  return true;
}

}  // namespace citroen::obs
