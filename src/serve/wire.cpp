#include "serve/wire.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/trace.hpp"  // json_escape
#include "persist/codec.hpp"

namespace citroen::serve {

namespace {

void expect_tag(persist::Reader& r, MsgType t) {
  const auto got = static_cast<MsgType>(r.u8());
  if (got != t)
    throw std::runtime_error("unexpected message tag " +
                             std::to_string(static_cast<int>(got)));
}

void put_spec(persist::Writer& w, const JobSpec& s) {
  w.str(s.program);
  w.str(s.machine);
  w.str(s.method);
  w.u32(s.budget);
  w.u64(s.seed);
}

JobSpec get_spec(persist::Reader& r) {
  JobSpec s;
  s.program = r.str();
  s.machine = r.str();
  s.method = r.str();
  s.budget = r.u32();
  s.seed = r.u64();
  return s;
}

/// Shared decode scaffolding: tag check, body, trailing-bytes check,
/// exception -> (false, error).
template <class Body>
bool decode_with(const std::string& payload, MsgType t, std::string* error,
                 Body body) {
  try {
    persist::Reader r(payload);
    expect_tag(r, t);
    body(r);
    if (!r.at_end()) throw std::runtime_error("trailing bytes");
    return true;
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return false;
  }
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::Hello: return "hello";
    case MsgType::Submit: return "submit";
    case MsgType::Attach: return "attach";
    case MsgType::Cancel: return "cancel";
    case MsgType::Inspect: return "inspect";
    case MsgType::HelloOk: return "hello_ok";
    case MsgType::Accept: return "accept";
    case MsgType::Reject: return "reject";
    case MsgType::Status: return "status";
    case MsgType::Progress: return "progress";
    case MsgType::Result: return "result";
    case MsgType::InspectOk: return "inspect_ok";
  }
  return "unknown";
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::OverTenantJobs: return "over-tenant-jobs";
    case RejectReason::OverTenantBudget: return "over-tenant-budget";
    case RejectReason::OverCapacity: return "over-capacity";
    case RejectReason::Draining: return "draining";
    case RejectReason::BadRequest: return "bad-request";
    case RejectReason::UnknownJob: return "unknown-job";
  }
  return "unknown";
}

bool reject_is_transient(RejectReason r) {
  switch (r) {
    case RejectReason::OverTenantJobs:
    case RejectReason::OverTenantBudget:
    case RejectReason::OverCapacity:
      return true;
    case RejectReason::Draining:
    case RejectReason::BadRequest:
    case RejectReason::UnknownJob:
      return false;
  }
  return false;
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
  }
  return "unknown";
}

std::uint8_t peek_type(const std::string& payload) {
  return payload.empty() ? 0 : static_cast<std::uint8_t>(payload[0]);
}

std::string encode(const HelloMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Hello));
  w.str(m.tenant);
  w.u32(m.version);
  return w.take();
}

std::string encode(const SubmitMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Submit));
  put_spec(w, m.spec);
  return w.take();
}

std::string encode(const AttachMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Attach));
  w.u64(m.job_id);
  return w.take();
}

std::string encode(const CancelMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Cancel));
  w.u64(m.job_id);
  return w.take();
}

std::string encode(const HelloOkMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::HelloOk));
  w.b(m.draining);
  w.u64(m.epoch);
  return w.take();
}

std::string encode(const AcceptMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Accept));
  w.u64(m.job_id);
  return w.take();
}

std::string encode(const RejectMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Reject));
  w.u8(static_cast<std::uint8_t>(m.reason));
  w.str(m.message);
  w.f64(m.retry_after_seconds);
  return w.take();
}

std::string encode(const StatusMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Status));
  w.u64(m.job_id);
  w.u8(static_cast<std::uint8_t>(m.state));
  w.u64(m.evals_done);
  w.u64(m.budget);
  return w.take();
}

std::string encode(const ProgressMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Progress));
  w.u64(m.job_id);
  w.u64(m.evals_done);
  w.u64(m.budget);
  return w.take();
}

std::string encode(const ResultMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Result));
  w.u64(m.job_id);
  w.u8(static_cast<std::uint8_t>(m.status));
  persist::put(w, m.curve);
  w.str(m.error);
  return w.take();
}

std::string encode(const InspectMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Inspect));
  w.b(m.include_flight);
  return w.take();
}

std::string encode(const InspectOkMsg& m) {
  persist::Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::InspectOk));
  w.u64(m.epoch);
  w.b(m.draining);
  w.u64(m.clients);
  w.u64(m.tenants.size());
  for (const TenantSnap& t : m.tenants) {
    w.str(t.tenant);
    w.u64(t.jobs_in_flight);
    w.u64(t.evals_in_flight);
    w.u64(t.max_jobs);
    w.u64(t.max_evals);
    w.i64(t.drr_deficit);
    w.u64(t.queued_jobs);
    w.u64(t.evals_total);
  }
  w.u64(m.jobs.size());
  for (const JobSnap& j : m.jobs) {
    w.u64(j.id);
    w.str(j.tenant);
    w.u8(static_cast<std::uint8_t>(j.state));
    w.u64(j.evals_done);
    w.u64(j.budget);
  }
  w.u64(m.cache_builds);
  w.u64(m.cache_full_hits);
  w.u64(m.cache_prefix_hits);
  w.u64(m.cache_disk_hits);
  w.u64(m.corpus_entries);
  w.u64(m.corpus_lookups);
  w.u64(m.corpus_hits);
  w.b(m.corpus_writable);
  w.u64(m.peers.size());
  for (const PeerSnap& p : m.peers) {
    w.str(p.endpoint);
    w.b(p.connected);
    w.b(p.banned);
    w.i64(p.consecutive_failures);
    w.i64(p.clock_offset_ns);
  }
  w.u64(m.flight.size());
  for (const FlightSnap& f : m.flight) {
    w.u64(f.seq);
    w.u64(f.ts_ns);
    w.str(f.kind);
    w.u64(f.a);
    w.u64(f.b);
    w.str(f.detail);
  }
  w.u64(m.counters.size());
  for (const auto& [name, v] : m.counters) {
    w.str(name);
    w.u64(v);
  }
  return w.take();
}

bool decode(const std::string& payload, HelloMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Hello, error, [&](persist::Reader& r) {
    m->tenant = r.str();
    m->version = r.u32();
    if (m->tenant.empty()) throw std::runtime_error("empty tenant");
  });
}

bool decode(const std::string& payload, SubmitMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Submit, error, [&](persist::Reader& r) {
    m->spec = get_spec(r);
    if (m->spec.program.empty() || m->spec.method.empty() ||
        m->spec.budget == 0)
      throw std::runtime_error("incomplete job spec");
  });
}

bool decode(const std::string& payload, AttachMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Attach,
                     error, [&](persist::Reader& r) { m->job_id = r.u64(); });
}

bool decode(const std::string& payload, CancelMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Cancel,
                     error, [&](persist::Reader& r) { m->job_id = r.u64(); });
}

bool decode(const std::string& payload, InspectMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Inspect, error,
                     [&](persist::Reader& r) { m->include_flight = r.b(); });
}

bool decode(const std::string& payload, InspectOkMsg* m, std::string* error) {
  return decode_with(payload, MsgType::InspectOk, error,
                     [&](persist::Reader& r) {
    m->epoch = r.u64();
    m->draining = r.b();
    m->clients = r.u64();
    const std::uint64_t n_tenants = r.u64();
    m->tenants.clear();
    for (std::uint64_t i = 0; i < n_tenants; ++i) {
      TenantSnap t;
      t.tenant = r.str();
      t.jobs_in_flight = r.u64();
      t.evals_in_flight = r.u64();
      t.max_jobs = r.u64();
      t.max_evals = r.u64();
      t.drr_deficit = r.i64();
      t.queued_jobs = r.u64();
      t.evals_total = r.u64();
      m->tenants.push_back(std::move(t));
    }
    const std::uint64_t n_jobs = r.u64();
    m->jobs.clear();
    for (std::uint64_t i = 0; i < n_jobs; ++i) {
      JobSnap j;
      j.id = r.u64();
      j.tenant = r.str();
      const auto state = static_cast<JobState>(r.u8());
      if (state < JobState::Queued || state > JobState::Cancelled)
        throw std::runtime_error("unknown job state");
      j.state = state;
      j.evals_done = r.u64();
      j.budget = r.u64();
      m->jobs.push_back(std::move(j));
    }
    m->cache_builds = r.u64();
    m->cache_full_hits = r.u64();
    m->cache_prefix_hits = r.u64();
    m->cache_disk_hits = r.u64();
    m->corpus_entries = r.u64();
    m->corpus_lookups = r.u64();
    m->corpus_hits = r.u64();
    m->corpus_writable = r.b();
    const std::uint64_t n_peers = r.u64();
    m->peers.clear();
    for (std::uint64_t i = 0; i < n_peers; ++i) {
      PeerSnap p;
      p.endpoint = r.str();
      p.connected = r.b();
      p.banned = r.b();
      p.consecutive_failures = r.i64();
      p.clock_offset_ns = r.i64();
      m->peers.push_back(std::move(p));
    }
    const std::uint64_t n_flight = r.u64();
    m->flight.clear();
    for (std::uint64_t i = 0; i < n_flight; ++i) {
      FlightSnap f;
      f.seq = r.u64();
      f.ts_ns = r.u64();
      f.kind = r.str();
      f.a = r.u64();
      f.b = r.u64();
      f.detail = r.str();
      m->flight.push_back(std::move(f));
    }
    const std::uint64_t n_counters = r.u64();
    m->counters.clear();
    for (std::uint64_t i = 0; i < n_counters; ++i) {
      std::string name = r.str();
      const std::uint64_t v = r.u64();
      m->counters.emplace_back(std::move(name), v);
    }
  });
}

bool decode(const std::string& payload, HelloOkMsg* m, std::string* error) {
  return decode_with(payload, MsgType::HelloOk, error,
                     [&](persist::Reader& r) {
                       m->draining = r.b();
                       m->epoch = r.u64();
                     });
}

bool decode(const std::string& payload, AcceptMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Accept,
                     error, [&](persist::Reader& r) { m->job_id = r.u64(); });
}

bool decode(const std::string& payload, RejectMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Reject, error, [&](persist::Reader& r) {
    const auto reason = static_cast<RejectReason>(r.u8());
    if (reason < RejectReason::OverTenantJobs ||
        reason > RejectReason::UnknownJob)
      throw std::runtime_error("unknown reject reason");
    m->reason = reason;
    m->message = r.str();
    m->retry_after_seconds = r.f64();
  });
}

bool decode(const std::string& payload, StatusMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Status, error, [&](persist::Reader& r) {
    m->job_id = r.u64();
    const auto state = static_cast<JobState>(r.u8());
    if (state < JobState::Queued || state > JobState::Cancelled)
      throw std::runtime_error("unknown job state");
    m->state = state;
    m->evals_done = r.u64();
    m->budget = r.u64();
  });
}

bool decode(const std::string& payload, ProgressMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Progress, error,
                     [&](persist::Reader& r) {
                       m->job_id = r.u64();
                       m->evals_done = r.u64();
                       m->budget = r.u64();
                     });
}

bool decode(const std::string& payload, ResultMsg* m, std::string* error) {
  return decode_with(payload, MsgType::Result, error, [&](persist::Reader& r) {
    m->job_id = r.u64();
    const auto status = static_cast<ResultStatus>(r.u8());
    if (status < ResultStatus::Ok || status > ResultStatus::Failed)
      throw std::runtime_error("unknown result status");
    m->status = status;
    persist::get(r, m->curve);
    m->error = r.str();
  });
}

std::string status_json(const InspectOkMsg& m) {
  std::string out;
  char buf[128];
  auto u = [&](std::uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  auto i = [&](std::int64_t v) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  };
  auto s = [&](const std::string& v) {
    out += '"';
    out += obs::json_escape(v);
    out += '"';
  };
  out += "{\"epoch\":";
  u(m.epoch);
  out += ",\"draining\":";
  out += m.draining ? "true" : "false";
  out += ",\"clients\":";
  u(m.clients);
  out += ",\"tenants\":[";
  for (std::size_t k = 0; k < m.tenants.size(); ++k) {
    const TenantSnap& t = m.tenants[k];
    if (k) out += ',';
    out += "{\"tenant\":";
    s(t.tenant);
    out += ",\"jobs_in_flight\":";
    u(t.jobs_in_flight);
    out += ",\"evals_in_flight\":";
    u(t.evals_in_flight);
    out += ",\"max_jobs\":";
    u(t.max_jobs);
    out += ",\"max_evals\":";
    u(t.max_evals);
    out += ",\"drr_deficit\":";
    i(t.drr_deficit);
    out += ",\"queued_jobs\":";
    u(t.queued_jobs);
    out += ",\"evals_total\":";
    u(t.evals_total);
    out += '}';
  }
  out += "],\"jobs\":[";
  for (std::size_t k = 0; k < m.jobs.size(); ++k) {
    const JobSnap& j = m.jobs[k];
    if (k) out += ',';
    out += "{\"id\":";
    u(j.id);
    out += ",\"tenant\":";
    s(j.tenant);
    out += ",\"state\":";
    s(job_state_name(j.state));
    out += ",\"evals_done\":";
    u(j.evals_done);
    out += ",\"budget\":";
    u(j.budget);
    out += '}';
  }
  out += "],\"prefix_cache\":{\"builds\":";
  u(m.cache_builds);
  out += ",\"full_hits\":";
  u(m.cache_full_hits);
  out += ",\"prefix_hits\":";
  u(m.cache_prefix_hits);
  out += ",\"disk_hits\":";
  u(m.cache_disk_hits);
  out += "},\"corpus\":{\"entries\":";
  u(m.corpus_entries);
  out += ",\"lookups\":";
  u(m.corpus_lookups);
  out += ",\"hits\":";
  u(m.corpus_hits);
  out += ",\"writable\":";
  out += m.corpus_writable ? "true" : "false";
  out += "},\"peers\":[";
  for (std::size_t k = 0; k < m.peers.size(); ++k) {
    const PeerSnap& p = m.peers[k];
    if (k) out += ',';
    out += "{\"endpoint\":";
    s(p.endpoint);
    out += ",\"connected\":";
    out += p.connected ? "true" : "false";
    out += ",\"banned\":";
    out += p.banned ? "true" : "false";
    out += ",\"consecutive_failures\":";
    i(p.consecutive_failures);
    out += ",\"clock_offset_ns\":";
    i(p.clock_offset_ns);
    out += '}';
  }
  out += "],\"flight\":[";
  for (std::size_t k = 0; k < m.flight.size(); ++k) {
    const FlightSnap& f = m.flight[k];
    if (k) out += ',';
    out += "{\"seq\":";
    u(f.seq);
    out += ",\"ts_ns\":";
    u(f.ts_ns);
    out += ",\"kind\":";
    s(f.kind);
    out += ",\"a\":";
    u(f.a);
    out += ",\"b\":";
    u(f.b);
    out += ",\"detail\":";
    s(f.detail);
    out += '}';
  }
  out += "],\"counters\":{";
  for (std::size_t k = 0; k < m.counters.size(); ++k) {
    if (k) out += ',';
    s(m.counters[k].first);
    out += ':';
    u(m.counters[k].second);
  }
  out += "}}\n";
  return out;
}

std::string status_text(const InspectOkMsg& m) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "epoch %llu  %s  clients %llu  jobs %zu\n",
                static_cast<unsigned long long>(m.epoch),
                m.draining ? "DRAINING" : "serving",
                static_cast<unsigned long long>(m.clients), m.jobs.size());
  out += buf;
  if (!m.tenants.empty()) out += "tenants:\n";
  for (const TenantSnap& t : m.tenants) {
    std::snprintf(
        buf, sizeof(buf),
        "  %-12s jobs %llu/%llu  evals-in-flight %llu/%llu  deficit %lld"
        "  queued %llu  evals-total %llu\n",
        t.tenant.c_str(), static_cast<unsigned long long>(t.jobs_in_flight),
        static_cast<unsigned long long>(t.max_jobs),
        static_cast<unsigned long long>(t.evals_in_flight),
        static_cast<unsigned long long>(t.max_evals),
        static_cast<long long>(t.drr_deficit),
        static_cast<unsigned long long>(t.queued_jobs),
        static_cast<unsigned long long>(t.evals_total));
    out += buf;
  }
  if (!m.jobs.empty()) out += "jobs:\n";
  for (const JobSnap& j : m.jobs) {
    std::snprintf(buf, sizeof(buf),
                  "  #%-6llu %-12s %-9s %llu/%llu evals\n",
                  static_cast<unsigned long long>(j.id), j.tenant.c_str(),
                  job_state_name(j.state),
                  static_cast<unsigned long long>(j.evals_done),
                  static_cast<unsigned long long>(j.budget));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "prefix-cache: builds %llu  full-hits %llu  disk-hits %llu\n",
                static_cast<unsigned long long>(m.cache_builds),
                static_cast<unsigned long long>(m.cache_full_hits),
                static_cast<unsigned long long>(m.cache_disk_hits));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "corpus: entries %llu  lookups %llu  hits %llu  %s\n",
                static_cast<unsigned long long>(m.corpus_entries),
                static_cast<unsigned long long>(m.corpus_lookups),
                static_cast<unsigned long long>(m.corpus_hits),
                m.corpus_writable ? "writable" : "read-only");
  out += buf;
  if (!m.peers.empty()) out += "peers:\n";
  for (const PeerSnap& p : m.peers) {
    std::snprintf(buf, sizeof(buf),
                  "  %-28s %-12s failures %lld  clock-offset %+lldns\n",
                  p.endpoint.c_str(),
                  p.banned ? "BANNED" : (p.connected ? "connected" : "idle"),
                  static_cast<long long>(p.consecutive_failures),
                  static_cast<long long>(p.clock_offset_ns));
    out += buf;
  }
  if (!m.flight.empty()) {
    std::snprintf(buf, sizeof(buf), "flight recorder (%zu recent):\n",
                  m.flight.size());
    out += buf;
    for (const FlightSnap& f : m.flight) {
      std::snprintf(buf, sizeof(buf), "  #%llu %s a=%llu b=%llu%s%s\n",
                    static_cast<unsigned long long>(f.seq), f.kind.c_str(),
                    static_cast<unsigned long long>(f.a),
                    static_cast<unsigned long long>(f.b),
                    f.detail.empty() ? "" : " ", f.detail.c_str());
      out += buf;
    }
  }
  return out;
}

}  // namespace citroen::serve
