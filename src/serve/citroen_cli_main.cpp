// citroen-cli — command-line client for citroend.
//
//   citroen-cli submit --socket PATH --tenant NAME --program NAME
//               [--machine M] [--method M] [--budget N] [--seed N] [--wait]
//   citroen-cli attach --socket PATH --tenant NAME --job ID
//   citroen-cli cancel --socket PATH --tenant NAME --job ID
//   citroen-cli ping   --socket PATH [--tenant NAME]
//   citroen-cli status --socket PATH [--json] [--watch [--interval S]]
//               [--expect-epoch N]
//
// status renders a live Inspect snapshot of the daemon (tenants, jobs,
// cache/corpus health, peer pool, flight recorder). --json emits the
// machine form (strict JSON, one object); --watch redraws every
// --interval seconds until interrupted. --expect-epoch exits non-zero
// when the daemon's restart counter is not the expected one (a restarted
// daemon is a different incarnation with different in-memory state).
//
// submit prints "job <id>" on admission (and with --wait, the final
// speedup curve, one %.17g per line — bit-exact for byte-comparison
// against a serial replay). attach re-joins an accepted job by id, which
// works across daemon restarts. Transient failures (daemon restarting,
// over-quota rejects) are retried with exponential backoff + jitter.

#include <time.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/client.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s {submit|attach|cancel|ping|status} --socket PATH\n"
               "  common:  --tenant NAME (default 'default')\n"
               "  submit:  --program NAME [--machine M] [--method M]\n"
               "           [--budget N] [--seed N] [--wait] [--timeout S]\n"
               "  attach:  --job ID [--timeout S]\n"
               "  cancel:  --job ID\n"
               "  status:  [--json] [--watch [--interval S]] "
               "[--expect-epoch N]\n",
               argv0);
}

int print_outcome(const citroen::serve::JobOutcome& out) {
  using citroen::serve::ResultStatus;
  switch (out.status) {
    case ResultStatus::Ok:
      for (const double v : out.curve) std::printf("%.17g\n", v);
      return 0;
    case ResultStatus::Cancelled:
      std::fprintf(stderr, "job %" PRIu64 " cancelled (%zu evals kept)\n",
                   out.job_id, out.curve.size());
      return 0;
    case ResultStatus::Failed:
      std::fprintf(stderr, "job %" PRIu64 " failed: %s\n", out.job_id,
                   out.error.c_str());
      return 1;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(argv[0]);
    return 1;
  }
  const std::string verb = argv[1];
  citroen::serve::ClientConfig cfg;
  citroen::serve::JobSpec spec;
  std::uint64_t job_id = 0;
  bool wait = false;
  double timeout = 300.0;
  bool as_json = false;
  bool watch = false;
  double interval = 1.0;
  bool have_expect_epoch = false;
  std::uint64_t expect_epoch = 0;

  for (int i = 2; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--socket" && i + 1 < argc) {
      cfg.socket_path = argv[++i];
    } else if (s == "--tenant" && i + 1 < argc) {
      cfg.tenant = argv[++i];
    } else if (s == "--program" && i + 1 < argc) {
      spec.program = argv[++i];
    } else if (s == "--machine" && i + 1 < argc) {
      spec.machine = argv[++i];
    } else if (s == "--method" && i + 1 < argc) {
      spec.method = argv[++i];
    } else if (s == "--budget" && i + 1 < argc) {
      spec.budget = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (s == "--seed" && i + 1 < argc) {
      spec.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (s == "--job" && i + 1 < argc) {
      job_id = std::strtoull(argv[++i], nullptr, 0);
    } else if (s == "--wait") {
      wait = true;
    } else if (s == "--timeout" && i + 1 < argc) {
      timeout = std::atof(argv[++i]);
    } else if (s == "--json") {
      as_json = true;
    } else if (s == "--watch") {
      watch = true;
    } else if (s == "--interval" && i + 1 < argc) {
      interval = std::atof(argv[++i]);
    } else if (s == "--expect-epoch" && i + 1 < argc) {
      have_expect_epoch = true;
      expect_epoch = std::strtoull(argv[++i], nullptr, 0);
    } else if (s == "--help" || s == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", s.c_str());
      usage(argv[0]);
      return 1;
    }
  }
  if (cfg.socket_path.empty()) {
    usage(argv[0]);
    return 1;
  }

  citroen::serve::Client client(cfg);

  if (verb == "ping") {
    if (!client.connect()) {
      std::fprintf(stderr, "ping failed: %s\n", client.error().c_str());
      return 1;
    }
    std::printf("ok epoch=%" PRIu64 "%s\n", client.epoch(),
                client.draining() ? " (draining)" : "");
    return 0;
  }

  if (verb == "status") {
    for (;;) {
      const auto snap = client.inspect();
      if (!snap) {
        // A typed Reject (version skew: "protocol version mismatch:
        // client vX, daemon vY") or transport failure — either way the
        // snapshot is not from the daemon you asked about.
        std::fprintf(stderr, "status failed: %s\n", client.error().c_str());
        return 1;
      }
      if (have_expect_epoch && snap->epoch != expect_epoch) {
        std::fprintf(stderr,
                     "status failed: daemon epoch %" PRIu64
                     " != expected %" PRIu64
                     " (daemon restarted; in-memory state reset)\n",
                     snap->epoch, expect_epoch);
        return 1;
      }
      if (watch && !as_json) std::printf("\033[H\033[2J");
      const std::string body = as_json ? citroen::serve::status_json(*snap)
                                       : citroen::serve::status_text(*snap);
      std::fwrite(body.data(), 1, body.size(), stdout);
      std::fflush(stdout);
      if (!watch) return 0;
      timespec ts;
      ts.tv_sec = static_cast<time_t>(interval);
      ts.tv_nsec =
          static_cast<long>((interval - static_cast<time_t>(interval)) * 1e9);
      ::nanosleep(&ts, nullptr);
    }
  }

  if (verb == "submit") {
    if (spec.program.empty()) {
      usage(argv[0]);
      return 1;
    }
    const auto id = client.submit(spec, timeout);
    if (!id) {
      std::fprintf(stderr, "submit failed: %s\n", client.error().c_str());
      return 1;
    }
    std::fprintf(stderr, "job %" PRIu64 "\n", *id);
    if (!wait) return 0;
    return print_outcome(client.wait_result(*id, timeout));
  }

  if (verb == "attach") {
    if (job_id == 0) {
      usage(argv[0]);
      return 1;
    }
    return print_outcome(client.wait_result(job_id, timeout));
  }

  if (verb == "cancel") {
    if (job_id == 0) {
      usage(argv[0]);
      return 1;
    }
    if (!client.cancel(job_id)) {
      std::fprintf(stderr, "cancel failed: %s\n", client.error().c_str());
      return 1;
    }
    const auto out = client.wait_result(job_id, timeout);
    return print_outcome(out);
  }

  usage(argv[0]);
  return 1;
}
