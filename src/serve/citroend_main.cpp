// citroend — the tuning-as-a-service daemon.
//
//   citroend --socket /tmp/citroend.sock --state-dir /var/lib/citroend
//            [--resume] [--tcp-port N] [--max-jobs N]
//            [--tenant-jobs N] [--tenant-evals N] [--quantum N]
//            [--drain-deadline SECONDS]
//            [--peers LIST] [--cache-dir DIR] [--corpus-dir DIR]
//
// --peers takes a comma-separated endpoint list (unix:/path or ip:port)
// of citroen-peer processes to farm measurements to; a peer pool that
// browns out degrades to local evaluation with byte-identical results.
// --cache-dir enables the prefix cache's persistent disk tier there.
// --corpus-dir enables the cross-program transfer corpus there (falls
// back to $CITROEN_CORPUS): fresh citroen jobs warm-start from it and
// finished ones append their winners.
//
// Exit status follows the persist taxonomy: 0 when every job completed,
// 75 when a drain checkpointed resumable work (restart with --resume to
// pick it up), 1 on setup failure.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "dist/pool.hpp"
#include "serve/server.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH --state-dir DIR [--resume] [--tcp-port N]\n"
      "          [--max-jobs N] [--tenant-jobs N] [--tenant-evals N]\n"
      "          [--quantum N] [--drain-deadline SECONDS]\n"
      "          [--peers ENDPOINT[,ENDPOINT...]] [--cache-dir DIR]\n"
      "          [--corpus-dir DIR]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  citroen::serve::ServerConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--socket" && i + 1 < argc) {
      cfg.socket_path = argv[++i];
    } else if (s == "--state-dir" && i + 1 < argc) {
      cfg.state_dir = argv[++i];
    } else if (s == "--resume") {
      cfg.resume = true;
    } else if (s == "--tcp-port" && i + 1 < argc) {
      cfg.tcp_port = std::atoi(argv[++i]);
    } else if (s == "--max-jobs" && i + 1 < argc) {
      cfg.quotas.max_jobs_total = std::atoi(argv[++i]);
    } else if (s == "--tenant-jobs" && i + 1 < argc) {
      cfg.quotas.default_quota.max_jobs = std::atoi(argv[++i]);
    } else if (s == "--tenant-evals" && i + 1 < argc) {
      cfg.quotas.default_quota.max_evals =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (s == "--quantum" && i + 1 < argc) {
      cfg.drr_quantum = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (s == "--drain-deadline" && i + 1 < argc) {
      cfg.drain_deadline_seconds = std::atof(argv[++i]);
    } else if (s == "--peers" && i + 1 < argc) {
      cfg.peers = citroen::dist::parse_peer_list(argv[++i]);
    } else if (s == "--cache-dir" && i + 1 < argc) {
      cfg.cache_dir = argv[++i];
    } else if (s == "--corpus-dir" && i + 1 < argc) {
      cfg.corpus_dir = argv[++i];
    } else if (s == "--help" || s == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", s.c_str());
      usage(argv[0]);
      return 1;
    }
  }
  if (cfg.socket_path.empty() || cfg.state_dir.empty()) {
    usage(argv[0]);
    return 1;
  }
  citroen::serve::Server server(std::move(cfg));
  return server.run();
}
