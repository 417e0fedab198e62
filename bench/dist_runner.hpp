#pragma once
// A localhost peer fleet for the bench gates.
//
// Every evaluator stack builds its worker pool through
// dist::make_worker_pool (src/dist/pool.hpp), whose socket peers come
// from CITROEN_PEERS. CITROEN_DIST=1 without CITROEN_PEERS makes a gate
// fork a small localhost fleet itself (LocalPeerFleet below) and export
// its endpoints, so `CITROEN_DIST=1 ./ext_determinism` is self-contained.
// Results are byte-identical with the peers on, off, dying mid-job, or
// fully browned out — only where the pure work runs changes.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "dist/peer.hpp"
#include "support/env.hpp"

namespace citroen::bench {

/// A fleet of forked localhost peers on Unix sockets under /tmp. The
/// destructor SIGKILLs, reaps and unlinks — peers hold no state worth a
/// graceful goodbye (that is the whole point of the design).
class LocalPeerFleet {
 public:
  explicit LocalPeerFleet(int n, dist::PeerOptions options = {}) {
    for (int i = 0; i < n; ++i) {
      char path[128];
      std::snprintf(path, sizeof(path), "/tmp/citroen_peer_%d_%d_%d.sock",
                    static_cast<int>(::getpid()), next_fleet_id(), i);
      std::string error;
      const pid_t pid = dist::spawn_peer(path, options, &error);
      if (pid < 0) {
        std::fprintf(stderr, "dist fleet: %s\n", error.c_str());
        continue;
      }
      pids_.push_back(pid);
      paths_.push_back(path);
      endpoints_.push_back(std::string("unix:") + path);
    }
  }

  ~LocalPeerFleet() {
    for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
    for (const pid_t pid : pids_) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    for (const auto& p : paths_) ::unlink(p.c_str());
  }

  LocalPeerFleet(const LocalPeerFleet&) = delete;
  LocalPeerFleet& operator=(const LocalPeerFleet&) = delete;

  const std::vector<std::string>& endpoints() const { return endpoints_; }
  const std::vector<pid_t>& pids() const { return pids_; }

  std::string endpoints_csv() const {
    std::string out;
    for (const auto& e : endpoints_) {
      if (!out.empty()) out += ',';
      out += e;
    }
    return out;
  }

 private:
  static int next_fleet_id() {
    static int counter = 0;
    return counter++;
  }

  std::vector<pid_t> pids_;
  std::vector<std::string> paths_;
  std::vector<std::string> endpoints_;
};

/// When CITROEN_DIST=1 and CITROEN_PEERS is unset, fork a local fleet
/// and export its endpoints through CITROEN_PEERS so every worker pool
/// built later in the process finds it. Call once near the top of main;
/// keep the returned fleet alive for the whole run.
inline std::unique_ptr<LocalPeerFleet> make_local_fleet_if_needed(int n = 2) {
  if (!support::env_flag("CITROEN_DIST") ||
      std::getenv("CITROEN_PEERS") != nullptr)
    return nullptr;
  auto fleet = std::make_unique<LocalPeerFleet>(n);
  if (fleet->endpoints().empty()) return nullptr;
  ::setenv("CITROEN_PEERS", fleet->endpoints_csv().c_str(), 1);
  return fleet;
}

}  // namespace citroen::bench
