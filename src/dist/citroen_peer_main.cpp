// citroen-peer: standalone evaluation peer for the distributed pool.
//
// Serves pure-evaluation jobs over a Unix or TCP socket using the
// sandbox wire format (see src/dist/peer.hpp). A pool (citroend with
// --peers, or any WorkerPool) connects, sends a Hello naming the
// program spec, and farms out measurement jobs; the peer holds no
// order-sensitive state, so killing it mid-job never changes results.
//
// Usage:
//   citroen-peer --socket /tmp/peer0.sock
//   citroen-peer --tcp-port 7070         # 0 = kernel-assigned (printed)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "dist/peer.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket <path> | --tcp-port <port>)\n"
               "  --socket <path>    listen on a Unix socket at <path>\n"
               "  --tcp-port <port>  listen on 127.0.0.1:<port> (0 = pick;\n"
               "                     the chosen port is printed to stdout)\n"
               "  --idle-timeout <s> exit after <s> idle seconds per\n"
               "                     connection (default: wait forever)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  citroen::dist::PeerOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp-port" && i + 1 < argc) {
      tcp_port = std::atoi(argv[++i]);
    } else if (arg == "--idle-timeout" && i + 1 < argc) {
      options.read_timeout_seconds = std::atof(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() == (tcp_port < 0)) return usage(argv[0]);

  std::string error;
  int listen_fd = -1;
  if (!socket_path.empty()) {
    listen_fd = citroen::dist::listen_unix(socket_path, &error);
  } else {
    listen_fd = citroen::dist::listen_tcp(&tcp_port, &error);
    if (listen_fd >= 0) {
      std::printf("%d\n", tcp_port);
      std::fflush(stdout);
    }
  }
  if (listen_fd < 0) {
    std::fprintf(stderr, "citroen-peer: %s\n", error.c_str());
    return 1;
  }
  return citroen::dist::peer_serve(listen_fd, options);
}
