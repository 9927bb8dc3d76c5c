// Instability-gated serving across TWO processes — the paper's embedding-
// server scenario, over the wire.
//
// By default this example forks: the child process builds the synthetic
// three-version demo store (v1 live, v2-good a routine refresh, v3-bad a
// botched one) and serves it with net::Server on an ephemeral loopback
// port; the parent connects with net::Client and walks the whole serving
// surface — ping, batched id/word lookups (OOV synthesis included), a
// rejected and an admitted gated promotion, stats, and a remote shutdown.
// Every lookup the parent makes is answered by the server's LookupService
// on the connection's own handler thread.
//
// Against an already-running daemon (e.g. started by CI or by hand):
//   anchor_served --demo --port 7411 &
//   serve_rpc_demo --connect 127.0.0.1:7411 --shutdown
//
// Build & run:  ./build/examples/serve_rpc_demo
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/demo_store.hpp"
#include "util/table.hpp"

namespace {

using namespace anchor;

/// Child: serve the demo store until the parent sends kShutdown; report
/// the ephemeral port through `port_fd`.
int run_server_child(int port_fd) {
  serve::EmbeddingStore store;
  serve::add_demo_versions(store);

  net::ServerConfig config;  // ephemeral port, default gate thresholds
  net::Server server(store, config);
  server.start();

  const std::uint16_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) return 1;
  ::close(port_fd);

  while (!server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.stop();
  return 0;
}

/// Parent / --connect mode: the actual demo, against whatever daemon is
/// at host:port. Returns true when every shape check passed.
bool run_client(const std::string& host, std::uint16_t port,
                bool send_shutdown) {
  net::Client client(host, port);
  client.ping();
  std::cout << "connected to " << host << ":" << port << " (ping ok)\n\n";

  const auto before = client.lookup_ids({0, 1, 2});
  std::cout << "lookup_ids({0,1,2}) served by version '" << before.version
            << "', dim=" << before.dim << "\n";

  const std::vector<std::string> words = {"w3", "w7", "quux-unseen"};
  const auto word_result = client.lookup_words(words);
  bool oov_ok = !word_result.oov[0] && !word_result.oov[1];
  std::cout << "lookup_words: ";
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::cout << words[i] << (word_result.oov[i] ? " (oov-synthesized) " : " (in-vocab) ");
  }
  oov_ok = oov_ok && word_result.oov[2];
  std::cout << "\n\n";

  // The gate, over RPC: the botched refresh must bounce, the routine one
  // must go live — same decisions the in-process example makes, now made
  // by the daemon for an out-of-process consumer.
  TextTable table({"candidate", "eis", "1-knn", "decision", "promoted"});
  const auto bad = client.try_promote("v3-bad");
  table.add_row({"v3-bad", format_double(bad.eis, 4),
                 format_double(bad.one_minus_knn, 4),
                 serve::decision_name(bad.decision), bad.promoted ? "yes" : "no"});
  const auto good = client.try_promote("v2-good");
  table.add_row({"v2-good", format_double(good.eis, 4),
                 format_double(good.one_minus_knn, 4),
                 serve::decision_name(good.decision),
                 good.promoted ? "yes" : "no"});
  table.print(std::cout);

  bool unknown_rejected = false;
  try {
    client.try_promote("no-such-version");
  } catch (const net::RpcError& e) {
    unknown_rejected = true;
    std::cout << "\ntry_promote(no-such-version) → RpcError: " << e.what()
              << "\n";
  }

  const auto after = client.lookup_ids({0, 1, 2});
  const auto stats = client.stats();
  std::cout << "\nnow serving from '" << after.version << "'\n"
            << "server stats: live=" << stats.live_version
            << " encoding=" << stats.encoding
            << "\n  service: " << stats.service.summary() << "\n";

  if (send_shutdown) {
    client.shutdown_server();
    std::cout << "sent shutdown; daemon acknowledged\n";
  }

  const bool ok = !bad.promoted && bad.decision == serve::GateDecision::kReject &&
                  good.promoted && after.version == "v2-good" &&
                  before.version == "v1" && oov_ok && unknown_rejected &&
                  stats.service.lookups > 0;
  std::cout << "\n[shape] " << (ok ? "PASS" : "FAIL")
            << "  RPC gate rejects the botched refresh, promotes the "
               "routine one, and lookups follow the hot swap\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  bool send_shutdown = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "--shutdown") {
      send_shutdown = true;
    } else {
      std::cerr << "usage: serve_rpc_demo [--connect host:port] [--shutdown]\n";
      return 2;
    }
  }

  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    int port = -1;
    if (colon != std::string::npos) {
      try {
        port = std::stoi(connect.substr(colon + 1));
      } catch (const std::exception&) {
        port = -1;
      }
    }
    if (colon == std::string::npos || port < 1 || port > 65535) {
      std::cerr << "--connect expects host:port (port in [1, 65535])\n";
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    return run_client(host, static_cast<std::uint16_t>(port), send_shutdown)
               ? 0
               : 1;
  }

  // Self-contained mode: serve from a forked child so the lookups really
  // cross a process boundary.
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    std::cerr << "pipe failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  const pid_t child = ::fork();
  if (child < 0) {
    std::cerr << "fork failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  if (child == 0) {
    ::close(pipe_fds[0]);
    ::_exit(run_server_child(pipe_fds[1]));
  }
  ::close(pipe_fds[1]);

  std::uint16_t port = 0;
  const ssize_t got = ::read(pipe_fds[0], &port, sizeof(port));
  ::close(pipe_fds[0]);
  if (got != sizeof(port)) {
    std::cerr << "server child died before reporting its port\n";
    ::waitpid(child, nullptr, 0);
    return 1;
  }
  std::cout << "server child pid " << child << " listening on 127.0.0.1:"
            << port << "\n";

  bool ok = false;
  try {
    ok = run_client("127.0.0.1", port, /*send_shutdown=*/true);
  } catch (const std::exception& e) {
    std::cerr << "client error: " << e.what() << "\n";
    // The shutdown RPC never went out; the child would serve forever and
    // waitpid below would hang. Kill it so the demo fails fast instead.
    ::kill(child, SIGTERM);
  }

  int status = 0;
  ::waitpid(child, &status, 0);
  const bool child_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!child_ok) std::cerr << "server child exited abnormally\n";
  return ok && child_ok ? 0 : 1;
}
