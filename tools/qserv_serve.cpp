// qserv-serve: the real-socket server driver, with zero-downtime hot
// restart.
//
// Runs a ParallelServer over RealUdpTransport (kernel UDP on loopback,
// one listener port per worker thread) and supervises it from the main
// thread. On SIGUSR2 — or --restart-self-after-ms in tests — it performs
// an envoy-style hot restart into a freshly exec'd copy of itself:
//
//   1. bind the unix handoff socket, fork + exec /proc/self/exe with
//      --generation N+1 (the child's heavy init — map generation — runs
//      while the parent keeps serving);
//   2. on the child's HELLO, enter graceful drain (new connects get
//      kServerBusy; existing sessions keep playing);
//   3. stop the frame loop, wait for workers to quiesce, take the final
//      frame-aligned checkpoint;
//   4. pass the bound listener descriptors (SCM_RIGHTS) plus the
//      qserv-ckpt-v2 blob over the handoff socket. Client datagrams keep
//      landing in the kernel socket buffers during the gap — nothing is
//      lost;
//   5. the child adopts the descriptors, restores every session
//      (netchan sequences intact, forced full snapshot on next contact),
//      starts serving, rewrites the pid file and answers READY;
//   6. the parent exits 0.
//
// Failure containment: if the child never connects, dies before READY,
// or its restore fails (it exits without answering), the parent falls
// back — kills the child, rebuilds a server from the very checkpoint it
// tried to hand off, and resumes serving. The fallback path re-binds the
// ports (SO_REUSEADDR), so datagrams queued on the old sockets during
// the attempt are lost — the one path that trades loss for liveness.
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/parallel_server.hpp"
#include "src/net/fd_handoff.hpp"
#include "src/net/real_udp.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/vthread/real_platform.hpp"

namespace {

volatile sig_atomic_t g_restart = 0;
volatile sig_atomic_t g_stop = 0;

void on_sigusr2(int) { g_restart = 1; }
void on_sigterm(int) { g_stop = 1; }

struct Options {
  int threads = 4;
  uint16_t base_port = 27500;
  int max_clients = 512;
  uint64_t map_seed = 7;
  uint32_t checkpoint_interval = 16;
  std::string host = "127.0.0.1";
  std::string pid_file;
  std::string ready_file;
  std::string handoff_sock = "/tmp/qserv-serve.handoff";
  uint32_t generation = 0;
  int64_t restart_self_after_ms = 0;  // tests: restart without a signal
  int64_t run_ms = 0;                 // tests: exit after this long
};

int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void write_file(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream f(path + ".tmp", std::ios::trunc);
  f << text;
  f.close();
  ::rename((path + ".tmp").c_str(), path.c_str());
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--threads" && (v = next()))
      opt.threads = atoi(v);
    else if (a == "--base-port" && (v = next()))
      opt.base_port = static_cast<uint16_t>(atoi(v));
    else if (a == "--max-clients" && (v = next()))
      opt.max_clients = atoi(v);
    else if (a == "--map-seed" && (v = next()))
      opt.map_seed = strtoull(v, nullptr, 10);
    else if (a == "--checkpoint-interval" && (v = next()))
      opt.checkpoint_interval = static_cast<uint32_t>(atoi(v));
    else if (a == "--host" && (v = next()))
      opt.host = v;
    else if (a == "--pid-file" && (v = next()))
      opt.pid_file = v;
    else if (a == "--ready-file" && (v = next()))
      opt.ready_file = v;
    else if (a == "--handoff-sock" && (v = next()))
      opt.handoff_sock = v;
    else if (a == "--generation" && (v = next()))
      opt.generation = static_cast<uint32_t>(atoi(v));
    else if (a == "--restart-self-after-ms" && (v = next()))
      opt.restart_self_after_ms = atoll(v);
    else if (a == "--run-ms" && (v = next()))
      opt.run_ms = atoll(v);
    else {
      fprintf(stderr, "qserv-serve: unknown or incomplete flag %s\n",
              a.c_str());
      return false;
    }
  }
  return opt.threads >= 1;
}

// exec argv for the next generation: original flags, with --generation
// replaced and one-shot test flags dropped (the child must not restart
// itself again or exit on the parent's --run-ms schedule; the driving
// test re-arms what it needs).
std::vector<std::string> child_args(int argc, char** argv,
                                    uint32_t next_gen) {
  std::vector<std::string> out = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--generation" || a == "--restart-self-after-ms") {
      ++i;  // skip value
      continue;
    }
    out.push_back(a);
  }
  out.push_back("--generation");
  out.push_back(std::to_string(next_gen));
  return out;
}

pid_t spawn_next_generation(int argc, char** argv, uint32_t next_gen) {
  const std::vector<std::string> args = child_args(argc, argv, next_gen);
  const pid_t pid = fork();
  if (pid != 0) return pid;
  std::vector<char*> cargs;
  for (const auto& a : args) cargs.push_back(const_cast<char*>(a.c_str()));
  cargs.push_back(nullptr);
  execv("/proc/self/exe", cargs.data());
  _exit(127);
}

std::unique_ptr<qserv::core::ParallelServer> build_server(
    qserv::vt::RealPlatform& platform, qserv::net::RealUdpTransport& net,
    const qserv::spatial::GameMap& map, const Options& opt) {
  qserv::core::ServerConfig scfg;
  scfg.threads = opt.threads;
  scfg.base_port = opt.base_port;
  scfg.max_clients = opt.max_clients;
  scfg.lock_policy = qserv::core::LockPolicy::kOptimized;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_interval = opt.checkpoint_interval;
  return std::make_unique<qserv::core::ParallelServer>(platform, net, map,
                                                       scfg);
}

// The hot-restart sequence. Returns true when the next generation has
// confirmed READY — the caller should exit. On any failure the old
// generation is serving again (rebuilt from the handoff checkpoint if it
// had already stopped) and the caller continues its supervision loop.
bool hot_restart(int argc, char** argv, const Options& opt,
                 qserv::vt::RealPlatform& platform,
                 qserv::net::RealUdpTransport& net,
                 const qserv::spatial::GameMap& map,
                 std::unique_ptr<qserv::core::ParallelServer>& server) {
  fprintf(stderr, "qserv-serve[gen %u]: hot restart requested\n",
          opt.generation);
  qserv::net::HandoffServer handoff(opt.handoff_sock);
  if (!handoff.valid()) {
    fprintf(stderr, "qserv-serve: cannot bind handoff socket %s\n",
            opt.handoff_sock.c_str());
    return false;
  }
  const pid_t child = spawn_next_generation(argc, argv, opt.generation + 1);
  if (child < 0) return false;

  // Overlap window: the child generates its map while we keep serving.
  // Drain starts now so the population stops changing shape.
  server->enter_drain();
  if (!handoff.accept_child(/*timeout_ms=*/30'000)) {
    fprintf(stderr, "qserv-serve: next generation never connected\n");
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    server->leave_drain();
    return false;
  }

  // The child is up and asking: stop the frame loop and capture.
  server->request_stop();
  const int64_t quiesce_deadline = now_ms() + 10'000;
  while (server->active_workers() != 0 && now_ms() < quiesce_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (server->active_workers() != 0) {
    fprintf(stderr, "qserv-serve: workers failed to quiesce\n");
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
    g_stop = 1;  // unrecoverable wedge: shut down rather than serve a zombie
    return false;
  }
  const std::vector<uint8_t> ckpt = server->encode_checkpoint_now();

  qserv::net::HandoffPackage pkg;
  pkg.sockets = net.bound_fds();
  pkg.checkpoint = ckpt;
  const bool confirmed =
      handoff.send_package(pkg) && handoff.wait_ready(/*timeout_ms=*/30'000);
  if (confirmed) {
    fprintf(stderr, "qserv-serve[gen %u]: handed off to pid %d, exiting\n",
            opt.generation, static_cast<int>(child));
    return true;
  }

  // Child died before confirming. Take back the ports and resume from the
  // checkpoint we just took.
  fprintf(stderr,
          "qserv-serve: next generation failed, restoring own state\n");
  ::kill(child, SIGKILL);
  ::waitpid(child, nullptr, 0);
  server.reset();  // releases the ports for the rebind below
  server = build_server(platform, net, map, opt);
  if (server->restore_from(ckpt) != qserv::recovery::LoadError::kNone) {
    fprintf(stderr, "qserv-serve: fallback restore failed, aborting\n");
    abort();  // state is gone either way; fail loudly
  }
  server->start();
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  struct sigaction sa {};
  sa.sa_handler = on_sigusr2;
  sigaction(SIGUSR2, &sa, nullptr);
  sa.sa_handler = on_sigterm;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  qserv::vt::RealPlatform platform;
  const auto map = qserv::spatial::make_large_deathmatch(opt.map_seed);

  // Next generations adopt the previous generation's listener sockets
  // (and state) over the handoff channel before serving.
  qserv::net::RealUdpTransport::Config ncfg;
  ncfg.host = opt.host;
  qserv::net::HandoffClient inherit;
  std::vector<uint8_t> inherited_ckpt;
  if (opt.generation > 0) {
    if (!inherit.connect_to(opt.handoff_sock, opt.generation,
                            /*timeout_ms=*/10'000)) {
      fprintf(stderr, "qserv-serve[gen %u]: handoff connect failed\n",
              opt.generation);
      return 3;
    }
    qserv::net::HandoffPackage pkg;
    if (!inherit.recv_package(pkg, /*timeout_ms=*/60'000)) {
      fprintf(stderr, "qserv-serve[gen %u]: handoff package failed\n",
              opt.generation);
      return 3;
    }
    for (const auto& [port, fd] : pkg.sockets) ncfg.adopted_fds[port] = fd;
    inherited_ckpt = std::move(pkg.checkpoint);
  }

  qserv::net::RealUdpTransport net(platform, ncfg);
  auto server = build_server(platform, net, map, opt);
  if (!inherited_ckpt.empty()) {
    const auto err = server->restore_from(inherited_ckpt);
    if (err != qserv::recovery::LoadError::kNone) {
      fprintf(stderr, "qserv-serve[gen %u]: restore failed: %s\n",
              opt.generation, qserv::recovery::load_error_name(err));
      return 4;  // exit without READY; the old generation falls back
    }
  }
  server->start();
  write_file(opt.pid_file, std::to_string(getpid()) + "\n");
  write_file(opt.ready_file,
             "generation " + std::to_string(opt.generation) + "\n");
  if (opt.generation > 0 && !inherit.send_ready()) {
    fprintf(stderr, "qserv-serve[gen %u]: READY send failed\n",
            opt.generation);
  }
  fprintf(stderr,
          "qserv-serve[gen %u]: pid %d serving %d threads on ports "
          "%u..%u\n",
          opt.generation, static_cast<int>(getpid()), opt.threads,
          opt.base_port, opt.base_port + opt.threads - 1);

  const int64_t started = now_ms();
  int64_t restart_at =
      opt.restart_self_after_ms > 0 ? started + opt.restart_self_after_ms : 0;
  bool handed_off = false;
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (opt.run_ms > 0 && now_ms() - started >= opt.run_ms) break;
    if (g_restart || (restart_at > 0 && now_ms() >= restart_at)) {
      g_restart = 0;
      restart_at = 0;
      if (hot_restart(argc, argv, opt, platform, net, map, server)) {
        handed_off = true;
        break;
      }
    }
  }

  server->request_stop();
  server.reset();
  platform.join_all();
  if (!handed_off && !opt.pid_file.empty())
    ::unlink(opt.pid_file.c_str());
  return 0;
}
