// perfbench: host-time benchmark of the qserv game server.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// Runs one workload in-process: the server on RealPlatform over its real
// transport, driven by the open-loop generator in generator.hpp, through
// public API only. It prints every metric by name and unit, then, as the
// last line, one JSON object {correct, attempted, failed, metrics}. Any
// failed output check makes the exit code 1; a run past its wall-clock
// deadline prints where it was and exits with 3.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs an untraced
// pass and then a traced pass (decorated platform and transport, a frame
// hook, spans) and reports the per-layer metrics, with the traced pass's
// overhead over the untraced one.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "generator.hpp"
#include "probes.hpp"
#include "src/core/invariant_checker.hpp"
#include "src/core/parallel_server.hpp"
#include "src/core/sequential_server.hpp"
#include "src/net/real_udp.hpp"
#include "src/net/virtual_udp.hpp"
#include "src/recovery/checkpoint.hpp"
#include "src/spatial/map_gen.hpp"
#include "src/util/rng.hpp"
#include "src/vthread/real_platform.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace core = qserv::core;
namespace net = qserv::net;
namespace vt = qserv::vt;

// ---------------------------------------------------------------------------
// Workloads. Why each exists is recorded in NOTES.md.

struct Workload {
  const char* name;
  bool parallel;  // ParallelServer, else SequentialServer
  int threads;
  core::LockPolicy lock_policy;
  bool recovery;  // recovery as qserv-serve enables it
  bool udp;       // RealUdpTransport on loopback, else VirtualNetwork
  int players;
  bool burst;     // every move of a tick due at the same instant
};

constexpr Workload kWorkloads[] = {
    {"serve-udp-160", true, 2, core::LockPolicy::kOptimized, true, true, 160,
     false},
    {"seq-384", false, 1, core::LockPolicy::kNone, false, false, 384, false},
    {"seq-burst-384", false, 1, core::LockPolicy::kNone, false, false, 384,
     true},
};

constexpr uint64_t kMapSeed = 7;
constexpr int64_t kPeriodNs = 33'000'000;   // 30 Hz players
// Players' phases are dealt afresh about once a second: which players'
// moves land next to each other (and on which server thread) shifts the
// tail by tens of percent, so a run averages over layouts.
constexpr uint64_t kTicksPerLayout = 30;
constexpr int64_t kWarmupNs = 1'500'000'000;
// Past the window, in-window moves get this long to resolve (more than
// the 50 ms failure limit).
constexpr int64_t kGraceNs = 120'000'000;
constexpr int64_t kSettleLimitNs = 30'000'000'000;
constexpr int kSetupRepeats = 5;  // set-up time is the median of these
constexpr int64_t kSliceNs = 250'000'000;  // percentile slices
// Generator validity: a run whose generator sent late or ran out of CPU
// measured the generator, not the server.
constexpr double kMaxLagP99Ms = 10.0;
constexpr double kMaxGenCpuShare = 0.9;
constexpr uint16_t kVirtualClientPort = 40000;
// A window counts as quiet when the host probe's wake-up lateness p99 (the
// median over its slices) is at most this; a pass measures up to
// kMaxWindows windows back to back until one is quiet, within a wall-clock
// budget that keeps the whole run under its deadline.
constexpr double kQuietHostMs = 0.15;
constexpr int kMaxWindows = 3;
constexpr int64_t kRunBudgetS = 150;
constexpr int64_t kPassOverheadS = 8;  // set-ups, warm-up, drain, teardown

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;
  int windows = 1;  // measurement windows a pass may try
};

// ---------------------------------------------------------------------------
// Run deadline: past it the run reports its stage and thread states and
// exits non-zero, so no run can hang.

class Deadline {
 public:
  void arm(int64_t seconds) {
    limit_ns_ = seconds * 1'000'000'000;
    thread_ = std::thread([this] { watch(); });
  }
  ~Deadline() {
    {
      std::lock_guard<std::mutex> g(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void stage(const char* s) {
    std::lock_guard<std::mutex> g(mu_);
    stage_ = s;
  }
  void watch_objects(const Generator* gen, const core::Server* server) {
    std::lock_guard<std::mutex> g(mu_);
    gen_ = gen;
    server_ = server;
  }
  clockid_t cpu_clock() const { return cpu_clock_; }

 private:
  void watch() {
    cpu_clock_ = this_thread_cpu_clock();
    std::unique_lock<std::mutex> g(mu_);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(limit_ns_);
    if (cv_.wait_until(g, until, [this] { return done_; })) return;
    std::fprintf(stderr, "perfbench: deadline of %.0f s passed in stage '%s'\n",
                 static_cast<double>(limit_ns_) * 1e-9, stage_);
    if (gen_ != nullptr) {
      std::fprintf(stderr,
                   "  generator thread: %s, %d/%d connected, %d settled, "
                   "last loop %.1f ms ago\n",
                   gen_->running() ? "running" : "not running",
                   gen_->connected(), gen_->players(), gen_->settled(),
                   static_cast<double>(mono_ns() - gen_->last_loop_ns()) * 1e-6);
    }
    if (server_ != nullptr) {
      std::fprintf(stderr,
                   "  server: %d worker thread(s) in their loops, frame %llu, "
                   "stop %s, %d clients connected\n",
                   server_->active_workers(),
                   static_cast<unsigned long long>(server_->frames()),
                   server_->stop_requested() ? "requested" : "not requested",
                   server_->connected_clients());
    }
    std::fprintf(stderr, "  main thread: in stage '%s'\n", stage_);
    std::fflush(stderr);
    std::fflush(stdout);
    std::_Exit(3);
  }

  int64_t limit_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  const char* stage_ = "start";
  const Generator* gen_ = nullptr;
  const core::Server* server_ = nullptr;
  std::atomic<clockid_t> cpu_clock_{};
  std::thread thread_;
};

Deadline g_deadline;

// ---------------------------------------------------------------------------
// UDP ports for the server. RealUdpTransport binds with SO_REUSEPORT, so a
// second process bound to the same port would silently take part of the
// traffic. A candidate block is first bound exclusively (no SO_REUSEPORT),
// which fails if any live socket holds one of its ports; then the
// transport binds it. Either failing moves to the next candidate.

bool port_block_free(uint16_t base, int count) {
  std::vector<int> fds;
  bool ok = true;
  for (int i = 0; i < count && ok; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      ok = false;
      break;
    }
    fds.push_back(fd);
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = htons(static_cast<uint16_t>(base + i));
    ok = ::bind(fd, reinterpret_cast<const sockaddr*>(&a), sizeof(a)) == 0;
  }
  for (const int fd : fds) ::close(fd);
  return ok;
}

std::optional<uint16_t> bind_server_ports(BenchTransport& bt, int count) {
  std::random_device rd;  // ports are not workload input
  std::uniform_int_distribution<int> pick(20000, 32000 - count);
  for (int attempt = 0; attempt < 256; ++attempt) {
    const auto base = static_cast<uint16_t>(pick(rd));
    if (port_block_free(base, count) && bt.bind_ports(base, count))
      return base;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// One server + generator set-up, torn down in reverse order.

struct ServerSample {
  core::Breakdown breakdown;
  core::LockStats locks;
  uint64_t frames = 0, requests = 0, replies = 0;
  net::TransportCounters net;
  uint64_t gen_overflow = 0;
  ProbeTotals probes;
  int64_t process_cpu = 0, gen_cpu = 0, main_cpu = 0, watchdog_cpu = 0,
          host_probe_cpu = 0;
  int64_t at = 0;
};

class Rig {
 public:
  Rig(const Workload& w, const Options& opt, bool traced) : w_(w), traced_(traced) {
    map_ = std::make_unique<qserv::spatial::GameMap>(
        qserv::spatial::make_large_deathmatch(kMapSeed));
    vt::Platform* sp = real_.get();
    if (traced) {
      traced_platform_ = std::make_unique<TracedPlatform>(*real_);
      sp = traced_platform_.get();
    }
    if (w.udp) {
      udp_ = std::make_unique<net::RealUdpTransport>(
          *real_, net::RealUdpTransport::Config{});
    } else {
      net::VirtualNetwork::Config nc;
      nc.latency = vt::Duration{};
      nc.jitter = vt::Duration{};
      nc.loss = 0.0f;
      nc.socket_buffer = static_cast<size_t>(w.players) * 2;
      vnet_ = std::make_unique<net::VirtualNetwork>(*real_, nc);
    }
    bench_net_ = std::make_unique<BenchTransport>(
        w.udp ? static_cast<net::Transport&>(*udp_) : *vnet_, traced);

    core::ServerConfig cfg;
    cfg.threads = w.threads;
    cfg.lock_policy = w.lock_policy;
    if (w.recovery) {
      cfg.recovery.enabled = true;
      cfg.recovery.checkpoint_interval = 16;
    }
    if (w.udp) {
      const auto base = bind_server_ports(*bench_net_, w.threads);
      if (!base) {
        error_ = "no free UDP port block for the server";
        return;
      }
      cfg.base_port = *base;
    }
    if (w.parallel)
      server_ = std::make_unique<core::ParallelServer>(*sp, *bench_net_, *map_, cfg);
    else
      server_ = std::make_unique<core::SequentialServer>(*sp, *bench_net_, *map_, cfg);
    if (traced) {
      hook_ = std::make_unique<BenchHook>(*server_);
      server_->add_frame_hook(hook_.get());
    }

    if (w.udp) {
      endpoints_ = make_udp_endpoints(*real_, w.players, &error_);
      if (endpoints_ == nullptr) return;
    } else {
      endpoints_ = make_virtual_endpoints(*vnet_, *real_, kVirtualClientPort,
                                          w.players);
    }
    Generator::Config gc;
    for (int i = 0; i < w.players; ++i)
      gc.join_ports.push_back(server_->port_for_client(i, w.players));
    const int players = w.players;
    const uint64_t phase_seed = qserv::derive_seed(opt.seed, 1);
    if (w.burst)
      gc.layout = [players](uint64_t) {
        return OpenLoopSchedule::burst_phases(players);
      };
    else
      gc.layout = [players, phase_seed](uint64_t index) {
        return OpenLoopSchedule::uniform_phases(
            players, kPeriodNs, qserv::derive_seed(phase_seed, index));
      };
    gc.ticks_per_layout = kTicksPerLayout;
    gc.period_ns = kPeriodNs;
    gc.seed = qserv::derive_seed(opt.seed, 2);
    gc.traced = traced;
    gen_ = std::make_unique<Generator>(*real_, *map_, *endpoints_, gc);
    g_deadline.watch_objects(gen_.get(), server_.get());
  }

  ~Rig() {
    g_deadline.watch_objects(nullptr, nullptr);
    stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  const std::string& error() const { return error_; }

  // Starts the server and the generator; true once every player has its
  // first snapshot.
  bool start_and_settle() {
    host_probe_.start();
    server_->start();
    gen_->start();
    const int64_t limit = mono_ns() + kSettleLimitNs;
    while (gen_->settled() < w_.players) {
      if (mono_ns() > limit) {
        error_ = "only " + std::to_string(gen_->settled()) + " of " +
                 std::to_string(w_.players) + " players settled (" +
                 std::to_string(gen_->connected()) + " connected)";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  // Stops the generator, then the server; idempotent.
  void stop() {
    if (gen_ != nullptr) gen_->stop();
    host_probe_.stop();
    if (server_ != nullptr && !stopped_) {
      server_->request_stop();
      real_->join_all();
      stopped_ = true;
    }
  }

  // Reads the server's counters while its threads run: plain aligned
  // 64-bit fields, read without the frame barrier, so a sample can be a
  // frame's worth of work stale at either edge of a window.
  ServerSample sample(clockid_t main_clock) const {
    ServerSample s;
    s.at = real_->now().ns;
    s.process_cpu = process_cpu_ns();
    s.gen_cpu = clock_cpu_ns(gen_->cpu_clock());
    s.main_cpu = clock_cpu_ns(main_clock);
    s.watchdog_cpu = clock_cpu_ns(g_deadline.cpu_clock());
    s.host_probe_cpu = clock_cpu_ns(host_probe_.cpu_clock());
    s.breakdown = server_->total_breakdown();
    s.locks = server_->total_lock_stats();
    s.frames = server_->frames();
    s.requests = server_->total_requests();
    s.replies = server_->total_replies();
    s.net = bench_net_->counters();
    s.gen_overflow = endpoints_->overflow_drops();
    if (traced_platform_ != nullptr) s.probes = traced_platform_->totals();
    return s;
  }

  vt::RealPlatform& platform() { return *real_; }
  core::Server& server() { return *server_; }
  Generator& generator() { return *gen_; }
  BenchHook* hook() { return hook_.get(); }
  const HostProbe& host_probe() const { return host_probe_; }

 private:
  const Workload& w_;
  bool traced_;
  std::string error_;
  bool stopped_ = false;
  // Declaration order is teardown order, reversed.
  std::unique_ptr<qserv::spatial::GameMap> map_;
  std::unique_ptr<vt::RealPlatform> real_ = std::make_unique<vt::RealPlatform>();
  HostProbe host_probe_{*real_};
  std::unique_ptr<TracedPlatform> traced_platform_;
  std::unique_ptr<net::VirtualNetwork> vnet_;
  std::unique_ptr<net::RealUdpTransport> udp_;
  std::unique_ptr<BenchTransport> bench_net_;
  std::unique_ptr<core::Server> server_;
  std::unique_ptr<BenchHook> hook_;
  std::unique_ptr<Endpoints> endpoints_;
  std::unique_ptr<Generator> gen_;
};

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ns_f(vt::Duration d) { return static_cast<double>(d.ns); }

struct PassResult {
  std::vector<std::string> failures;
  std::vector<double> setup_s;
  uint64_t due = 0, failed = 0, answered = 0, send_failures = 0;
  // Whole-window percentiles, and the reported figures: the median over
  // 0.25 s slices of each slice's percentile.
  Percentile p50, p99;
  double p90 = 0.0, p999 = 0.0, max = 0.0;
  SlicedPercentile slice_p50, slice_p99;
  double server_cpu_us_per_reply = 0.0;
  double peak_rss_mb = 0.0;  // after the measured set-up's first window
  double lag_p99_ms = 0.0;
  double gen_cpu_share = 0.0;
  int windows = 0;            // windows measured
  double host_late_ms = 0.0;  // host probe lateness in the kept window
  std::vector<Metric> layers;  // traced pass only
};

void sleep_until_platform(vt::RealPlatform& p, int64_t t_ns) {
  const int64_t d = t_ns - p.now().ns;
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

void print_span_summary(const std::vector<SpanRecord>& spans, uint64_t dropped) {
  // Self time per span name, computed per recording thread.
  std::map<uint16_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < spans.size(); ++i) by_thread[spans[i].thread].push_back(i);
  struct Agg {
    uint64_t n = 0;
    int64_t total = 0, self = 0;
  };
  std::map<int, Agg> agg;
  for (const auto& [thread, idx] : by_thread) {
    std::vector<Interval> iv;
    iv.reserve(idx.size());
    for (const size_t i : idx) iv.push_back({spans[i].start, spans[i].end});
    const std::vector<int64_t> self = self_times(iv);
    for (size_t k = 0; k < idx.size(); ++k) {
      Agg& a = agg[static_cast<int>(spans[idx[k]].name)];
      ++a.n;
      a.total += iv[k].end - iv[k].start;
      a.self += self[k];
    }
  }
  std::printf("spans (%zu recorded, %llu dropped):\n", spans.size(),
              static_cast<unsigned long long>(dropped));
  std::printf("  %-14s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, a] : agg)
    std::printf("  %-14s %10llu %12.3f %12.3f\n",
                span_name(static_cast<SpanName>(name)),
                static_cast<unsigned long long>(a.n),
                static_cast<double>(a.total) * 1e-6,
                static_cast<double>(a.self) * 1e-6);
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  f << "name,thread,start_ns,end_ns,key\n";
  for (const auto& s : spans)
    f << span_name(s.name) << ',' << s.thread << ',' << s.start << ',' << s.end
      << ',' << s.key << '\n';
}

PassResult run_pass(const Workload& w, const Options& opt, bool traced,
                    int setups) {
  PassResult out;
  const clockid_t main_clock = this_thread_cpu_clock();
  auto set_up = [&]() -> std::unique_ptr<Rig> {
    g_deadline.stage("set-up");
    const int64_t t0 = mono_ns();
    auto r = std::make_unique<Rig>(w, opt, traced);
    if (!r->error().empty() || !r->start_and_settle()) {
      out.failures.push_back("set-up: " + r->error());
      return nullptr;
    }
    out.setup_s.push_back(static_cast<double>(mono_ns() - t0) * 1e-9);
    return r;
  };
  // The measured set-up comes first, so peak RSS is not that of a process
  // that has already built and torn down others.
  std::unique_ptr<Rig> rig = set_up();
  if (rig == nullptr) return out;

  g_deadline.stage("warm-up");
  vt::RealPlatform& plat = rig->platform();
  const int64_t mono_offset = mono_ns() - plat.now().ns;
  const int64_t len = static_cast<int64_t>(opt.seconds) * 1'000'000'000;
  const int64_t w0 = plat.now().ns + kWarmupNs;
  rig->generator().set_windows(w0, len, opt.windows);
  sleep_until_platform(plat, w0);
  if (traced) SpanLog::instance().set_recording(true);

  // Measure window after window until the host was quiet through one (or
  // the run's window budget is spent, then keep the quietest).
  g_deadline.stage("measure");
  std::vector<ServerSample> edges = {rig->sample(main_clock)};
  std::vector<double> host_late;
  size_t chosen = 0;
  bool quiet = false;
  std::vector<int64_t> at;
  std::vector<double> late;
  for (int i = 0; i < opt.windows && !quiet; ++i) {
    const int64_t wi0 = w0 + i * len;
    sleep_until_platform(plat, wi0 + len);
    edges.push_back(rig->sample(main_clock));
    if (i == 0) {
      // Peak RSS after one window whatever the number of windows, so the
      // benchmark's own per-window records do not move it.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    rig->host_probe().samples(wi0, wi0 + len, at, late);
    host_late.push_back(
        sliced_percentile(at, late, wi0, wi0 + len, kSliceNs, 0.99).median);
    std::printf("%s pass, window %d: host wake-up lateness p99 %.3f ms\n",
                traced ? "traced" : "untraced", i, host_late.back());
    quiet = host_late.back() <= kQuietHostMs;
    if (quiet || host_late.back() < host_late[chosen]) chosen = host_late.size() - 1;
  }
  if (!quiet)
    std::printf("host busy in all %zu windows; keeping window %zu\n",
                host_late.size(), chosen);
  if (traced) SpanLog::instance().set_recording(false);
  const int64_t c0 = w0 + static_cast<int64_t>(chosen) * len;
  const int64_t c1 = c0 + len;
  const ServerSample& a = edges[chosen];
  const ServerSample& b = edges[chosen + 1];

  g_deadline.stage("drain");
  sleep_until_platform(plat, w0 + static_cast<int64_t>(host_late.size()) * len +
                                 kGraceNs);
  rig->stop();

  g_deadline.stage("checks");
  core::Server& server = rig->server();
  Generator& gen = rig->generator();
  const Generator::Result& r = gen.result();
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) out.failures.push_back(what);
  };
  check(r.malformed == 0, std::to_string(r.malformed) +
                              " replies failed netchan/protocol decode");
  check(r.duplicates == 0,
        std::to_string(r.duplicates) + " replies duplicate or out of order");
  check(r.ack_regressed == 0,
        std::to_string(r.ack_regressed) + " replies with a regressing ack");
  check(r.echo_mismatch == 0,
        std::to_string(r.echo_mismatch) +
            " replies whose echo is not the acked move's due stamp");
  check(r.rejects == 0, std::to_string(r.rejects) + " reject messages");
  check(server.total_replies() >= r.replies,
        "server sent " + std::to_string(server.total_replies()) +
            " replies but the players received " + std::to_string(r.replies));
  check(gen.connected() == w.players && server.connected_clients() == w.players,
        "players connected at the end: generator " +
            std::to_string(gen.connected()) + ", server " +
            std::to_string(server.connected_clients()) + " of " +
            std::to_string(w.players));
  check(server.evictions() == 0,
        std::to_string(server.evictions()) + " evictions");
  check(server.rejected_connects() == 0,
        std::to_string(server.rejected_connects()) + " rejected connects");
  const int violations =
      core::InvariantChecker(server.registry(), server.world()).run();
  check(violations == 0,
        std::to_string(violations) + " invariant violations on the quiesced server");
  check(r.windows.size() > chosen, "generator recorded no measurement window");
  if (!out.failures.empty()) return out;
  const Generator::Window& gw = r.windows[chosen];
  check(gw.tally.answered > 0, "no move answered in the window");

  const double window_ns = static_cast<double>(b.at - a.at);
  out.windows = static_cast<int>(host_late.size());
  out.host_late_ms = host_late[chosen];
  out.due = gw.tally.due;
  out.failed = gw.tally.failed;
  out.answered = gw.tally.answered;
  out.send_failures = r.send_failures;
  const std::vector<double>& resp = gw.tally.response_ms;
  out.p50 = percentile(resp, 0.50);
  out.p99 = percentile(resp, 0.99);
  out.p90 = percentile(resp, 0.90).value;
  out.p999 = percentile(resp, 0.999).value;
  out.max = percentile(resp, 1.0).value;
  out.slice_p50 = sliced_percentile(gw.tally.response_due_ns, resp, c0, c1,
                                    kSliceNs, 0.50);
  out.slice_p99 = sliced_percentile(gw.tally.response_due_ns, resp, c0, c1,
                                    kSliceNs, 0.99);
  const double server_cpu = static_cast<double>(
      (b.process_cpu - a.process_cpu) - (b.gen_cpu - a.gen_cpu) -
      (b.main_cpu - a.main_cpu) - (b.watchdog_cpu - a.watchdog_cpu) -
      (b.host_probe_cpu - a.host_probe_cpu));
  out.server_cpu_us_per_reply =
      ratio(server_cpu * 1e-3, static_cast<double>(gw.tally.answered));
  out.lag_p99_ms =
      sliced_percentile(gw.lag_due_ns, gw.lag_ms, c0, c1, kSliceNs, 0.99).median;
  out.gen_cpu_share = ratio(static_cast<double>(b.gen_cpu - a.gen_cpu), window_ns);
  check(out.lag_p99_ms <= kMaxLagP99Ms,
        "invalid run: generator lag p99 " + std::to_string(out.lag_p99_ms) +
            " ms exceeds " + std::to_string(kMaxLagP99Ms) + " ms");
  check(out.gen_cpu_share <= kMaxGenCpuShare,
        "invalid run: generator used " + std::to_string(out.gen_cpu_share) +
            " of its core");

  if (traced) {
    const core::Breakdown& B0 = a.breakdown;
    const core::Breakdown& B1 = b.breakdown;
    auto d = [&](vt::Duration core::Breakdown::*f) {
      return ns_f(B1.*f) - ns_f(B0.*f);
    };
    const double F = static_cast<double>(b.frames - a.frames);
    const double M = static_cast<double>(b.requests - a.requests);
    const double R = static_cast<double>(b.replies - a.replies);
    const double reply = d(&core::Breakdown::reply);
    const double receive = d(&core::Breakdown::receive);
    const double world = d(&core::Breakdown::world);
    const double exec = d(&core::Breakdown::exec);
    const double idle = d(&core::Breakdown::idle);
    const double total = ns_f(B1.total()) - ns_f(B0.total());
    const double inter = ns_f(B1.inter_wait()) - ns_f(B0.inter_wait());
    const ProbeTotals P = b.probes - a.probes;
    const BenchHook::Summary H =
        rig->hook()->summary(c0 + mono_offset, c1 + mono_offset);
    const double seal_ns = static_cast<double>(H.seal_ns);
    const double cpu = static_cast<double>(P.cpu_ns);
    const double attributed = receive + world + exec + reply + seal_ns;
    const qserv::recovery::CheckpointManager* ck = server.checkpoints();
    auto& L = out.layers;
    L.push_back({"core.reply_us_per_reply", ratio(reply * 1e-3, R), "us"});
    L.push_back({"core.reply_view_us_per_frame",
                 ratio(d(&core::Breakdown::reply_view) * 1e-3, F), "us"});
    L.push_back({"core.reply_encode_us_per_reply",
                 ratio(d(&core::Breakdown::reply_encode) * 1e-3, R), "us"});
    L.push_back({"core.reply_finalize_us_per_reply",
                 ratio(d(&core::Breakdown::reply_finalize) * 1e-3, R), "us"});
    L.push_back({"core.reply_send_us_per_reply",
                 ratio(d(&core::Breakdown::reply_send) * 1e-3, R), "us"});
    L.push_back({"core.world_us_per_frame", ratio(world * 1e-3, F), "us"});
    L.push_back({"core.frames_per_s", ratio(F * 1e9, window_ns), "1/s"});
    L.push_back({"core.moves_per_frame", ratio(M, F), "count"});
    L.push_back({"core.replies_per_frame", ratio(R, F), "count"});
    L.push_back({"core.receive_us_per_move", ratio(receive * 1e-3, M), "us"});
    L.push_back({"core.exec_us_per_move", ratio(exec * 1e-3, M), "us"});
    L.push_back({"core.lock_leaf_us_per_move",
                 ratio(d(&core::Breakdown::lock_leaf) * 1e-3, M), "us"});
    L.push_back({"core.lock_parent_us_per_move",
                 ratio(d(&core::Breakdown::lock_parent) * 1e-3, M), "us"});
    L.push_back({"core.lock.leaves_per_move",
                 ratio(static_cast<double>(b.locks.distinct_leaves -
                                           a.locks.distinct_leaves),
                       M),
                 "count"});
    L.push_back({"core.lock.relock_ratio",
                 ratio(static_cast<double>(b.locks.relocks - a.locks.relocks),
                       static_cast<double>(b.locks.lock_requests -
                                           a.locks.lock_requests)),
                 "ratio"});
    L.push_back({"core.intra_wait_us_per_frame",
                 ratio(d(&core::Breakdown::intra_wait) * 1e-3, F), "us"});
    L.push_back({"core.inter_wait_us_per_frame", ratio(inter * 1e-3, F), "us"});
    L.push_back({"vthread.condvar_wait_us_per_frame",
                 ratio(static_cast<double>(P.condvar_wait_ns) * 1e-3, F), "us"});
    L.push_back({"vthread.mutex_wait_us_per_frame",
                 ratio(static_cast<double>(P.mutex_wait_ns) * 1e-3, F), "us"});
    L.push_back({"vthread.mutex_contended_ratio",
                 ratio(static_cast<double>(P.mutex_contended),
                       static_cast<double>(P.mutex_acquisitions)),
                 "ratio"});
    L.push_back({"recovery.seal_us_per_frame",
                 ratio(seal_ns * 1e-3, static_cast<double>(H.seals)), "us"});
    L.push_back({"recovery.checkpoint_pause_ms_max",
                 ck != nullptr ? static_cast<double>(ck->max_pause_ns()) * 1e-6
                               : 0.0,
                 "ms"});
    L.push_back({"recovery.checkpoint_bytes",
                 ck != nullptr ? static_cast<double>(ck->last_bytes()) : 0.0,
                 "bytes"});
    L.push_back({"net.rx_us_per_datagram",
                 ratio(static_cast<double>(P.rx_ns) * 1e-3,
                       static_cast<double>(P.rx_datagrams)),
                 "us"});
    L.push_back({"net.tx_us_per_reply",
                 ratio(static_cast<double>(P.tx_ns) * 1e-3,
                       static_cast<double>(P.tx_datagrams)),
                 "us"});
    L.push_back({"net.tx_bytes_per_reply",
                 ratio(static_cast<double>(P.tx_bytes),
                       static_cast<double>(P.tx_datagrams)),
                 "bytes"});
    L.push_back({"net.select_wakeups_per_frame",
                 ratio(static_cast<double>(P.select_waits), F), "count"});
    L.push_back({"net.empty_wakeup_ratio",
                 ratio(static_cast<double>(P.select_empty),
                       static_cast<double>(P.select_waits)),
                 "ratio"});
    L.push_back({"net.overflow_drops",
                 static_cast<double>((b.net.packets_overflowed -
                                      a.net.packets_overflowed) +
                                     (b.gen_overflow - a.gen_overflow)),
                 "count"});
    const Percentile f50 = percentile(H.frame_us, 0.50);
    const Percentile f99 = percentile(H.frame_us, 0.99);
    L.push_back({"core.frame_us_p50", f50.value, "us"});
    L.push_back({"core.frame_us_p99", f99.value, "us"});
    L.push_back({"core.idle_share", ratio(idle, total), "ratio"});
    L.push_back({"core.unattributed_us_per_frame",
                 ratio((cpu - attributed) * 1e-3, F), "us"});
    L.push_back({"core.attributed_cpu_share", ratio(attributed, cpu), "ratio"});
    L.push_back({"core.allocs_per_frame",
                 ratio(static_cast<double>(P.allocs), F), "count"});
    L.push_back({"vthread.server_cpu_us_per_frame", ratio(cpu * 1e-3, F), "us"});
    L.push_back({"sim.entities_per_snapshot",
                 ratio(static_cast<double>(gw.entities),
                       static_cast<double>(gw.replies)),
                 "count"});
    L.push_back({"sim.events_per_snapshot",
                 ratio(static_cast<double>(gw.events),
                       static_cast<double>(gw.replies)),
                 "count"});
    L.push_back({"gen.lag_ms_p99", out.lag_p99_ms, "ms"});
    L.push_back({"gen.cpu_share", out.gen_cpu_share, "ratio"});
    L.push_back({"gen.decode_us_per_reply",
                 ratio(static_cast<double>(gw.decode_ns) * 1e-3,
                       static_cast<double>(gw.decodes)),
                 "us"});
    L.push_back({"host.wakeup_late_ms_p99", out.host_late_ms, "ms"});
    L.push_back({"host.windows", static_cast<double>(out.windows), "count"});

    std::printf("attribution (traced pass, server threads, %.0f frames):\n", F);
    std::printf("  server-thread CPU          %10.1f us/frame\n", ratio(cpu * 1e-3, F));
    std::printf("  phase timers               %10.1f us/frame "
                "(receive %.1f, world %.1f, exec %.1f, reply %.1f)\n",
                ratio((receive + world + exec + reply) * 1e-3, F),
                ratio(receive * 1e-3, F), ratio(world * 1e-3, F),
                ratio(exec * 1e-3, F), ratio(reply * 1e-3, F));
    std::printf("  recovery bracket           %10.1f us/frame\n",
                ratio(seal_ns * 1e-3, F));
    std::printf("  attributed share           %10.3f\n", ratio(attributed, cpu));
    std::printf("  unattributed               %10.1f us/frame\n",
                ratio((cpu - attributed) * 1e-3, F));
    std::vector<SpanRecord> spans = SpanLog::instance().collect();
    std::erase_if(spans, [&](const SpanRecord& sr) {
      return sr.start < c0 + mono_offset || sr.start >= c1 + mono_offset;
    });
    print_span_summary(spans, SpanLog::instance().dropped());
    if (!opt.spans_path.empty()) write_spans(opt.spans_path, spans);
    SpanLog::instance().clear();
  }
  rig.reset();
  // Further set-ups only time set-up.
  for (int rep = 1; rep < setups; ++rep)
    if (set_up() == nullptr) break;
  return out;
}

// ---------------------------------------------------------------------------

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads)
        if (w.name == std::string(v)) opt.workload = &w;
      if (opt.workload == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n", v);
        return false;
      }
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      opt.seconds = std::atoi(v);
    } else if (k == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (k == "--spans") {
      opt.spans_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  const int64_t passes = opt.trace ? 2 : 1;
  opt.windows = static_cast<int>(std::clamp<int64_t>(
      (kRunBudgetS / passes - kPassOverheadS) / std::max(opt.seconds, 1), 1,
      kMaxWindows));
  if (argc % 2 == 0 || opt.workload == nullptr || opt.seconds < 1 ||
      opt.seconds > 60) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<1..60> --trace <0|1> [--spans <file>]\n");
    return false;
  }
  return true;
}

void print_metric(const Metric& m) {
  std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  g_deadline.arm(kRunBudgetS + 20);
  std::printf("perfbench: workload %s, seed %llu, %d s window, trace %d\n",
              w.name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);

  const PassResult plain = run_pass(w, opt, /*traced=*/false,
                                    opt.trace ? 1 : kSetupRepeats);
  std::optional<PassResult> traced;
  if (opt.trace && plain.failures.empty())
    traced = run_pass(w, opt, /*traced=*/true, 1);
  g_deadline.stage("report");

  std::vector<std::string> failures = plain.failures;
  if (traced) failures.insert(failures.end(), traced->failures.begin(),
                              traced->failures.end());
  uint64_t attempted = plain.due + (traced ? traced->due : 0);
  const uint64_t failed = plain.failed + (traced ? traced->failed : 0);

  std::vector<Metric> metrics;
  std::printf("untraced pass: %llu moves due, %llu answered, %llu failed "
              "(%llu sends refused by the socket); response p99 over %zu "
              "samples (%zu beyond it); generator lag p99 %.3f ms, cpu share "
              "%.3f\n",
              static_cast<unsigned long long>(plain.due),
              static_cast<unsigned long long>(plain.answered),
              static_cast<unsigned long long>(plain.failed),
              static_cast<unsigned long long>(plain.send_failures),
              plain.p99.samples, plain.p99.beyond, plain.lag_p99_ms,
              plain.gen_cpu_share);
  std::printf("  whole-window response ms: p50 %.4f, p90 %.4f, p99 %.4f, "
              "p99.9 %.4f, max %.4f\n",
              plain.p50.value, plain.p90, plain.p99.value, plain.p999, plain.max);
  std::printf("  per %.2f s slice (samples, beyond p99): p50 / p99 ms:",
              static_cast<double>(kSliceNs) * 1e-9);
  for (size_t i = 0; i < plain.slice_p99.slices.size(); ++i)
    std::printf(" %.3f/%.3f (%zu, %zu)", plain.slice_p50.slices[i].value,
                plain.slice_p99.slices[i].value,
                plain.slice_p99.slices[i].samples,
                plain.slice_p99.slices[i].beyond);
  std::printf("\n");
  const double failed_ratio =
      ratio(static_cast<double>(plain.failed), static_cast<double>(plain.due));
  std::printf("  %-36s %14.6g ratio (%llu of %llu moves due)\n",
              "failed_move_ratio", failed_ratio,
              static_cast<unsigned long long>(plain.failed),
              static_cast<unsigned long long>(plain.due));
  if (!opt.trace) {
    metrics.push_back({"response_ms_p50", plain.slice_p50.median, "ms"});
    metrics.push_back({"response_ms_p99", plain.slice_p99.median, "ms"});
    metrics.push_back({"server_cpu_us_per_reply", plain.server_cpu_us_per_reply, "us"});
    metrics.push_back({"setup_s", median(plain.setup_s), "s"});
    metrics.push_back({"peak_rss_mb", plain.peak_rss_mb, "MB"});
  } else if (traced) {
    metrics = traced->layers;
    metrics.push_back({"failed_move_ratio",
                       ratio(static_cast<double>(traced->failed),
                             static_cast<double>(traced->due)),
                       "ratio"});
    metrics.push_back({"trace.overhead_response_p50_pct",
                       ratio(traced->slice_p50.median - plain.slice_p50.median,
                             plain.slice_p50.median) *
                           100.0,
                       "%"});
    metrics.push_back({"trace.overhead_cpu_pct",
                       ratio(traced->server_cpu_us_per_reply -
                                 plain.server_cpu_us_per_reply,
                             plain.server_cpu_us_per_reply) *
                           100.0,
                       "%"});
    std::printf("traced pass: response p50 %.4f ms, p99 %.4f ms, server cpu "
                "%.2f us/reply (untraced %.4f ms, %.4f ms, %.2f us/reply)\n",
                traced->slice_p50.median, traced->slice_p99.median,
                traced->server_cpu_us_per_reply, plain.slice_p50.median,
                plain.slice_p99.median, plain.server_cpu_us_per_reply);
  }
  std::printf("metrics:\n");
  for (const Metric& m : metrics) print_metric(m);
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  if (attempted == 0) attempted = 1;

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) return 2;
  return perfbench::run(opt);
}
