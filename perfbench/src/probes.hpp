// Measurement from outside the server: decorators around the platform and
// the transport the server is built on, a frame hook, an allocation
// counter, an in-memory span log, and a host scheduling probe. The
// untraced pass uses only the host probe and BenchTransport's port
// hand-over, which adds no wrapper.
#pragma once

#include <time.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/frame_hooks.hpp"
#include "src/core/server.hpp"
#include "src/net/transport.hpp"
#include "src/vthread/platform.hpp"
#include "stats.hpp"

namespace perfbench {

// Steady-clock nanoseconds (the clock RealPlatform::now() is built on).
int64_t mono_ns();
// CPU time of the calling process / of the thread behind `clock`.
int64_t process_cpu_ns();
int64_t clock_cpu_ns(clockid_t clock);
clockid_t this_thread_cpu_clock();

// ---------------------------------------------------------------------------
// Host scheduling probe: a benchmark thread that sleeps 2 ms at a time and
// records how late it wakes. On a quiet host it wakes within tens of
// microseconds. On a shared host whose vCPUs are being descheduled it wakes
// milliseconds late, and so does every server and generator thread: a
// window measured then measures the host, not the server.

class HostProbe {
 public:
  explicit HostProbe(const qserv::vt::Platform& platform)
      : platform_(platform) {}
  ~HostProbe() { stop(); }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  void start();
  void stop();
  clockid_t cpu_clock() const { return cpu_clock_.load(); }

  // Wake-up lateness (ms) of the wakes due in [w0, w1), platform ns.
  void samples(int64_t w0, int64_t w1, std::vector<int64_t>& at,
               std::vector<double>& late_ms) const;

 private:
  void loop();

  const qserv::vt::Platform& platform_;
  std::atomic<bool> stop_{false};
  std::atomic<clockid_t> cpu_clock_{};
  mutable std::mutex mu_;  // guards the samples
  std::vector<int64_t> at_;
  std::vector<double> late_ms_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Span log: spans are kept in per-thread buffers while recording is on and
// written out once, after the run.

enum class SpanName : uint8_t {
  kFrame,       // on_world_tick -> on_frame_end
  kSeal,        // on_master_window -> on_frame_sealed (recovery's seal)
  kSocketSend,
  kSocketRecv,
  kSelectWait,
  kMutexWait,
  kCondvarWait,
  kGenSend,     // generator: send of one move (think + encode if not ready)
  kGenDecode,   // generator: netchan + protocol decode of one reply
  kCount,
};
const char* span_name(SpanName n);

struct SpanRecord {
  int64_t start = 0;  // mono_ns()
  int64_t end = 0;
  // Server spans: the server's frame number (of the frame open or last
  // ticked when the span began). Generator spans: player << 32 | sequence.
  int64_t key = 0;
  SpanName name = SpanName::kFrame;
  uint16_t thread = 0;
};

class SpanLog {
 public:
  static SpanLog& instance();

  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  void record(SpanName name, int64_t start, int64_t end, int64_t key);

  // Every recorded span, gathered after the recording threads stopped.
  std::vector<SpanRecord> collect() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  void clear();

 private:
  struct Buffer {
    uint16_t thread = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& local();

  static constexpr size_t kMaxPerThread = 2'000'000;

  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// ---------------------------------------------------------------------------
// Per-server-thread counters, written only by their own thread and read
// by the benchmark's main thread at the window edges.

struct ThreadProbe {
  std::atomic<clockid_t> cpu_clock{};  // set by the thread as it starts
  std::atomic<uint64_t> mutex_acquisitions{0};
  std::atomic<uint64_t> mutex_contended{0};
  std::atomic<uint64_t> mutex_wait_ns{0};
  std::atomic<uint64_t> condvar_waits{0};
  std::atomic<uint64_t> condvar_wait_ns{0};
  std::atomic<uint64_t> rx_datagrams{0};
  std::atomic<uint64_t> rx_ns{0};
  std::atomic<uint64_t> tx_datagrams{0};
  std::atomic<uint64_t> tx_ns{0};
  std::atomic<uint64_t> tx_bytes{0};
  std::atomic<uint64_t> select_waits{0};
  std::atomic<uint64_t> select_empty{0};
  std::atomic<uint64_t> allocs{0};
};

// Sum of every server thread's counters plus their CPU time, at one
// instant.
struct ProbeTotals {
  int64_t cpu_ns = 0;
  uint64_t mutex_acquisitions = 0, mutex_contended = 0, mutex_wait_ns = 0;
  uint64_t condvar_waits = 0, condvar_wait_ns = 0;
  uint64_t rx_datagrams = 0, rx_ns = 0;
  uint64_t tx_datagrams = 0, tx_ns = 0, tx_bytes = 0;
  uint64_t select_waits = 0, select_empty = 0;
  uint64_t allocs = 0;

  ProbeTotals operator-(const ProbeTotals& o) const;
};

// ---------------------------------------------------------------------------
// Decorating platform: the spawn wrapper gives each server thread a
// ThreadProbe (thread CPU, allocation count); mutex and condvar wrappers
// time waits on server threads.

class TracedPlatform final : public qserv::vt::Platform {
 public:
  explicit TracedPlatform(qserv::vt::Platform& inner) : inner_(inner) {}
  TracedPlatform(const TracedPlatform&) = delete;
  TracedPlatform& operator=(const TracedPlatform&) = delete;

  qserv::vt::TimePoint now() const override { return inner_.now(); }
  void compute(qserv::vt::Duration d) override { inner_.compute(d); }
  void sleep_until(qserv::vt::TimePoint t) override { inner_.sleep_until(t); }
  void yield() override { inner_.yield(); }
  std::unique_ptr<qserv::vt::Mutex> make_mutex(std::string name) override;
  std::unique_ptr<qserv::vt::CondVar> make_condvar() override;
  void spawn(std::string name, qserv::vt::Domain domain,
             std::function<void()> fn) override;
  void call_after(qserv::vt::Duration d, std::function<void()> fn) override {
    inner_.call_after(d, std::move(fn));
  }
  void join_all() override { inner_.join_all(); }
  std::string machine_description() const override {
    return inner_.machine_description();
  }

  ProbeTotals totals() const;

 private:
  qserv::vt::Platform& inner_;
  mutable std::mutex mu_;  // guards probes_
  std::vector<std::unique_ptr<ThreadProbe>> probes_;
};

// Heap allocations made on the calling thread from now on are counted in
// `counter` (null stops counting). Defined with the operator new
// replacement in alloc_count.cpp.
void count_allocations_on_this_thread(std::atomic<uint64_t>* counter);

// ---------------------------------------------------------------------------
// The server's transport. It binds the server's ports before the server is
// built, retrying on kPortInUse, and hands those sockets over when the
// server opens them. With `traced`, sockets and selectors are wrapped to
// time receives, sends and selector waits.

class BenchTransport final : public qserv::net::Transport {
 public:
  BenchTransport(qserv::net::Transport& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  // Opens `count` consecutive ports starting at `base`. False (and nothing
  // kept) when one is taken.
  bool bind_ports(uint16_t base, int count);

  std::unique_ptr<qserv::net::Socket> try_open(
      uint16_t port, qserv::net::OpenError* err = nullptr) override;
  std::unique_ptr<qserv::net::Selector> make_selector() override;
  qserv::vt::Platform& platform() override { return inner_.platform(); }
  const qserv::net::FaultScheduler* faults_or_null() const override {
    return inner_.faults_or_null();
  }
  qserv::net::TransportCounters counters() const override {
    return inner_.counters();
  }

 private:
  qserv::net::Transport& inner_;
  bool traced_;
  std::map<uint16_t, std::unique_ptr<qserv::net::Socket>> bound_;
};

// ---------------------------------------------------------------------------
// Frame hook, registered after the built-in hooks: its on_master_window ->
// on_frame_sealed interval brackets every hook's seal (recovery's digest,
// journal and checkpoint), and on_world_tick -> on_frame_end is the frame.

class BenchHook final : public qserv::core::FrameHook {
 public:
  explicit BenchHook(const qserv::core::Server& server) : server_(server) {}

  void on_world_tick(int tid, qserv::vt::TimePoint t0,
                     qserv::vt::Duration dt) override;
  void on_master_window(int tid, qserv::vt::TimePoint frame_start,
                        qserv::core::ThreadStats& st) override;
  void on_frame_sealed() override;
  void on_frame_end(qserv::vt::TimePoint frame_start, int moves,
                    qserv::core::ThreadStats& st) override;

  // Frames and seals that started in [w0, w1), mono_ns() stamps.
  struct Summary {
    std::vector<double> frame_us;
    uint64_t seals = 0;
    int64_t seal_ns = 0;
  };
  Summary summary(int64_t w0, int64_t w1) const;

 private:
  // Frames never overlap, but consecutive frames may run on different
  // threads: the mutex orders them for the reader.
  const qserv::core::Server& server_;
  mutable std::mutex mu_;
  int64_t frame_start_ = -1;
  int64_t seal_start_ = -1;
  std::vector<Interval> frames_;
  std::vector<Interval> seals_;
};

}  // namespace perfbench
