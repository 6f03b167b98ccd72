#include "probes.hpp"

#include <errno.h>
#include <pthread.h>
#include <sys/prctl.h>

#include <algorithm>

#include "src/core/server.hpp"

namespace perfbench {

namespace {

// Set by TracedPlatform's spawn wrapper for the life of a server thread.
thread_local ThreadProbe* t_probe = nullptr;
// Set while a condvar wait re-acquires its mutex, so that re-acquire is
// counted as condvar wait, not mutex wait.
thread_local bool t_in_condvar = false;
// The server frame last ticked: the key of server-side spans.
std::atomic<int64_t> g_frame{0};

int64_t frame_key() { return g_frame.load(std::memory_order_relaxed); }

void bump(std::atomic<uint64_t>& c, uint64_t v = 1) {
  c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

int64_t ts_ns(const timespec& ts) {
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

class TracedMutex final : public qserv::vt::Mutex {
 public:
  explicit TracedMutex(std::unique_ptr<qserv::vt::Mutex> inner)
      : inner_(std::move(inner)) {}

  void lock() override {
    ThreadProbe* p = t_probe;
    if (p == nullptr || t_in_condvar) {
      inner_->lock();
      return;
    }
    bump(p->mutex_acquisitions);
    if (inner_->try_lock()) return;
    const int64_t t0 = mono_ns();
    inner_->lock();
    const int64_t t1 = mono_ns();
    bump(p->mutex_contended);
    bump(p->mutex_wait_ns, static_cast<uint64_t>(t1 - t0));
    SpanLog& log = SpanLog::instance();
    if (log.recording()) log.record(SpanName::kMutexWait, t0, t1, frame_key());
  }
  void unlock() override { inner_->unlock(); }
  bool try_lock() override { return inner_->try_lock(); }
  uint64_t acquisitions() const override { return inner_->acquisitions(); }
  uint64_t contended_acquisitions() const override {
    return inner_->contended_acquisitions();
  }
  qserv::vt::Duration total_wait() const override {
    return inner_->total_wait();
  }

 private:
  std::unique_ptr<qserv::vt::Mutex> inner_;
};

class TracedCondVar final : public qserv::vt::CondVar {
 public:
  explicit TracedCondVar(std::unique_ptr<qserv::vt::CondVar> inner)
      : inner_(std::move(inner)) {}

  void wait(qserv::vt::Mutex& m) override {
    Timed t;
    inner_->wait(m);
  }
  bool wait_until(qserv::vt::Mutex& m,
                  qserv::vt::TimePoint deadline) override {
    Timed t;
    return inner_->wait_until(m, deadline);
  }
  void signal() override { inner_->signal(); }
  void broadcast() override { inner_->broadcast(); }

 private:
  struct Timed {
    ThreadProbe* p = t_probe;
    int64_t t0 = mono_ns();
    Timed() { t_in_condvar = true; }
    ~Timed() {
      t_in_condvar = false;
      if (p == nullptr) return;
      const int64_t t1 = mono_ns();
      bump(p->condvar_waits);
      bump(p->condvar_wait_ns, static_cast<uint64_t>(t1 - t0));
      SpanLog& log = SpanLog::instance();
      if (log.recording()) log.record(SpanName::kCondvarWait, t0, t1, frame_key());
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;
  };
  std::unique_ptr<qserv::vt::CondVar> inner_;
};

class TracedSocket final : public qserv::net::Socket {
 public:
  explicit TracedSocket(std::unique_ptr<qserv::net::Socket> inner)
      : inner_(std::move(inner)) {}

  qserv::net::Socket& inner() { return *inner_; }

  uint16_t port() const override { return inner_->port(); }
  bool send(uint16_t dst, std::vector<uint8_t> payload) override {
    const size_t n = payload.size();
    const int64_t t0 = mono_ns();
    const bool ok = inner_->send(dst, std::move(payload));
    sent(t0, n);
    return ok;
  }
  bool send_span(uint16_t dst, const uint8_t* data, size_t len) override {
    const int64_t t0 = mono_ns();
    const bool ok = inner_->send_span(dst, data, len);
    sent(t0, len);
    return ok;
  }
  bool try_recv(qserv::net::Datagram& out) override {
    const int64_t t0 = mono_ns();
    const bool ok = inner_->try_recv(out);
    if (ok) {
      const int64_t t1 = mono_ns();
      if (ThreadProbe* p = t_probe) {
        bump(p->rx_datagrams);
        bump(p->rx_ns, static_cast<uint64_t>(t1 - t0));
      }
      SpanLog& log = SpanLog::instance();
      if (log.recording()) log.record(SpanName::kSocketRecv, t0, t1, frame_key());
    }
    return ok;
  }
  qserv::vt::TimePoint next_ready() const override {
    return inner_->next_ready();
  }
  bool has_ready() const override { return inner_->has_ready(); }
  size_t queued() const override { return inner_->queued(); }
  uint64_t received_count() const override { return inner_->received_count(); }

 private:
  void sent(int64_t t0, size_t bytes) {
    const int64_t t1 = mono_ns();
    if (ThreadProbe* p = t_probe) {
      bump(p->tx_datagrams);
      bump(p->tx_ns, static_cast<uint64_t>(t1 - t0));
      bump(p->tx_bytes, bytes);
    }
    SpanLog& log = SpanLog::instance();
    if (log.recording()) log.record(SpanName::kSocketSend, t0, t1, frame_key());
  }

  std::unique_ptr<qserv::net::Socket> inner_;
};

class TracedSelector final : public qserv::net::Selector {
 public:
  explicit TracedSelector(std::unique_ptr<qserv::net::Selector> inner)
      : inner_(std::move(inner)) {}

  void add(qserv::net::Socket& s) override {
    inner_->add(static_cast<TracedSocket&>(s).inner());
  }
  void remove(qserv::net::Socket& s) override {
    inner_->remove(static_cast<TracedSocket&>(s).inner());
  }
  bool wait_until(qserv::vt::TimePoint deadline) override {
    const int64_t t0 = mono_ns();
    const bool ready = inner_->wait_until(deadline);
    const int64_t t1 = mono_ns();
    if (ThreadProbe* p = t_probe) {
      bump(p->select_waits);
      if (!ready) bump(p->select_empty);
    }
    SpanLog& log = SpanLog::instance();
    if (log.recording()) log.record(SpanName::kSelectWait, t0, t1, frame_key());
    return ready;
  }
  void poke() override { inner_->poke(); }

 private:
  std::unique_ptr<qserv::net::Selector> inner_;
};

}  // namespace

int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts_ns(ts);
}

int64_t process_cpu_ns() { return clock_cpu_ns(CLOCK_PROCESS_CPUTIME_ID); }

int64_t clock_cpu_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return ts_ns(ts);
}

clockid_t this_thread_cpu_clock() {
  clockid_t c{};
  pthread_getcpuclockid(pthread_self(), &c);
  return c;
}

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kFrame: return "frame";
    case SpanName::kSeal: return "seal";
    case SpanName::kSocketSend: return "socket.send";
    case SpanName::kSocketRecv: return "socket.recv";
    case SpanName::kSelectWait: return "select.wait";
    case SpanName::kMutexWait: return "mutex.wait";
    case SpanName::kCondvarWait: return "condvar.wait";
    case SpanName::kGenSend: return "gen.send";
    case SpanName::kGenDecode: return "gen.decode";
    case SpanName::kCount: break;
  }
  return "?";
}

// --- HostProbe ---

void HostProbe::start() {
  thread_ = std::thread([this] { loop(); });
}

void HostProbe::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void HostProbe::loop() {
  cpu_clock_.store(this_thread_cpu_clock());
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  constexpr int64_t kPeriodNs = 2'000'000;
  const int64_t offset = mono_ns() - platform_.now().ns;
  int64_t due = platform_.now().ns + kPeriodNs;
  while (!stop_.load(std::memory_order_relaxed)) {
    const int64_t mono = due + offset;
    timespec ts{};
    ts.tv_sec = mono / 1'000'000'000;
    ts.tv_nsec = mono % 1'000'000'000;
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
    const int64_t late = platform_.now().ns - due;
    {
      std::lock_guard<std::mutex> g(mu_);
      at_.push_back(due);
      late_ms_.push_back(static_cast<double>(late) * 1e-6);
    }
    due = std::max(due + kPeriodNs, platform_.now().ns + kPeriodNs / 2);
  }
}

void HostProbe::samples(int64_t w0, int64_t w1, std::vector<int64_t>& at,
                        std::vector<double>& late_ms) const {
  std::lock_guard<std::mutex> g(mu_);
  at.clear();
  late_ms.clear();
  for (size_t i = 0; i < at_.size(); ++i) {
    if (at_[i] < w0 || at_[i] >= w1) continue;
    at.push_back(at_[i]);
    late_ms.push_back(late_ms_[i]);
  }
}

// --- SpanLog ---

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->thread = static_cast<uint16_t>(buffers_.size() - 1);
  }
  return *buf;
}

void SpanLog::record(SpanName name, int64_t start, int64_t end, int64_t key) {
  Buffer& b = local();
  if (b.spans.size() >= kMaxPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.spans.push_back({start, end, key, name, b.thread});
}

std::vector<SpanRecord> SpanLog::collect() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& b : buffers_) {
    b->spans.clear();
    b->spans.shrink_to_fit();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

// --- ProbeTotals ---

ProbeTotals ProbeTotals::operator-(const ProbeTotals& o) const {
  ProbeTotals d;
  d.cpu_ns = cpu_ns - o.cpu_ns;
  d.mutex_acquisitions = mutex_acquisitions - o.mutex_acquisitions;
  d.mutex_contended = mutex_contended - o.mutex_contended;
  d.mutex_wait_ns = mutex_wait_ns - o.mutex_wait_ns;
  d.condvar_waits = condvar_waits - o.condvar_waits;
  d.condvar_wait_ns = condvar_wait_ns - o.condvar_wait_ns;
  d.rx_datagrams = rx_datagrams - o.rx_datagrams;
  d.rx_ns = rx_ns - o.rx_ns;
  d.tx_datagrams = tx_datagrams - o.tx_datagrams;
  d.tx_ns = tx_ns - o.tx_ns;
  d.tx_bytes = tx_bytes - o.tx_bytes;
  d.select_waits = select_waits - o.select_waits;
  d.select_empty = select_empty - o.select_empty;
  d.allocs = allocs - o.allocs;
  return d;
}

// --- TracedPlatform ---

std::unique_ptr<qserv::vt::Mutex> TracedPlatform::make_mutex(std::string name) {
  return std::make_unique<TracedMutex>(inner_.make_mutex(std::move(name)));
}

std::unique_ptr<qserv::vt::CondVar> TracedPlatform::make_condvar() {
  return std::make_unique<TracedCondVar>(inner_.make_condvar());
}

void TracedPlatform::spawn(std::string name, qserv::vt::Domain domain,
                           std::function<void()> fn) {
  ThreadProbe* probe = nullptr;
  {
    std::lock_guard<std::mutex> g(mu_);
    probes_.push_back(std::make_unique<ThreadProbe>());
    probe = probes_.back().get();
  }
  inner_.spawn(std::move(name), domain, [probe, fn = std::move(fn)] {
    probe->cpu_clock.store(this_thread_cpu_clock());
    t_probe = probe;
    count_allocations_on_this_thread(&probe->allocs);
    fn();
    count_allocations_on_this_thread(nullptr);
    t_probe = nullptr;
  });
}

ProbeTotals TracedPlatform::totals() const {
  std::lock_guard<std::mutex> g(mu_);
  ProbeTotals t;
  for (const auto& p : probes_) {
    t.cpu_ns += clock_cpu_ns(p->cpu_clock.load());
    auto rd = [](const std::atomic<uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    t.mutex_acquisitions += rd(p->mutex_acquisitions);
    t.mutex_contended += rd(p->mutex_contended);
    t.mutex_wait_ns += rd(p->mutex_wait_ns);
    t.condvar_waits += rd(p->condvar_waits);
    t.condvar_wait_ns += rd(p->condvar_wait_ns);
    t.rx_datagrams += rd(p->rx_datagrams);
    t.rx_ns += rd(p->rx_ns);
    t.tx_datagrams += rd(p->tx_datagrams);
    t.tx_ns += rd(p->tx_ns);
    t.tx_bytes += rd(p->tx_bytes);
    t.select_waits += rd(p->select_waits);
    t.select_empty += rd(p->select_empty);
    t.allocs += rd(p->allocs);
  }
  return t;
}

// --- BenchTransport ---

bool BenchTransport::bind_ports(uint16_t base, int count) {
  std::map<uint16_t, std::unique_ptr<qserv::net::Socket>> got;
  for (int i = 0; i < count; ++i) {
    const auto port = static_cast<uint16_t>(base + i);
    auto s = inner_.try_open(port);
    if (s == nullptr) return false;
    got.emplace(port, std::move(s));
  }
  for (auto& [port, s] : got) bound_[port] = std::move(s);
  return true;
}

std::unique_ptr<qserv::net::Socket> BenchTransport::try_open(
    uint16_t port, qserv::net::OpenError* err) {
  std::unique_ptr<qserv::net::Socket> s;
  const auto it = bound_.find(port);
  if (it != bound_.end()) {
    s = std::move(it->second);
    bound_.erase(it);
    if (err != nullptr) *err = qserv::net::OpenError::kNone;
  } else {
    s = inner_.try_open(port, err);
  }
  if (s == nullptr || !traced_) return s;
  return std::make_unique<TracedSocket>(std::move(s));
}

std::unique_ptr<qserv::net::Selector> BenchTransport::make_selector() {
  if (!traced_) return inner_.make_selector();
  return std::make_unique<TracedSelector>(inner_.make_selector());
}

// --- BenchHook ---

void BenchHook::on_world_tick(int, qserv::vt::TimePoint, qserv::vt::Duration) {
  std::lock_guard<std::mutex> g(mu_);
  frame_start_ = mono_ns();
  g_frame.store(static_cast<int64_t>(server_.frames()),
                std::memory_order_relaxed);
}

void BenchHook::on_master_window(int, qserv::vt::TimePoint,
                                 qserv::core::ThreadStats&) {
  std::lock_guard<std::mutex> g(mu_);
  seal_start_ = mono_ns();
}

void BenchHook::on_frame_sealed() {
  const int64_t t1 = mono_ns();
  std::lock_guard<std::mutex> g(mu_);
  if (seal_start_ < 0) return;
  seals_.push_back({seal_start_, t1});
  SpanLog& log = SpanLog::instance();
  if (log.recording())
    log.record(SpanName::kSeal, seal_start_, t1,
               frame_key());
  seal_start_ = -1;
}

void BenchHook::on_frame_end(qserv::vt::TimePoint, int,
                             qserv::core::ThreadStats&) {
  const int64_t t1 = mono_ns();
  std::lock_guard<std::mutex> g(mu_);
  if (frame_start_ < 0) return;
  frames_.push_back({frame_start_, t1});
  SpanLog& log = SpanLog::instance();
  if (log.recording())
    log.record(SpanName::kFrame, frame_start_, t1,
               frame_key());
  frame_start_ = -1;
}

BenchHook::Summary BenchHook::summary(int64_t w0, int64_t w1) const {
  std::lock_guard<std::mutex> g(mu_);
  Summary out;
  for (const Interval& f : frames_)
    if (f.start >= w0 && f.start < w1)
      out.frame_us.push_back(static_cast<double>(f.end - f.start) * 1e-3);
  for (const Interval& s : seals_)
    if (s.start >= w0 && s.start < w1) {
      ++out.seals;
      out.seal_ns += s.end - s.start;
    }
  return out;
}

}  // namespace perfbench
