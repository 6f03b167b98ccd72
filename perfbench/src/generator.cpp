#include "generator.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "probes.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace net = qserv::net;

namespace {

constexpr int64_t kConnectRetryNs = 250'000'000;
constexpr int64_t kSweepNs = 5'000'000;        // expiry / retry sweep
constexpr int64_t kVirtualPollNs = 250'000;    // poll period, virtual net
constexpr uint32_t kTimerTag = UINT32_MAX;

void sleep_until_mono(int64_t mono) {
  timespec ts{};
  ts.tv_sec = mono / 1'000'000'000;
  ts.tv_nsec = mono % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// Offset from the platform clock to CLOCK_MONOTONIC.
int64_t mono_offset(qserv::vt::Platform& platform) {
  return mono_ns() - platform.now().ns;
}

// CLOCK_REALTIME minus the platform clock, from the tightest of a few
// bracketed samples (kernel receive stamps are CLOCK_REALTIME).
int64_t realtime_offset(qserv::vt::Platform& platform) {
  int64_t best_gap = INT64_MAX;
  int64_t offset = 0;
  for (int i = 0; i < 16; ++i) {
    const int64_t a = platform.now().ns;
    timespec rt{};
    clock_gettime(CLOCK_REALTIME, &rt);
    const int64_t b = platform.now().ns;
    if (b - a < best_gap) {
      best_gap = b - a;
      offset = static_cast<int64_t>(rt.tv_sec) * 1'000'000'000 + rt.tv_nsec -
               (a + (b - a) / 2);
    }
  }
  return offset;
}

class VirtualEndpoints final : public Endpoints {
 public:
  VirtualEndpoints(net::Transport& net, qserv::vt::Platform& platform,
                   uint16_t first_port, int players)
      : platform_(platform), offset_(mono_offset(platform)) {
    for (int i = 0; i < players; ++i)
      sockets_.push_back(net.open(static_cast<uint16_t>(first_port + i)));
  }

  net::Socket& socket(int player) override {
    return *sockets_[static_cast<size_t>(player)];
  }

  void wait(int64_t deadline_ns, const std::vector<char>& watched,
            std::vector<int>& ready) override {
    ready.clear();
    const int64_t until =
        std::min(deadline_ns, platform_.now().ns + kVirtualPollNs);
    sleep_until_mono(until + offset_);
    for (size_t i = 0; i < watched.size(); ++i)
      if (watched[i]) ready.push_back(static_cast<int>(i));
  }

 private:
  qserv::vt::Platform& platform_;
  int64_t offset_;
  std::vector<std::unique_ptr<net::Socket>> sockets_;
};

// A generator-side kernel UDP socket. Bound without SO_REUSEPORT, so no
// other socket can share its port.
class UdpSocket final : public net::Socket {
 public:
  UdpSocket(int fd, uint16_t port, qserv::vt::Platform& platform,
            int64_t rt_offset)
      : fd_(fd), port_(port), platform_(platform), rt_offset_(rt_offset) {}
  ~UdpSocket() override { ::close(fd_); }

  int fd() const { return fd_; }
  uint32_t overflow() const { return overflow_; }

  uint16_t port() const override { return port_; }
  bool send(uint16_t dst, std::vector<uint8_t> payload) override {
    return send_span(dst, payload.data(), payload.size());
  }
  bool send_span(uint16_t dst, const uint8_t* data, size_t len) override {
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_port = htons(dst);
    to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::sendto(fd_, data, len, 0, reinterpret_cast<const sockaddr*>(&to),
                    sizeof(to)) == static_cast<ssize_t>(len);
  }
  bool try_recv(net::Datagram& out) override {
    buf_.resize(65536);
    for (;;) {
      sockaddr_in from{};
      iovec iov{buf_.data(), buf_.size()};
      alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(timespec)) +
                                 CMSG_SPACE(sizeof(uint32_t))];
      msghdr msg{};
      msg.msg_name = &from;
      msg.msg_namelen = sizeof(from);
      msg.msg_iov = &iov;
      msg.msg_iovlen = 1;
      msg.msg_control = ctrl;
      msg.msg_controllen = sizeof(ctrl);
      const ssize_t n = ::recvmsg(fd_, &msg, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      int64_t arrival = platform_.now().ns;
      for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
           c = CMSG_NXTHDR(&msg, c)) {
        if (c->cmsg_level != SOL_SOCKET) continue;
        if (c->cmsg_type == SCM_TIMESTAMPNS) {
          timespec ts{};
          std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
          arrival = static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 +
                    ts.tv_nsec - rt_offset_;
        } else if (c->cmsg_type == SO_RXQ_OVFL) {
          std::memcpy(&overflow_, CMSG_DATA(c), sizeof(overflow_));
        }
      }
      out.payload.assign(buf_.begin(), buf_.begin() + n);
      out.src_port = ntohs(from.sin_port);
      out.dst_port = port_;
      out.sent_at = out.deliver_at = qserv::vt::TimePoint{arrival};
      ++received_;
      return true;
    }
  }
  qserv::vt::TimePoint next_ready() const override {
    return qserv::vt::TimePoint::max();
  }
  bool has_ready() const override { return false; }
  size_t queued() const override { return 0; }
  uint64_t received_count() const override { return received_; }

 private:
  int fd_;
  uint16_t port_;
  qserv::vt::Platform& platform_;
  int64_t rt_offset_;
  uint32_t overflow_ = 0;
  uint64_t received_ = 0;
  std::vector<uint8_t> buf_;
};

class UdpEndpoints final : public Endpoints {
 public:
  UdpEndpoints(qserv::vt::Platform& platform)
      : platform_(platform), offset_(mono_offset(platform)) {}
  ~UdpEndpoints() override {
    sockets_.clear();
    if (timer_fd_ >= 0) ::close(timer_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  bool open(int players, std::string* error) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (epoll_fd_ < 0 || timer_fd_ < 0) {
      *error = std::string("epoll/timerfd: ") + std::strerror(errno);
      return false;
    }
    epoll_event tev{};
    tev.events = EPOLLIN;
    tev.data.u32 = kTimerTag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev);
    const int64_t rt = realtime_offset(platform_);
    for (int i = 0; i < players; ++i) {
      const int fd =
          ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
      ::setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = 0;  // the kernel picks a free ephemeral port
      socklen_t len = sizeof(addr);
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
              0 ||
          ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        *error = std::string("bind: ") + std::strerror(errno);
        ::close(fd);
        return false;
      }
      sockets_.push_back(
          std::make_unique<UdpSocket>(fd, ntohs(addr.sin_port), platform_, rt));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    }
    return true;
  }

  net::Socket& socket(int player) override {
    return *sockets_[static_cast<size_t>(player)];
  }

  void wait(int64_t deadline_ns, const std::vector<char>&,
            std::vector<int>& ready) override {
    ready.clear();
    const int64_t now = platform_.now().ns;
    int timeout = 0;
    if (deadline_ns > now) {
      const int64_t mono = deadline_ns + offset_;
      itimerspec its{};
      its.it_value.tv_sec = mono / 1'000'000'000;
      its.it_value.tv_nsec = mono % 1'000'000'000;
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
      timeout = -1;
    }
    epoll_event evs[512];
    const int n = ::epoll_wait(epoll_fd_, evs, 512, timeout);
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.u32 == kTimerTag) {
        uint64_t v = 0;
        [[maybe_unused]] ssize_t r = ::read(timer_fd_, &v, sizeof(v));
      } else {
        ready.push_back(static_cast<int>(evs[i].data.u32));
      }
    }
  }

  uint64_t overflow_drops() const override {
    uint64_t n = 0;
    for (const auto& s : sockets_) n += s->overflow();
    return n;
  }

 private:
  qserv::vt::Platform& platform_;
  int64_t offset_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::vector<std::unique_ptr<UdpSocket>> sockets_;
};

}  // namespace

std::unique_ptr<Endpoints> make_virtual_endpoints(net::Transport& net,
                                                  qserv::vt::Platform& platform,
                                                  uint16_t first_port,
                                                  int players) {
  return std::make_unique<VirtualEndpoints>(net, platform, first_port, players);
}

std::unique_ptr<Endpoints> make_udp_endpoints(qserv::vt::Platform& platform,
                                              int players, std::string* error) {
  auto ep = std::make_unique<UdpEndpoints>(platform);
  if (!ep->open(players, error)) return nullptr;
  return ep;
}

// ---------------------------------------------------------------------------

Generator::Generator(qserv::vt::Platform& platform,
                     const qserv::spatial::GameMap& map, Endpoints& endpoints,
                     Config cfg)
    : platform_(platform),
      map_(map),
      ep_(endpoints),
      cfg_(std::move(cfg)),
      players_(cfg_.join_ports.size()),
      schedule_(cfg_.layout, cfg_.ticks_per_layout, cfg_.period_ns, 0) {
  for (size_t i = 0; i < players_.size(); ++i) {
    Player& pl = players_[i];
    pl.name = "pb-" + std::to_string(i);
    qserv::bots::Bot::Config bc;  // default behaviour
    bc.seed = qserv::derive_seed(cfg_.seed, 1000 + i);
    pl.bot = std::make_unique<qserv::bots::Bot>(map_, bc);
    pl.chan = std::make_unique<net::NetChannel>(ep_.socket(static_cast<int>(i)),
                                                cfg_.join_ports[i]);
  }
}

Generator::~Generator() { stop(); }

void Generator::start() {
  thread_ = std::thread([this] { loop(); });
}

void Generator::stop() {
  stop_.store(true);
  if (!thread_.joinable()) return;
  thread_.join();
  expire_all(platform_.now().ns);
}

void Generator::set_windows(int64_t w0_ns, int64_t len_ns, int count) {
  w0_.store(w0_ns);
  window_len_.store(len_ns);
  window_count_.store(count);
}

Generator::Window* Generator::window_at(int64_t t) {
  if (result_.windows.empty()) {
    const int n = window_count_.load();
    if (n == 0) return nullptr;
    const int64_t w0 = w0_.load();
    const int64_t len = window_len_.load();
    result_.windows.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      result_.windows[static_cast<size_t>(i)].tally.w0 = w0 + i * len;
      result_.windows[static_cast<size_t>(i)].tally.w1 = w0 + (i + 1) * len;
    }
  }
  const int64_t w0 = result_.windows.front().tally.w0;
  const int64_t len = result_.windows.front().tally.w1 - w0;
  if (t < w0) return nullptr;
  const auto i = static_cast<size_t>((t - w0) / len);
  return i < result_.windows.size() ? &result_.windows[i] : nullptr;
}

void Generator::send_connect(int p, int64_t now) {
  Player& pl = players_[static_cast<size_t>(p)];
  pl.connect_sent_ns = now;
  pl.chan->send(net::encode(net::ConnectMsg{pl.name}));
}

void Generator::prepare_move(int p, int64_t due) {
  Player& pl = players_[static_cast<size_t>(p)];
  net::MoveCmd cmd = pl.bot->think(pl.last, pl.id, qserv::vt::TimePoint{due},
                                   static_cast<uint16_t>(cfg_.period_ns / 1'000'000));
  cmd.baseline_frame = pl.latest_frame;
  pl.next_move = net::encode(cmd);
  pl.next_seq = cmd.sequence;
  pl.next_due = due;
}

void Generator::send_move(const OpenLoopSchedule::Event& ev, int64_t now) {
  const int64_t t0 = cfg_.traced ? mono_ns() : 0;
  const int p = ev.player;
  const int64_t due = ev.due_ns;
  Player& pl = players_[static_cast<size_t>(p)];
  if (pl.next_due != due) prepare_move(p, due);
  pl.ledger.sent(pl.next_seq, due);
  pl.last_tick = ev.tick;
  pl.sent_any = true;
  pl.next_due = -1;
  if (Window* w = window_at(due)) {
    w->tally.on_due(due);
    w->lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
    w->lag_due_ns.push_back(due);
  }
  if (!pl.chan->send(std::move(pl.next_move))) ++result_.send_failures;
  if (cfg_.traced) {
    SpanLog& log = SpanLog::instance();
    if (log.recording())
      log.record(SpanName::kGenSend, t0, mono_ns(),
                 (static_cast<int64_t>(p) << 32) | pl.next_seq);
  }
}

void Generator::on_snapshot(int p, Player& pl, net::Snapshot& snap,
                            int64_t arrival_ns) {
  ++result_.replies;
  const MoveLedger::Check check = pl.ledger.reply(
      snap.ack_sequence, snap.client_time_echo_ns, arrival_ns,
      [this](int64_t due, int64_t response) {
        if (Window* w = window_at(due)) w->tally.on_answer(due, response);
      });
  if (check == MoveLedger::Check::kAckRegressed) ++result_.ack_regressed;
  else if (check != MoveLedger::Check::kOk) ++result_.echo_mismatch;
  if (Window* w = window_at(arrival_ns)) {
    ++w->replies;
    w->entities += snap.entities.size();
    w->events += snap.events.size();
  }
  Player::Baseline& b = pl.baselines[pl.next_baseline];
  pl.next_baseline = (pl.next_baseline + 1) % pl.baselines.size();
  b.frame = snap.server_frame;
  b.entities.assign(snap.entities.begin(), snap.entities.end());
  pl.latest_frame = std::max(pl.latest_frame, snap.server_frame);
  if (snap.assigned_port != 0 && snap.assigned_port != pl.chan->remote())
    pl.chan->set_remote(snap.assigned_port);
  if (!pl.settled) {
    pl.settled = true;
    settled_.fetch_add(1, std::memory_order_relaxed);
  }
  std::swap(pl.last, snap);  // keeps both buffers' capacity for reuse
  // Every move answered: think about the next one now, from the newest
  // snapshot, so a tick's sends are not serialized behind the bots' AI.
  if (pl.ledger.outstanding() == 0 && pl.sent_any) {
    const int64_t next = schedule_.due(p, pl.last_tick + 1);
    if (pl.next_due != next) prepare_move(p, next);
  }
}

void Generator::receive(int p) {
  Player& pl = players_[static_cast<size_t>(p)];
  net::Socket& sock = ep_.socket(p);
  net::Datagram d;
  while (sock.try_recv(d)) {
    const int64_t t0 = cfg_.traced ? mono_ns() : 0;
    net::NetChannel::Incoming info;
    net::ByteReader body(nullptr, 0);
    net::ServerMsgType type{};
    if (!pl.chan->accept(d, info, body) ||
        !net::decode_server_type(body, type)) {
      ++result_.malformed;
      continue;
    }
    if (info.duplicate_or_old) {
      ++result_.duplicates;
      continue;
    }
    net::Snapshot& snap = scratch_;
    bool ok = true;
    switch (type) {
      case net::ServerMsgType::kConnectAck: {
        net::ConnectAck ack;
        ok = net::decode(body, ack);
        if (ok && !pl.connected) {
          pl.connected = true;
          pl.id = ack.player_id;
          pl.last.origin = ack.spawn_origin;
          if (ack.assigned_port != 0) pl.chan->set_remote(ack.assigned_port);
          connected_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case net::ServerMsgType::kSnapshot:
        ok = net::decode(body, snap);
        break;
      case net::ServerMsgType::kDeltaSnapshot:
        ok = net::decode_delta(
            body,
            [&pl](uint32_t frame) -> const std::vector<net::EntityUpdate>* {
              for (const Player::Baseline& b : pl.baselines)
                if (b.frame == frame && frame != 0) return &b.entities;
              return nullptr;
            },
            snap);
        break;
      case net::ServerMsgType::kReject:
        ++result_.rejects;
        break;
      default:
        ok = false;
    }
    if (!ok) {
      ++result_.malformed;
      continue;
    }
    const bool is_snapshot = type == net::ServerMsgType::kSnapshot ||
                             type == net::ServerMsgType::kDeltaSnapshot;
    Window* w = cfg_.traced ? window_at(d.sent_at.ns) : nullptr;
    if (w != nullptr) {
      const int64_t t1 = mono_ns();
      w->decode_ns += static_cast<uint64_t>(t1 - t0);
      ++w->decodes;
      SpanLog& log = SpanLog::instance();
      if (log.recording() && is_snapshot)
        log.record(SpanName::kGenDecode, t0, t1,
                   (static_cast<int64_t>(p) << 32) | snap.ack_sequence);
    }
    if (is_snapshot) on_snapshot(p, pl, snap, d.sent_at.ns);
  }
}

void Generator::expire_all(int64_t now) {
  for (size_t i = 0; i < players_.size(); ++i) {
    Player& pl = players_[i];
    pl.ledger.expire(now, [this](int64_t due) {
      if (Window* w = window_at(due)) w->tally.on_fail(due);
    });
    if (!pl.connected && now - pl.connect_sent_ns > kConnectRetryNs &&
        !stop_.load(std::memory_order_relaxed))
      send_connect(static_cast<int>(i), now);
  }
}

void Generator::loop() {
  cpu_clock_.store(this_thread_cpu_clock());
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  running_.store(true);
  int64_t now = platform_.now().ns;
  schedule_ = OpenLoopSchedule(cfg_.layout, cfg_.ticks_per_layout,
                               cfg_.period_ns, now + 1'000'000);
  for (int p = 0; p < players(); ++p) send_connect(p, now);
  std::vector<char> watched(players_.size());
  std::vector<int> ready;
  int64_t next_sweep = now + kSweepNs;
  while (!stop_.load(std::memory_order_relaxed)) {
    now = platform_.now().ns;
    last_loop_ns_.store(mono_ns(), std::memory_order_relaxed);
    while (schedule_.peek().due_ns <= now) {
      const OpenLoopSchedule::Event ev = schedule_.peek();
      schedule_.pop();
      if (players_[static_cast<size_t>(ev.player)].connected)
        send_move(ev, platform_.now().ns);
    }
    if (now >= next_sweep) {
      expire_all(now);
      next_sweep = now + kSweepNs;
    }
    for (size_t i = 0; i < players_.size(); ++i)
      watched[i] = !players_[i].settled || players_[i].ledger.outstanding() > 0;
    ep_.wait(std::min(schedule_.peek().due_ns, next_sweep), watched, ready);
    for (const int p : ready) receive(p);
  }
  running_.store(false);
}

}  // namespace perfbench
