// Open-loop load generator: one thread multiplexes every player. Each
// player is a session with its own bots::Bot, netchan and protocol
// decode; its moves fall due every period whether or not replies came
// back, and every reply is checked and matched to the moves it answers.
#pragma once

#include <time.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/bots/bot.hpp"
#include "src/net/netchan.hpp"
#include "src/net/protocol.hpp"
#include "src/net/transport.hpp"
#include "src/vthread/platform.hpp"
#include "stats.hpp"

namespace perfbench {

// The players' sockets and how the generator thread waits on them. A
// datagram's sent_at carries its arrival stamp on the generator's clock.
class Endpoints {
 public:
  virtual ~Endpoints() = default;
  virtual qserv::net::Socket& socket(int player) = 0;
  // Blocks until `deadline_ns` or until a datagram may be waiting, then
  // lists the players worth polling. `watched` marks players that expect
  // a datagram (for transports that cannot report readiness).
  virtual void wait(int64_t deadline_ns, const std::vector<char>& watched,
                    std::vector<int>& ready) = 0;
  // Receive-buffer drops seen on the players' sockets.
  virtual uint64_t overflow_drops() const { return 0; }
};

// Players on the in-process virtual network (latency 0, so a datagram's
// send stamp is its arrival stamp). Polls watched players.
std::unique_ptr<Endpoints> make_virtual_endpoints(
    qserv::net::Transport& net, qserv::vt::Platform& platform,
    uint16_t first_port, int players);

// Players on kernel UDP sockets bound to distinct ephemeral loopback ports
// (the server names a player by its source port), all behind one epoll.
// Arrival stamps are the kernel receive timestamps. Null on failure.
std::unique_ptr<Endpoints> make_udp_endpoints(qserv::vt::Platform& platform,
                                              int players, std::string* error);

class Generator {
 public:
  struct Config {
    std::vector<uint16_t> join_ports;  // per player
    OpenLoopSchedule::Layout layout;   // per-player phases, per layout
    uint64_t ticks_per_layout = 1;
    int64_t period_ns = 33'000'000;
    uint64_t seed = 1;
    bool traced = false;
  };

  Generator(qserv::vt::Platform& platform, const qserv::spatial::GameMap& map,
            Endpoints& endpoints, Config cfg);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void start();
  // Stops and joins the thread, then fails every move still unanswered
  // past the limit.
  void stop();

  // Measurement windows: `count` back-to-back windows of `len_ns` from
  // `w0_ns`; a move belongs to the window its due time falls in. Set once,
  // before w0.
  void set_windows(int64_t w0_ns, int64_t len_ns, int count);

  int players() const { return static_cast<int>(players_.size()); }
  int connected() const { return connected_.load(std::memory_order_relaxed); }
  int settled() const { return settled_.load(std::memory_order_relaxed); }
  clockid_t cpu_clock() const { return cpu_clock_.load(); }
  bool running() const { return running_.load(); }
  // mono_ns() at the generator loop's last turn.
  int64_t last_loop_ns() const { return last_loop_ns_.load(std::memory_order_relaxed); }

  // Outcomes of the moves due in one window, and of the snapshots arriving
  // in it.
  struct Window {
    Tally tally;
    std::vector<double> lag_ms;  // send time - due time
    std::vector<int64_t> lag_due_ns;
    uint64_t replies = 0;
    uint64_t entities = 0;
    uint64_t events = 0;
    uint64_t decode_ns = 0;  // traced only
    uint64_t decodes = 0;
  };

  // Read after stop().
  struct Result {
    std::vector<Window> windows;
    uint64_t replies = 0;        // snapshots received, whole run
    uint64_t malformed = 0;      // failed netchan / protocol decode
    uint64_t duplicates = 0;     // netchan duplicate or out of order
    uint64_t ack_regressed = 0;
    uint64_t echo_mismatch = 0;
    uint64_t rejects = 0;        // kReject messages of any reason
    uint64_t send_failures = 0;  // sends the socket refused, whole run
  };
  const Result& result() const { return result_; }

 private:
  struct Player {
    std::unique_ptr<qserv::net::NetChannel> chan;
    std::unique_ptr<qserv::bots::Bot> bot;
    std::string name;
    uint32_t id = 0;
    bool connected = false;
    bool settled = false;
    int64_t connect_sent_ns = 0;
    MoveLedger ledger;
    qserv::net::Snapshot last;
    // The last few reconstructed snapshots, which the server may delta
    // against: a move advertises the newest as its baseline_frame.
    struct Baseline {
      uint32_t frame = 0;
      std::vector<qserv::net::EntityUpdate> entities;
    };
    std::array<Baseline, 4> baselines;
    size_t next_baseline = 0;
    uint32_t latest_frame = 0;
    uint64_t last_tick = 0;  // schedule tick of the last move sent
    bool sent_any = false;
    // The next move, encoded ahead of its due time (-1: none yet).
    std::vector<uint8_t> next_move;
    uint32_t next_seq = 0;
    int64_t next_due = -1;
  };

  void loop();
  void send_connect(int p, int64_t now);
  void prepare_move(int p, int64_t due);
  void send_move(const OpenLoopSchedule::Event& ev, int64_t now);
  void receive(int p);
  void on_snapshot(int p, Player& pl, qserv::net::Snapshot& snap,
                   int64_t arrival_ns);
  void expire_all(int64_t now);
  Window* window_at(int64_t t);

  qserv::vt::Platform& platform_;
  const qserv::spatial::GameMap& map_;
  Endpoints& ep_;
  Config cfg_;
  std::vector<Player> players_;
  OpenLoopSchedule schedule_;
  Result result_;
  qserv::net::Snapshot scratch_;  // decode buffer, swapped into Player::last

  std::atomic<int64_t> w0_{0};
  std::atomic<int64_t> window_len_{0};
  std::atomic<int> window_count_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<int> connected_{0};
  std::atomic<int> settled_{0};
  std::atomic<int64_t> last_loop_ns_{0};
  std::atomic<clockid_t> cpu_clock_{};
  std::thread thread_;  // last: joins before the members above die
};

}  // namespace perfbench
