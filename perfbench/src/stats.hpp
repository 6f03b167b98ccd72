// Statistics and scheduling primitives of the benchmark. They take no
// server types, so tests/stats_test.cpp checks them on synthetic inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace perfbench {

// A move not answered this long after it was due counts as failed: four
// 12.5 ms frame budgets.
inline constexpr int64_t kFailAfterNs = 50'000'000;

// Nearest-rank percentile of a sample, with the number of samples it
// rests on and how many lie strictly above it (a tail percentile is only
// meaningful with at least ten samples beyond it).
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

// `q` in (0, 1]. An empty sample gives value 0 and no samples.
Percentile percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Percentile `q` of each `slice_ns`-long slice of [w0, w1), slicing the
// samples by their `at` stamps, and the median over the slices. The median
// keeps a second of host contention (a descheduled vCPU) from setting the
// figure for the whole run. Slices without samples are skipped.
struct SlicedPercentile {
  double median = 0.0;
  std::vector<Percentile> slices;
};
SlicedPercentile sliced_percentile(const std::vector<int64_t>& at,
                                   const std::vector<double>& values,
                                   int64_t w0, int64_t w1, int64_t slice_ns,
                                   double q);

// Open-loop move schedule: player p's move of tick k is due at
// start + phase[p] + k * period, whether or not earlier moves were
// answered. The phases are dealt afresh every `ticks_per_layout` ticks
// (layout(e) gives those of ticks e*ticks_per_layout onwards), so a run
// averages over many arrival layouts instead of repeating one. Events come
// out in due-time order (ties by player index).
class OpenLoopSchedule {
 public:
  using Layout = std::function<std::vector<int64_t>(uint64_t)>;
  OpenLoopSchedule(Layout layout, uint64_t ticks_per_layout, int64_t period_ns,
                   int64_t start_ns);

  // Phases spread uniformly over one period, one per equal slot, with the
  // players' order and their offsets within a slot drawn from `seed`.
  static std::vector<int64_t> uniform_phases(int players, int64_t period_ns,
                                             uint64_t seed);
  // Every player due at the same instant of each tick.
  static std::vector<int64_t> burst_phases(int players);

  struct Event {
    int player = 0;
    uint64_t tick = 0;
    int64_t due_ns = 0;
  };
  Event peek() const;
  void pop();
  // Due time of `player`'s move in `tick`, for a tick in the current
  // layout or the next one.
  int64_t due(int player, uint64_t tick);

 private:
  void deal(uint64_t layout_index);

  Layout layout_;
  uint64_t ticks_per_layout_;
  int64_t period_ns_;
  int64_t start_ns_;
  uint64_t layout_index_ = 0;
  std::vector<int64_t> phases_;
  std::vector<int64_t> next_phases_;  // of layout_index_ + 1, once asked for
  std::vector<int> order_;  // players sorted by phase
  size_t pos_ = 0;
  uint64_t tick_ = 0;
};

// One player's moves awaiting an answer. A reply acknowledges every
// still-unanswered move with a sequence up to its ack_sequence (the
// server folds a player's moves that land in one frame into one reply).
class MoveLedger {
 public:
  enum class Check { kOk, kAckRegressed, kEchoMismatch, kUnknownAck };

  // Sequences must be sent in increasing order.
  void sent(uint32_t seq, int64_t due_ns);

  // Applies one reply. `answer(due_ns, response_ns)` runs for each move it
  // answers, with the response time from due to `arrival_ns`. The reply
  // is checked: its ack may not fall behind an earlier one, and its echo
  // must be the due stamp of the move whose sequence it acks.
  Check reply(uint32_t ack, int64_t echo_ns, int64_t arrival_ns,
              const std::function<void(int64_t, int64_t)>& answer);

  // Moves still unanswered kFailAfterNs after their due time are dropped
  // from the ledger; `fail(due_ns)` runs for each.
  void expire(int64_t now_ns, const std::function<void(int64_t)>& fail);

  size_t outstanding() const { return open_.size(); }

 private:
  struct Move {
    uint32_t seq = 0;
    int64_t due_ns = 0;
  };
  static constexpr size_t kHistory = 256;  // due stamps kept for echo checks

  std::deque<Move> open_;
  Move history_[kHistory] = {};
  uint32_t last_ack_ = 0;
};

// Window filter over move outcomes: only moves due in [w0, w1) count.
// A reply later than kFailAfterNs is a failure, not a sample.
struct Tally {
  int64_t w0 = 0;
  int64_t w1 = 0;
  uint64_t due = 0;
  uint64_t answered = 0;
  uint64_t failed = 0;
  std::vector<double> response_ms;
  std::vector<int64_t> response_due_ns;  // due stamp of each sample

  bool in_window(int64_t due_ns) const { return due_ns >= w0 && due_ns < w1; }
  void on_due(int64_t due_ns) {
    if (in_window(due_ns)) ++due;
  }
  void on_answer(int64_t due_ns, int64_t response_ns);
  void on_fail(int64_t due_ns) {
    if (in_window(due_ns)) ++failed;
  }
};

// A span on one thread. Spans of one thread nest or are disjoint.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

// Self time of each span: its duration minus the time its direct children
// cover. Result is in input order.
std::vector<int64_t> self_times(const std::vector<Interval>& spans);

}  // namespace perfbench
