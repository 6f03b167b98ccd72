#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/rng.hpp"

namespace perfbench {

Percentile percentile(std::vector<double> v, double q) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx =
      std::clamp<size_t>(static_cast<size_t>(rank), 1, v.size()) - 1;
  out.value = v[idx];
  const auto above = std::upper_bound(v.begin(), v.end(), out.value);
  out.beyond = static_cast<size_t>(v.end() - above);
  return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5).value; }

SlicedPercentile sliced_percentile(const std::vector<int64_t>& at,
                                   const std::vector<double>& values,
                                   int64_t w0, int64_t w1, int64_t slice_ns,
                                   double q) {
  SlicedPercentile out;
  if (slice_ns <= 0 || w1 <= w0) return out;
  const auto n = static_cast<size_t>((w1 - w0 + slice_ns - 1) / slice_ns);
  std::vector<std::vector<double>> bins(n);
  for (size_t i = 0; i < at.size() && i < values.size(); ++i) {
    if (at[i] < w0 || at[i] >= w1) continue;
    bins[static_cast<size_t>((at[i] - w0) / slice_ns)].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (auto& b : bins) {
    if (b.empty()) continue;
    out.slices.push_back(percentile(std::move(b), q));
    per_slice.push_back(out.slices.back().value);
  }
  out.median = median(std::move(per_slice));
  return out;
}

OpenLoopSchedule::OpenLoopSchedule(Layout layout, uint64_t ticks_per_layout,
                                   int64_t period_ns, int64_t start_ns)
    : layout_(std::move(layout)),
      ticks_per_layout_(std::max<uint64_t>(ticks_per_layout, 1)),
      period_ns_(period_ns),
      start_ns_(start_ns) {
  phases_ = layout_(0);
  deal(0);
}

void OpenLoopSchedule::deal(uint64_t layout_index) {
  if (layout_index != layout_index_) {
    phases_ = next_phases_.empty() ? layout_(layout_index)
                                   : std::move(next_phases_);
    next_phases_.clear();
    layout_index_ = layout_index;
  }
  order_.resize(phases_.size());
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
    return phases_[static_cast<size_t>(a)] < phases_[static_cast<size_t>(b)];
  });
}

int64_t OpenLoopSchedule::due(int player, uint64_t tick) {
  const uint64_t index = tick / ticks_per_layout_;
  const std::vector<int64_t>* phases = &phases_;
  if (index != layout_index_) {
    if (next_phases_.empty()) next_phases_ = layout_(layout_index_ + 1);
    phases = &next_phases_;
  }
  return start_ns_ + (*phases)[static_cast<size_t>(player)] +
         static_cast<int64_t>(tick) * period_ns_;
}

std::vector<int64_t> OpenLoopSchedule::uniform_phases(int players,
                                                      int64_t period_ns,
                                                      uint64_t seed) {
  // Stratified: the tick is cut into one slot per player, players are
  // dealt to slots in a random order, and each phase is uniform within its
  // slot. Independent uniform phases would leave seed-specific clumps that
  // repeat every tick and set the tail latency by themselves.
  qserv::Rng rng(seed);
  const auto n = static_cast<size_t>(players);
  std::vector<size_t> slot(n);
  std::iota(slot.begin(), slot.end(), size_t{0});
  for (size_t i = n; i > 1; --i)
    std::swap(slot[i - 1], slot[rng.below(i)]);
  const int64_t width = period_ns / std::max(players, 1);
  std::vector<int64_t> out(n);
  for (size_t i = 0; i < n; ++i)
    out[i] = static_cast<int64_t>(slot[i]) * width +
             static_cast<int64_t>(rng.below(static_cast<uint64_t>(width)));
  return out;
}

std::vector<int64_t> OpenLoopSchedule::burst_phases(int players) {
  return std::vector<int64_t>(static_cast<size_t>(players), 0);
}

OpenLoopSchedule::Event OpenLoopSchedule::peek() const {
  const int p = order_[pos_];
  return {p, tick_,
          start_ns_ + phases_[static_cast<size_t>(p)] +
              static_cast<int64_t>(tick_) * period_ns_};
}

void OpenLoopSchedule::pop() {
  if (++pos_ == order_.size()) {
    pos_ = 0;
    ++tick_;
    if (tick_ % ticks_per_layout_ == 0) deal(tick_ / ticks_per_layout_);
  }
}

void MoveLedger::sent(uint32_t seq, int64_t due_ns) {
  open_.push_back({seq, due_ns});
  history_[seq % kHistory] = {seq, due_ns};
}

MoveLedger::Check MoveLedger::reply(
    uint32_t ack, int64_t echo_ns, int64_t arrival_ns,
    const std::function<void(int64_t, int64_t)>& answer) {
  if (ack < last_ack_) return Check::kAckRegressed;
  if (ack == 0) return echo_ns == 0 ? Check::kOk : Check::kEchoMismatch;
  const Move& h = history_[ack % kHistory];
  if (h.seq != ack) return Check::kUnknownAck;
  if (h.due_ns != echo_ns) return Check::kEchoMismatch;
  last_ack_ = ack;
  while (!open_.empty() && open_.front().seq <= ack) {
    answer(open_.front().due_ns, arrival_ns - open_.front().due_ns);
    open_.pop_front();
  }
  return Check::kOk;
}

void MoveLedger::expire(int64_t now_ns,
                        const std::function<void(int64_t)>& fail) {
  while (!open_.empty() && now_ns - open_.front().due_ns > kFailAfterNs) {
    fail(open_.front().due_ns);
    open_.pop_front();
  }
}

void Tally::on_answer(int64_t due_ns, int64_t response_ns) {
  if (!in_window(due_ns)) return;
  if (response_ns > kFailAfterNs) {
    ++failed;
    return;
  }
  ++answered;
  response_ms.push_back(static_cast<double>(response_ns) * 1e-6);
  response_due_ns.push_back(due_ns);
}

std::vector<int64_t> self_times(const std::vector<Interval>& spans) {
  std::vector<size_t> idx(spans.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  // Parents before their children: earlier start first, longer first.
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    if (spans[a].start != spans[b].start) return spans[a].start < spans[b].start;
    return spans[a].end > spans[b].end;
  });
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  std::vector<size_t> open;  // chain of enclosing spans
  for (const size_t i : idx) {
    while (!open.empty() && spans[open.back()].end <= spans[i].start)
      open.pop_back();
    if (!open.empty()) {
      const size_t parent = open.back();
      self[parent] -= std::min(spans[i].end, spans[parent].end) - spans[i].start;
    }
    open.push_back(i);
  }
  return self;
}

}  // namespace perfbench
