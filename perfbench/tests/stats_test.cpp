// Unit tests for the benchmark's statistics and scheduling code.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankAndSamplesBeyond) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p50 = percentile(v, 0.50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p99 = percentile(v, 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_EQ(percentile(v, 1.0).value, 100.0);
  EXPECT_EQ(percentile(v, 1.0).beyond, 0u);
}

TEST(Percentile, TiesCountOnlyStrictlyGreaterAsBeyond) {
  const Percentile p = percentile({1, 1, 1, 2}, 0.5);
  EXPECT_EQ(p.value, 1.0);
  EXPECT_EQ(p.beyond, 1u);
}

TEST(Percentile, EmptyAndSingleSample) {
  const Percentile e = percentile({}, 0.99);
  EXPECT_EQ(e.samples, 0u);
  EXPECT_EQ(e.value, 0.0);
  const Percentile one = percentile({7.5}, 0.99);
  EXPECT_EQ(one.value, 7.5);
  EXPECT_EQ(one.beyond, 0u);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
}

TEST(SlicedPercentile, MedianOverSlicesIgnoresOneBadSlice) {
  std::vector<int64_t> at;
  std::vector<double> v;
  // Three 100 ns slices of ten samples; the middle one is slow.
  for (int s = 0; s < 3; ++s)
    for (int i = 0; i < 10; ++i) {
      at.push_back(1000 + s * 100 + i);
      v.push_back(s == 1 ? 50.0 + i : 1.0 + i);
    }
  at.push_back(999);  // outside the window
  v.push_back(1e9);
  const SlicedPercentile p = sliced_percentile(at, v, 1000, 1300, 100, 0.9);
  ASSERT_EQ(p.slices.size(), 3u);
  EXPECT_EQ(p.slices[0].value, 9.0);
  EXPECT_EQ(p.slices[1].value, 58.0);
  EXPECT_EQ(p.slices[0].samples, 10u);
  EXPECT_EQ(p.slices[0].beyond, 1u);
  EXPECT_EQ(p.median, 9.0);
  EXPECT_TRUE(sliced_percentile({}, {}, 0, 100, 10, 0.5).slices.empty());
}

TEST(OpenLoopSchedule, UniformPhasesCoverEachPlayerOncePerTickInOrder) {
  const int64_t period = 33'000'000;
  const auto phases = OpenLoopSchedule::uniform_phases(50, period, 9);
  // One phase per equal slot of the tick.
  std::set<int64_t> slots;
  for (const int64_t p : phases) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, period);
    slots.insert(p / (period / 50));
  }
  EXPECT_EQ(slots.size(), 50u);
  EXPECT_EQ(phases, OpenLoopSchedule::uniform_phases(50, period, 9));
  EXPECT_NE(phases, OpenLoopSchedule::uniform_phases(50, period, 10));

  OpenLoopSchedule s([&](uint64_t) { return phases; }, 100, period, 1000);
  int64_t last = 0;
  for (uint64_t tick = 0; tick < 3; ++tick) {
    std::set<int> seen;
    for (int i = 0; i < 50; ++i) {
      const auto e = s.peek();
      s.pop();
      EXPECT_EQ(e.tick, tick);
      EXPECT_GE(e.due_ns, last);
      last = e.due_ns;
      EXPECT_EQ(e.due_ns,
                1000 + phases[static_cast<size_t>(e.player)] +
                    static_cast<int64_t>(tick) * period);
      seen.insert(e.player);
    }
    EXPECT_EQ(seen.size(), 50u);
  }
}

TEST(OpenLoopSchedule, BurstPutsEveryMoveOfATickAtOneInstant) {
  const int64_t period = 33'000'000;
  OpenLoopSchedule s([](uint64_t) { return OpenLoopSchedule::burst_phases(4); },
                     1, period, 500);
  for (uint64_t tick = 0; tick < 2; ++tick) {
    for (int i = 0; i < 4; ++i) {
      const auto e = s.peek();
      s.pop();
      EXPECT_EQ(e.player, i);  // ties by player index
      EXPECT_EQ(e.due_ns, 500 + static_cast<int64_t>(tick) * period);
    }
  }
}

TEST(OpenLoopSchedule, DealsANewLayoutEveryBlockOfTicks) {
  const int64_t period = 1000;
  auto layout = [](uint64_t index) {
    return OpenLoopSchedule::uniform_phases(8, 1000, 40 + index);
  };
  OpenLoopSchedule s(layout, 2, period, 0);
  int64_t last = -1;
  for (uint64_t tick = 0; tick < 6; ++tick) {
    const auto phases = layout(tick / 2);
    std::set<int> seen;
    for (int i = 0; i < 8; ++i) {
      if (i == 0 && tick % 2 == 1) {
        // The next tick may fall in the next layout; due() knows it.
        EXPECT_EQ(s.due(3, tick + 1),
                  layout((tick + 1) / 2)[3] + static_cast<int64_t>(tick + 1) * period);
      }
      const auto e = s.peek();
      s.pop();
      EXPECT_EQ(e.tick, tick);
      EXPECT_GT(e.due_ns, last);
      last = e.due_ns;
      EXPECT_EQ(e.due_ns, phases[static_cast<size_t>(e.player)] +
                              static_cast<int64_t>(tick) * period);
      seen.insert(e.player);
    }
    EXPECT_EQ(seen.size(), 8u);
  }
  EXPECT_NE(layout(0), layout(1));
}

struct Answers {
  std::vector<std::pair<int64_t, int64_t>> got;  // (due, response)
  std::function<void(int64_t, int64_t)> fn() {
    return [this](int64_t d, int64_t r) { got.emplace_back(d, r); };
  }
};

TEST(MoveLedger, ReplyAnswersEveryFoldedMoveUpToItsAck) {
  MoveLedger l;
  l.sent(1, 100);
  l.sent(2, 200);
  l.sent(3, 300);
  Answers a;
  // Moves 1 and 2 executed in one frame: one reply acks 2, echoes 2's due.
  EXPECT_EQ(l.reply(2, 200, 1000, a.fn()), MoveLedger::Check::kOk);
  ASSERT_EQ(a.got.size(), 2u);
  EXPECT_EQ(a.got[0], std::make_pair(int64_t{100}, int64_t{900}));
  EXPECT_EQ(a.got[1], std::make_pair(int64_t{200}, int64_t{800}));
  EXPECT_EQ(l.outstanding(), 1u);
  EXPECT_EQ(l.reply(3, 300, 1100, a.fn()), MoveLedger::Check::kOk);
  EXPECT_EQ(a.got.size(), 3u);
  EXPECT_EQ(l.outstanding(), 0u);
}

TEST(MoveLedger, RejectsRegressingAckAndWrongEcho) {
  MoveLedger l;
  l.sent(1, 100);
  l.sent(2, 200);
  Answers a;
  EXPECT_EQ(l.reply(2, 100, 500, a.fn()), MoveLedger::Check::kEchoMismatch);
  EXPECT_EQ(l.reply(2, 200, 500, a.fn()), MoveLedger::Check::kOk);
  EXPECT_EQ(l.reply(1, 100, 600, a.fn()), MoveLedger::Check::kAckRegressed);
  EXPECT_EQ(l.reply(7, 0, 600, a.fn()), MoveLedger::Check::kUnknownAck);
  EXPECT_EQ(a.got.size(), 2u);
}

TEST(MoveLedger, FiftyMillisecondRuleAndLateReplies) {
  MoveLedger l;
  Tally t;
  t.w0 = 0;
  t.w1 = 1'000'000'000;
  for (uint32_t s = 1; s <= 3; ++s) {
    l.sent(s, s * 1'000'000);
    t.on_due(s * 1'000'000);
  }
  // At 51.5 ms only move 1 (due 1 ms) is past the limit.
  l.expire(51'500'000, [&](int64_t d) { t.on_fail(d); });
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(l.outstanding(), 2u);
  // A reply acking 3 at 52.5 ms: move 2 is 50.5 ms late (failed), move 3
  // is 49.5 ms (answered). Move 1 is not counted twice.
  l.reply(3, 3'000'000, 52'500'000,
          [&](int64_t d, int64_t r) { t.on_answer(d, r); });
  EXPECT_EQ(t.due, 3u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_EQ(t.answered, 1u);
  ASSERT_EQ(t.response_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(t.response_ms[0], 49.5);
}

TEST(Tally, CountsOnlyMovesDueInTheWindow) {
  Tally t;
  t.w0 = 100;
  t.w1 = 200;
  t.on_due(99);
  t.on_due(100);
  t.on_due(199);
  t.on_due(200);
  t.on_answer(99, 5);
  t.on_answer(150, 5);
  t.on_fail(250);
  EXPECT_EQ(t.due, 2u);
  EXPECT_EQ(t.answered, 1u);
  EXPECT_EQ(t.failed, 0u);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // frame [0,100) holds seal [10,40) which holds a wait [20,30), and a
  // send [50,60); a select [120,150) stands alone.
  const std::vector<Interval> spans = {
      {0, 100}, {20, 30}, {10, 40}, {50, 60}, {120, 150}};
  const std::vector<int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 30);
}

TEST(SelfTime, ChildRunningPastItsParentIsClipped) {
  const std::vector<int64_t> self = self_times({{0, 10}, {5, 15}});
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 10);
}

}  // namespace
}  // namespace perfbench
