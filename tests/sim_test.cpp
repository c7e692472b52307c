// Unit tests: discrete-event simulator (ordering, cancellation, timers).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace bcp::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Simulator, ProcessesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesDuringCallback) {
  Simulator s;
  s.schedule_at(5.0, [&] { EXPECT_DOUBLE_EQ(s.now(), 5.0); });
  s.run();
}

TEST(Simulator, CallbackCanScheduleMore) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] {
    ++fired;
    s.schedule_in(1.0, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, ScheduleInUsesCurrentTime) {
  Simulator s;
  double fired_at = -1;
  s.schedule_at(2.0, [&] {
    s.schedule_in(0.5, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const auto h = s.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.is_pending(h));
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.is_pending(h));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DoubleCancelReturnsFalse) {
  Simulator s;
  const auto h = s.schedule_at(1.0, [] {});
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator s;
  const auto h = s.schedule_at(1.0, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(h));
  EXPECT_FALSE(s.is_pending(h));
}

TEST(Simulator, InvalidHandleNeverPending) {
  Simulator s;
  EXPECT_FALSE(s.is_pending(Simulator::EventHandle{}));
  EXPECT_FALSE(s.cancel(Simulator::EventHandle{}));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator s;
  std::vector<double> fired;
  s.schedule_at(1.0, [&] { fired.push_back(1.0); });
  s.schedule_at(2.0, [&] { fired.push_back(2.0); });
  s.schedule_at(5.0, [&] { fired.push_back(5.0); });
  s.run_until(3.0);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);  // clock parked at the horizon
  EXPECT_EQ(s.pending_count(), 1u);
  s.run_until(10.0);
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator s;
  bool fired = false;
  s.schedule_at(3.0, [&] { fired = true; });
  s.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsProcessing) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] {
    ++fired;
    s.stop();
  });
  s.schedule_at(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator s;
  s.schedule_at(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator s;
  EXPECT_THROW(s.schedule_at(1.0, nullptr), std::invalid_argument);
}

TEST(Simulator, ProcessedCountSkipsCancelled) {
  Simulator s;
  const auto h = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  s.cancel(h);
  s.run();
  EXPECT_EQ(s.processed_count(), 1u);
}

TEST(Simulator, CancelRemovesFromQueueImmediately) {
  Simulator s;
  const auto h1 = s.schedule_at(1.0, [] {});
  const auto h2 = s.schedule_at(2.0, [] {});
  EXPECT_EQ(s.pending_count(), 2u);
  EXPECT_TRUE(s.cancel(h1));
  // pending_count() counts live events only: the cancelled event's heap
  // entry may linger as a stale record, but it is never counted or run.
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_TRUE(s.is_pending(h2));
  s.run();
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Simulator, CancelHeadOfQueuePreservesOrdering) {
  Simulator s;
  std::vector<int> order;
  const auto head = s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.cancel(head);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(Simulator, CancelFromWithinCallback) {
  Simulator s;
  bool fired = false;
  const auto victim = s.schedule_at(5.0, [&] { fired = true; });
  s.schedule_at(1.0, [&] { EXPECT_TRUE(s.cancel(victim)); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
}

TEST(Simulator, CancelInterleavedWithScheduling) {
  // Randomized stress against a reference model: every event either fires
  // exactly once in (time, FIFO) order or was cancelled and never fires.
  Simulator s;
  std::mt19937_64 rng(7);
  std::vector<Simulator::EventHandle> handles;
  std::vector<int> fired(4000, 0);
  std::vector<bool> cancelled(4000, false);
  for (int i = 0; i < 4000; ++i) {
    const double t = static_cast<double>(rng() % 997) / 7.0;
    handles.push_back(s.schedule_at(t, [&fired, i] { ++fired[static_cast<std::size_t>(i)]; }));
    if (i % 3 == 0) {
      const auto victim = static_cast<std::size_t>(rng() % handles.size());
      if (s.cancel(handles[victim])) cancelled[victim] = true;
    }
  }
  s.schedule_at(1e9, [] {});  // sentinel keeping the run alive to the end
  const std::size_t live = s.pending_count();
  s.run();
  std::uint64_t expected_fires = 0;
  for (int i = 0; i < 4000; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)],
              cancelled[static_cast<std::size_t>(i)] ? 0 : 1);
    if (!cancelled[static_cast<std::size_t>(i)]) ++expected_fires;
  }
  EXPECT_EQ(s.processed_count(), expected_fires + 1);  // + sentinel
  EXPECT_EQ(live, expected_fires + 1);
}

TEST(Simulator, CancelHeavyChurnKeepsHeapConsistent) {
  // Schedule/cancel/dispatch churn with many equal timestamps, verifying
  // (time, seq) order end to end.
  Simulator s;
  std::vector<std::pair<double, int>> fired;
  std::vector<Simulator::EventHandle> handles;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      const double t = static_cast<double>((round * 40 + i) % 13);
      const int tag = round * 40 + i;
      handles.push_back(
          s.schedule_at(t, [&fired, t, tag, &s] {
            EXPECT_DOUBLE_EQ(s.now(), t);
            fired.emplace_back(t, tag);
          }));
    }
    for (std::size_t i = round; i < handles.size(); i += 7)
      s.cancel(handles[i]);
  }
  s.run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);  // FIFO within a time
    }
  }
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator s;
  double last = -1;
  for (int i = 0; i < 20000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000) / 10.0;
    s.schedule_at(t, [&last, &s] {
      EXPECT_GE(s.now(), last);
      last = s.now();
    });
  }
  s.run();
  EXPECT_EQ(s.processed_count(), 20000u);
}

TEST(Simulator, FarFutureTimerRearmedPerEventKeepsOrderAndCount) {
  // Every dispatched event re-arms one far-future timer, as a MAC re-arms
  // its ack timeout: each re-arm leaves a stale heap entry that never
  // reaches the front. Four tickers with clashing periods check that the
  // (time, seq) order survives the stale entries and their purges, and
  // pending_count() is checked against a model after every event.
  constexpr std::uint64_t kEvents = 100000;
  constexpr std::uint64_t kTickers = 4;
  Simulator s;
  Simulator::EventHandle timer;
  std::uint64_t dispatched = 0;
  bool timer_fired = false;
  std::uint64_t next_tag = 0;
  int count_mismatches = 0;
  std::vector<std::pair<double, std::uint64_t>> fired;
  fired.reserve(kEvents);
  std::function<void(std::uint64_t)> arm_ticker;
  std::function<void(std::uint64_t, std::uint64_t)> tick =
      [&](std::uint64_t ticker, std::uint64_t tag) {
        fired.emplace_back(s.now(), tag);
        ++dispatched;
        s.cancel(timer);
        timer = s.schedule_in(1e6, [&] { timer_fired = true; });
        if (next_tag < kEvents) arm_ticker(ticker);
        // Live: the tickers scheduled but not yet fired, plus the timer.
        if (s.pending_count() != next_tag - dispatched + 1) ++count_mismatches;
      };
  arm_ticker = [&](std::uint64_t ticker) {
    const double period = 0.25 * static_cast<double>(1 + ticker % 2);
    const std::uint64_t tag = next_tag++;
    s.schedule_in(period, [&tick, ticker, tag] { tick(ticker, tag); });
  };
  for (std::uint64_t k = 0; k < kTickers; ++k) arm_ticker(k);
  s.run_until(1e5);
  EXPECT_EQ(count_mismatches, 0);
  ASSERT_EQ(fired.size(), kEvents);
  for (std::size_t i = 1; i < fired.size(); ++i)
    ASSERT_TRUE(fired[i - 1] < fired[i]) << "event " << i << " out of order";
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_TRUE(s.cancel(timer));
  EXPECT_EQ(s.pending_count(), 0u);
  s.run();
  EXPECT_FALSE(timer_fired);
  EXPECT_DOUBLE_EQ(s.now(), 1e5);  // stale entries never move the clock
  EXPECT_EQ(s.processed_count(), kEvents);
}

TEST(Simulator, RunUntilSkipsStaleFrontAndLandsOnEnd) {
  // A cancelled event at or before `end` sits in front of a live one
  // after it. run_until must discard it, run nothing and park the clock on
  // `end`; an event the caller then schedules just past `end` (the sharded
  // engine delivers each window's remote frames this way) fires first.
  Simulator s;
  std::vector<int> order;
  const auto early = s.schedule_at(1.0, [&] { order.push_back(1); });
  const auto at_end = s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(5.0, [&] { order.push_back(5); });
  ASSERT_TRUE(s.cancel(early));
  ASSERT_TRUE(s.cancel(at_end));
  s.run_until(2.0);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.processed_count(), 0u);
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_TRUE(order.empty());
  s.schedule_at(2.0 + 1e-9, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{3, 5}));
  EXPECT_EQ(s.processed_count(), 2u);
}

// ---- Restartable timers --------------------------------------------------
// A protocol timer is a handle re-armed cancel-then-schedule (see
// Simulator::EventHandle); these pin the behaviours the MACs rely on.

TEST(Simulator, HandleTimerFiresAfterDelay) {
  Simulator s;
  int fired = 0;
  const auto h = s.schedule_in(2.0, [&] { ++fired; });
  EXPECT_TRUE(s.is_pending(h));
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_FALSE(s.is_pending(h));
}

TEST(Simulator, HandleTimerRearmSupersedesPreviousDeadline) {
  Simulator s;
  int fired = 0;
  double fired_at = -1;
  Simulator::EventHandle h;
  const auto arm = [&](double delay) {
    s.cancel(h);
    h = s.schedule_in(delay, [&] {
      ++fired;
      fired_at = s.now();
    });
  };
  arm(2.0);
  s.schedule_at(1.0, [&] { arm(5.0); });  // re-arm before expiry
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(fired_at, 6.0);
}

TEST(Simulator, HandleTimerCancelStopsExpiry) {
  Simulator s;
  int fired = 0;
  Simulator::EventHandle h = s.schedule_in(2.0, [&] { ++fired; });
  s.schedule_at(1.0, [&] { EXPECT_TRUE(s.cancel(h)); });
  s.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(s.is_pending(h));
  EXPECT_FALSE(s.cancel(h));  // a second cancel is a no-op
}

TEST(Simulator, HandleTimerRearmFromWithinItsCallback) {
  Simulator s;
  int fired = 0;
  Simulator::EventHandle h;
  std::function<void()> on_expiry = [&] {
    EXPECT_FALSE(s.is_pending(h));  // its own handle is already spent
    if (++fired < 3) {
      s.cancel(h);  // the fired handle: a no-op, as in every re-arm
      h = s.schedule_in(1.0, [&] { on_expiry(); });
    }
  };
  h = s.schedule_in(1.0, [&] { on_expiry(); });
  s.run();
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_FALSE(s.is_pending(h));
}

// ---- Slot recycling / generation stamping -------------------------------
// Event ids pack (generation, slot); a recycled slot must never revive a
// stale handle. These are the cases an unordered_map side table got for
// free and the slot vector must prove.

TEST(Simulator, CancelledSlotReuseKeepsStaleHandleDead) {
  Simulator s;
  bool first_fired = false;
  bool second_fired = false;
  const auto a = s.schedule_at(1.0, [&] { first_fired = true; });
  ASSERT_TRUE(s.cancel(a));
  // The next schedule reuses a's slot (LIFO free list); its handle must be
  // distinct and a's handle must stay dead in every operation.
  const auto b = s.schedule_at(2.0, [&] { second_fired = true; });
  EXPECT_NE(a.id, b.id);
  EXPECT_FALSE(s.is_pending(a));
  EXPECT_TRUE(s.is_pending(b));
  EXPECT_FALSE(s.cancel(a));  // must NOT cancel b through a's stale handle
  s.run();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, FiredSlotReuseKeepsStaleHandleDead) {
  Simulator s;
  const auto a = s.schedule_at(1.0, [] {});
  s.run();
  bool fired = false;
  const auto b = s.schedule_at(2.0, [&] { fired = true; });
  EXPECT_NE(a.id, b.id);
  EXPECT_FALSE(s.cancel(a));
  EXPECT_TRUE(s.is_pending(b));
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, ManyCancelRescheduleCyclesOnOneSlot) {
  Simulator s;
  std::vector<Simulator::EventHandle> stale;
  int fired = 0;
  Simulator::EventHandle live{};
  for (int i = 0; i < 1000; ++i) {
    if (live.valid()) {
      ASSERT_TRUE(s.cancel(live));
      stale.push_back(live);
    }
    live = s.schedule_at(1.0, [&] { ++fired; });
  }
  for (const auto& h : stale) {
    EXPECT_FALSE(s.is_pending(h));
    EXPECT_FALSE(s.cancel(h));
  }
  EXPECT_TRUE(s.is_pending(live));
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, IsPendingFalseForOwnEventDuringCallback) {
  Simulator s;
  Simulator::EventHandle h{};
  bool pending_inside = true;
  h = s.schedule_at(1.0, [&] { pending_inside = s.is_pending(h); });
  s.run();
  EXPECT_FALSE(pending_inside);
}

// ---- Inline-callback capture sizes --------------------------------------
// Callback is util::InlineFunction: captures up to the inline capacity run
// with no heap; an oversized capture would be a compile error (covered by
// a static_assert, so only the fitting edge cases can be runtime-tested).

TEST(Simulator, CallbackAtFullInlineCapacityRuns) {
  struct Payload {
    char bytes[util::kInlineFunctionCapacity - sizeof(int*)];
  };
  Simulator s;
  Payload p{};
  p.bytes[0] = 9;
  int out = 0;
  int* out_ptr = &out;
  s.schedule_at(1.0, [p, out_ptr] { *out_ptr = p.bytes[0]; });
  s.run();
  EXPECT_EQ(out, 9);
}

TEST(Simulator, MoveOnlyCaptureIsDestroyedExactlyOnce) {
  Simulator s;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  int seen = 0;
  s.schedule_at(1.0, [token = std::move(token), &seen] { seen = *token; });
  EXPECT_FALSE(watch.expired());
  s.run();
  EXPECT_EQ(seen, 1);
  EXPECT_TRUE(watch.expired());  // released when the fired event's slot let go
}

TEST(Simulator, CancelledCallbackReleasesCaptureImmediately) {
  Simulator s;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const auto h = s.schedule_at(1.0, [token = std::move(token)] { (void)token; });
  ASSERT_TRUE(s.cancel(h));
  // The capture must not linger in the recycled slot until reuse.
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace bcp::sim
