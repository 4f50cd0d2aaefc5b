#include "src/sim/event_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sim/simulation.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  (void)loop.ScheduleAt(30_us, [&] { order.push_back(3); });
  (void)loop.ScheduleAt(10_us, [&] { order.push_back(1); });
  (void)loop.ScheduleAt(20_us, [&] { order.push_back(2); });
  loop.RunUntil(100_us);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 100_us);
}

TEST(EventLoop, SameTimeEventsRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    (void)loop.ScheduleAt(5_us, [&order, i] { order.push_back(i); });
  }
  loop.RunUntil(10_us);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  TimeUs seen;
  (void)loop.ScheduleAt(42_us, [&] { seen = loop.now(); });
  loop.RunUntil(100_us);
  EXPECT_EQ(seen, 42_us);
}

TEST(EventLoop, EventsBeyondEndStayPending) {
  EventLoop loop;
  bool ran = false;
  (void)loop.ScheduleAt(200_us, [&] { ran = true; });
  loop.RunUntil(100_us);
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunUntil(300_us);
  EXPECT_TRUE(ran);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  EventHandle h = loop.ScheduleAt(10_us, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  loop.RunUntil(100_us);
  EXPECT_FALSE(ran);
}

TEST(EventLoop, HandleReportsFiredAsNotPending) {
  EventLoop loop;
  EventHandle h = loop.ScheduleAt(10_us, [] {});
  loop.RunUntil(100_us);
  EXPECT_FALSE(h.pending());
  h.Cancel();  // Harmless after firing.
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  std::vector<int64_t> times;
  std::function<void()> tick = [&] {
    times.push_back(loop.now().us());
    if (times.size() < 3) {
      (void)loop.ScheduleAfter(10_us, tick);
    }
  };
  (void)loop.ScheduleAt(0_us, tick);
  loop.RunUntil(1_ms);
  EXPECT_EQ(times, (std::vector<int64_t>{0, 10, 20}));
}

TEST(EventLoop, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  TimeUs fired;
  (void)loop.ScheduleAt(50_us, [&] {
    (void)loop.ScheduleAfter(25_us, [&] { fired = loop.now(); });
  });
  loop.RunUntil(1_ms);
  EXPECT_EQ(fired, 75_us);
}

TEST(EventLoop, RunOneExecutesSingleEvent) {
  EventLoop loop;
  int count = 0;
  (void)loop.ScheduleAt(1_us, [&] { ++count; });
  (void)loop.ScheduleAt(2_us, [&] { ++count; });
  EXPECT_TRUE(loop.RunOne());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.RunOne());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoop, RunOneSkipsCancelled) {
  EventLoop loop;
  bool ran = false;
  EventHandle h = loop.ScheduleAt(1_us, [] {});
  (void)loop.ScheduleAt(2_us, [&] { ran = true; });
  h.Cancel();
  EXPECT_TRUE(loop.RunOne());
  EXPECT_TRUE(ran);
}

TEST(Simulation, RunForAdvancesRelativeToNow) {
  Simulation sim(1);
  sim.RunFor(5_ms);
  EXPECT_EQ(sim.now(), 5_ms);
  sim.RunFor(5_ms);
  EXPECT_EQ(sim.now(), 10_ms);
}

TEST(Simulation, SeedControlsRngStream) {
  Simulation a(42);
  Simulation b(42);
  EXPECT_EQ(a.rng().Next(), b.rng().Next());
}

// One recorded dispatch: which actor ran, when, and its state word.
struct LogEntry {
  int actor = 0;
  int64_t when_us = 0;
  uint64_t state = 0;

  bool operator==(const LogEntry& other) const = default;
};

// splitmix64 step, so each event's state depends on everything its actor
// did before it.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A self-reposting chain of events that now and then posts a delayed event
// carrying its state into the next actor's log. A change in same-time
// dispatch order therefore changes recorded states, not just interleaving.
struct Actor {
  Simulation* sim = nullptr;
  int id = 0;
  uint64_t state = 0;
  std::vector<LogEntry>* log = nullptr;
  std::vector<LogEntry>* peer_log = nullptr;

  void Step() {
    state = Mix(state);
    log->push_back(LogEntry{id, sim->now().us(), state});
    if (state % 5 == 0) {
      Simulation* s = sim;
      std::vector<LogEntry>* target = peer_log;
      const int from = id;
      const uint64_t carried = state;
      sim->PostAfter(TimeUs(100 + static_cast<int64_t>(state % 50)),
                     [s, target, from, carried] {
                       target->push_back(LogEntry{~from, s->now().us(), Mix(carried)});
                     });
    }
    sim->PostAfter(TimeUs(1 + static_cast<int64_t>(state % 7)), [this] { Step(); });
  }
};

// Runs six actors for 24 ms in `segments` equal RunFor calls and returns
// the per-actor logs.
std::vector<std::vector<LogEntry>> RunActors(int segments) {
  constexpr int kActors = 6;
  Simulation sim(1234);
  std::vector<std::vector<LogEntry>> logs(kActors);
  std::vector<Actor> actors(kActors);
  for (int a = 0; a < kActors; ++a) {
    Actor& actor = actors[static_cast<size_t>(a)];
    actor.sim = &sim;
    actor.id = a;
    actor.state = static_cast<uint64_t>(a) + 1;
    actor.log = &logs[static_cast<size_t>(a)];
    actor.peer_log = &logs[static_cast<size_t>((a + 1) % kActors)];
    Actor* raw = &actor;
    sim.PostAt(TimeUs(a), [raw] { raw->Step(); });
  }
  for (int i = 0; i < segments; ++i) {
    sim.RunFor(24_ms / segments);
  }
  EXPECT_EQ(sim.now(), 24_ms);
  return logs;
}

TEST(Simulation, SegmentedRunsMatchOneShot) {
  // RunFor in many segments must land on the same state as one long run:
  // events due exactly at a segment boundary fire before it ends, and
  // nothing is reordered across it.
  const auto one_shot = RunActors(1);
  const auto segmented = RunActors(24);
  ASSERT_EQ(one_shot.size(), segmented.size());
  for (size_t a = 0; a < one_shot.size(); ++a) {
    EXPECT_GT(one_shot[a].size(), 1000u) << "workload too small to be a test";
    EXPECT_EQ(one_shot[a], segmented[a]) << "actor " << a << " diverged";
  }
}

}  // namespace
}  // namespace airfair
