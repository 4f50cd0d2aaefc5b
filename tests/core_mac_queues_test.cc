#include "src/core/mac_queues.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/util/flow_hash.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

class MacQueuesTest : public ::testing::Test {
 protected:
  MacQueues Make(MacQueues::Config config = MacQueues::Config()) {
    return MacQueues([this] { return now_; }, config);
  }

  PacketPtr Flow(uint16_t src_port, int bytes = 1500) {
    return MakePacket(bytes, src_port);
  }

  TimeUs now_;
};

TEST_F(MacQueuesTest, EnqueueDequeueRoundTrip) {
  MacQueues q = Make();
  auto p = Flow(1000);
  p->flow_seq = 42;
  q.Enqueue(std::move(p), /*station=*/0, /*tid=*/0);
  EXPECT_EQ(q.TidBacklog(0, 0), 1);
  PacketPtr out = q.Dequeue(0, 0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->flow_seq, 42);
  EXPECT_EQ(q.TidBacklog(0, 0), 0);
  EXPECT_EQ(q.Dequeue(0, 0), nullptr);
}

TEST_F(MacQueuesTest, TidsAreIndependent) {
  MacQueues q = Make();
  q.Enqueue(Flow(1000), 0, 0);
  q.Enqueue(Flow(1001), 1, 0);
  EXPECT_EQ(q.TidBacklog(0, 0), 1);
  EXPECT_EQ(q.TidBacklog(1, 0), 1);
  EXPECT_NE(q.Dequeue(0, 0), nullptr);
  EXPECT_EQ(q.Dequeue(0, 0), nullptr);  // Station 0 drained...
  EXPECT_NE(q.Dequeue(1, 0), nullptr);  // ...station 1 unaffected.
}

TEST_F(MacQueuesTest, DequeueUnknownTidIsNull) {
  MacQueues q = Make();
  EXPECT_EQ(q.Dequeue(5, 3), nullptr);
  EXPECT_EQ(q.TidBacklog(5, 3), 0);
  EXPECT_EQ(q.PeekBytes(5, 3), -1);
}

TEST_F(MacQueuesTest, CrossTidHashCollisionGoesToOverflowQueue) {
  // With a single flow queue in the pool, every flow collides. The first
  // TID owns the pool queue; a second TID's packet must land in that TID's
  // overflow queue and still be dequeueable from the second TID.
  MacQueues::Config config;
  config.flow_queues = 1;
  MacQueues q = Make(config);
  q.Enqueue(Flow(1000), 0, 0);
  auto other = Flow(2000);
  other->flow_seq = 7;
  q.Enqueue(std::move(other), 0, 1);  // Different TID, same (only) queue.
  EXPECT_EQ(q.TidBacklog(0, 0), 1);
  EXPECT_EQ(q.TidBacklog(0, 1), 1);
  PacketPtr p = q.Dequeue(0, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->flow_seq, 7);
}

TEST_F(MacQueuesTest, QueueReleasedToPoolAfterDraining) {
  // Algorithm 2 lines 17-18: an emptied old-list queue detaches from its
  // TID (queue.tid <- NULL), so another TID can claim it afterwards.
  MacQueues::Config config;
  config.flow_queues = 1;
  MacQueues q = Make(config);
  q.Enqueue(Flow(1000), 0, 0);
  // Drain TID 0 fully: first dequeue returns the packet, the queue is still
  // on the new list; the next dequeue pass rotates and removes it.
  EXPECT_NE(q.Dequeue(0, 0), nullptr);
  EXPECT_EQ(q.Dequeue(0, 0), nullptr);
  // Now TID 1 enqueues a flow hashing to the same pool queue: since the
  // queue was released, it must NOT go to the overflow queue but own the
  // pool queue directly - observable as normal FIFO service.
  q.Enqueue(Flow(2000), 0, 1);
  EXPECT_EQ(q.TidBacklog(0, 1), 1);
  EXPECT_NE(q.Dequeue(0, 1), nullptr);
}

TEST_F(MacQueuesTest, GlobalLimitDropsFromLongestQueue) {
  MacQueues::Config config;
  config.global_limit_packets = 10;
  MacQueues q = Make(config);
  // Station 0 is the hog: 8 packets. Station 1 has 2.
  for (int i = 0; i < 8; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
  }
  for (int i = 0; i < 2; ++i) {
    q.Enqueue(Flow(1001), 1, 0);
  }
  EXPECT_EQ(q.packet_count(), 10);
  // Next enqueue exceeds the limit; the drop must come from station 0's
  // (longest) queue, not from the enqueuing flow.
  q.Enqueue(Flow(1001), 1, 0);
  EXPECT_EQ(q.packet_count(), 10);
  EXPECT_EQ(q.overflow_drops(), 1);
  EXPECT_EQ(q.TidBacklog(0, 0), 7);
  EXPECT_EQ(q.TidBacklog(1, 0), 3);
}

// Pool slot of the flow MakePacket builds for `src_port` (default config).
size_t PoolSlot(uint16_t src_port) {
  return HashFlow(MakePacket(1500, src_port)->flow) %
         static_cast<size_t>(MacQueues::Config().flow_queues);
}

// Two ports whose pool slots are distinct, the first at the higher slot.
std::pair<uint16_t, uint16_t> PortsWithFirstAtHigherSlot() {
  const uint16_t a = 1000;
  for (uint16_t b = 1001;; ++b) {
    if (PoolSlot(b) < PoolSlot(a)) {
      return {a, b};
    }
  }
}

TEST_F(MacQueuesTest, OverflowTieDropsEarliestBackloggedQueue) {
  // Equal backlogs: find_longest_queue breaks the tie by backlog age, not
  // by pool position. The earliest-backlogged queue loses even though it
  // sits at the higher pool slot.
  const auto [early, late] = PortsWithFirstAtHigherSlot();
  MacQueues::Config config;
  config.global_limit_packets = 2;
  MacQueues q = Make(config);
  q.Enqueue(Flow(early), 0, 0);
  q.Enqueue(Flow(late), 1, 0);
  q.Enqueue(Flow(2000), 2, 0);
  EXPECT_EQ(q.overflow_drops(), 1);
  EXPECT_EQ(q.TidBacklog(0, 0), 0);
  EXPECT_EQ(q.TidBacklog(1, 0), 1);
  EXPECT_EQ(q.TidBacklog(2, 0), 1);
}

TEST_F(MacQueuesTest, RefilledQueueMovesToBackOfTieOrder) {
  // A queue that empties and refills counts as newly backlogged: it goes
  // behind every queue that stayed backlogged, even one at a higher slot.
  const auto [high, low] = PortsWithFirstAtHigherSlot();
  MacQueues::Config config;
  config.global_limit_packets = 2;
  MacQueues q = Make(config);
  q.Enqueue(Flow(low), 0, 0);
  q.Enqueue(Flow(high), 1, 0);
  ASSERT_NE(q.Dequeue(0, 0), nullptr);  // Station 0's queue empties...
  q.Enqueue(Flow(low), 0, 0);           // ...and refills.
  q.Enqueue(Flow(2000), 2, 0);
  EXPECT_EQ(q.overflow_drops(), 1);
  EXPECT_EQ(q.TidBacklog(0, 0), 1);
  EXPECT_EQ(q.TidBacklog(1, 0), 0);
  EXPECT_EQ(q.TidBacklog(2, 0), 1);
}

TEST_F(MacQueuesTest, GlobalLimitPreventsLockout) {
  // The paper's Section 4.1.2 mechanism: the slow station cannot occupy the
  // entire queueing space. Fill with a hog, then verify a newcomer can
  // still build backlog.
  MacQueues::Config config;
  config.global_limit_packets = 100;
  MacQueues q = Make(config);
  for (int i = 0; i < 100; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
  }
  for (int i = 0; i < 30; ++i) {
    q.Enqueue(Flow(1001), 1, 0);
  }
  EXPECT_EQ(q.TidBacklog(1, 0), 30);
  EXPECT_EQ(q.TidBacklog(0, 0), 70);
}

TEST_F(MacQueuesTest, DefaultConfigMatchesFigure3) {
  MacQueues::Config config;
  EXPECT_EQ(config.global_limit_packets, 8192);  // The "8192 (Global limit)" box.
  EXPECT_EQ(config.flow_queues, 4096);
  EXPECT_EQ(config.quantum_bytes, 300);          // mac80211 fq default.
}

TEST_F(MacQueuesTest, SparseFlowJumpsBacklog) {
  MacQueues q = Make();
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
  }
  (void)q.Dequeue(0, 0);  // Heavy flow rotates to the old list.
  auto sparse = Flow(2000, 100);
  sparse->flow_seq = 555;
  q.Enqueue(std::move(sparse), 0, 0);
  PacketPtr p = q.Dequeue(0, 0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->flow_seq, 555);
}

TEST_F(MacQueuesTest, DrrSharesServiceBetweenFlows) {
  MacQueues q = Make();
  for (int i = 0; i < 40; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
    q.Enqueue(Flow(1001), 0, 0);
  }
  int from_a = 0;
  int from_b = 0;
  for (int i = 0; i < 40; ++i) {
    PacketPtr p = q.Dequeue(0, 0);
    ASSERT_NE(p, nullptr);
    (p->flow.src_port == 1000 ? from_a : from_b)++;
  }
  EXPECT_NEAR(from_a, 20, 2);
  EXPECT_NEAR(from_b, 20, 2);
}

TEST_F(MacQueuesTest, PerStationCodelParamsAreConsulted) {
  MacQueues q = Make();
  std::vector<StationId> asked;
  q.set_codel_params_provider([&asked](StationId s) {
    asked.push_back(s);
    return CoDelParams::Default();
  });
  q.Enqueue(Flow(1000), 3, 0);
  (void)q.Dequeue(3, 0);
  ASSERT_FALSE(asked.empty());
  EXPECT_EQ(asked.front(), 3);
}

TEST_F(MacQueuesTest, LowRateParamsSuppressCodelDrops) {
  // Two stations with identical 30 ms standing queues; station 1 uses the
  // low-rate profile and must see no CoDel drops.
  MacQueues q = Make();
  q.set_codel_params_provider([](StationId s) {
    return s == 1 ? CoDelParams::LowRate() : CoDelParams::Default();
  });
  for (int i = 0; i < 300; ++i) {
    q.Enqueue(Flow(1000), 0, 0);
    q.Enqueue(Flow(2000), 1, 0);
    now_ += 2_ms;
    if (i >= 15) {
      (void)q.Dequeue(0, 0);
      (void)q.Dequeue(1, 0);
    }
  }
  EXPECT_GT(q.codel_drops(), 0);
  // Station 1's backlog should be intact minus services (no drops):
  EXPECT_EQ(q.TidBacklog(1, 0), 300 - 285);
}

TEST_F(MacQueuesTest, PeekMatchesHeadOfLine) {
  MacQueues q = Make();
  q.Enqueue(Flow(1000, 700), 0, 0);
  q.Enqueue(Flow(1000, 1500), 0, 0);
  EXPECT_EQ(q.PeekBytes(0, 0), 700);
  (void)q.Dequeue(0, 0);
  EXPECT_EQ(q.PeekBytes(0, 0), 1500);
  (void)q.Dequeue(0, 0);
  EXPECT_EQ(q.PeekBytes(0, 0), -1);
}

TEST_F(MacQueuesTest, PacketConservationUnderRandomOps) {
  // Property: enqueued == dequeued + dropped + still-queued, across a random
  // mix of stations, TIDs, flows and operations.
  MacQueues::Config config;
  config.global_limit_packets = 64;
  MacQueues q = Make(config);
  Rng rng(99);
  int64_t enqueued = 0;
  int64_t dequeued = 0;
  for (int i = 0; i < 5000; ++i) {
    now_ += TimeUs(rng.UniformInt(0, 500));
    if (rng.Chance(0.6)) {
      const auto port = static_cast<uint16_t>(1000 + rng.UniformInt(0, 7));
      q.Enqueue(Flow(port), static_cast<StationId>(rng.UniformInt(0, 3)),
                static_cast<Tid>(rng.UniformInt(0, 3)));
      ++enqueued;
    } else {
      if (q.Dequeue(static_cast<StationId>(rng.UniformInt(0, 3)),
                    static_cast<Tid>(rng.UniformInt(0, 3))) != nullptr) {
        ++dequeued;
      }
    }
  }
  EXPECT_EQ(enqueued, dequeued + q.drops() + q.packet_count());
  EXPECT_LE(q.packet_count(), 64);
}

TEST_F(MacQueuesTest, BacklogCountsConsistent) {
  MacQueues q = Make();
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 5; ++i) {
      q.Enqueue(Flow(static_cast<uint16_t>(1000 + s)), s, 0);
    }
  }
  EXPECT_EQ(q.packet_count(), 15);
  int total = 0;
  for (int s = 0; s < 3; ++s) {
    total += q.TidBacklog(s, 0);
  }
  EXPECT_EQ(total, 15);
}

}  // namespace
}  // namespace airfair
