#include <gtest/gtest.h>

#include <vector>

#include "src/aqm/fifo.h"
#include "src/aqm/fq_codel.h"
#include "src/util/flow_hash.h"
#include "tests/test_util.h"

namespace airfair {
namespace {

using namespace time_literals;

TEST(Fifo, PreservesOrder) {
  FifoQdisc q(10);
  for (int i = 0; i < 5; ++i) {
    auto p = MakePacket();
    p->flow_seq = i;
    q.Enqueue(std::move(p));
  }
  for (int i = 0; i < 5; ++i) {
    PacketPtr p = q.Dequeue();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->flow_seq, i);
  }
  EXPECT_EQ(q.Dequeue(), nullptr);
}

TEST(Fifo, TailDropsAtLimit) {
  FifoQdisc q(3);
  for (int i = 0; i < 5; ++i) {
    q.Enqueue(MakePacket());
  }
  EXPECT_EQ(q.packet_count(), 3);
  EXPECT_EQ(q.drops(), 2);
}

TEST(Fifo, DefaultLimitMatchesKernelTxqueuelen) {
  FifoQdisc q;
  EXPECT_EQ(q.limit(), 1000);
}

class FqCodelTest : public ::testing::Test {
 protected:
  FqCodelQdisc Make(FqCodelConfig config = FqCodelConfig()) {
    return FqCodelQdisc([this] { return now_; }, config);
  }
  TimeUs now_;
};

TEST_F(FqCodelTest, SingleFlowFifoBehaviour) {
  FqCodelQdisc q = Make();
  for (int i = 0; i < 5; ++i) {
    auto p = MakePacket();
    p->flow_seq = i;
    q.Enqueue(std::move(p));
  }
  for (int i = 0; i < 5; ++i) {
    PacketPtr p = q.Dequeue();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->flow_seq, i);
  }
}

TEST_F(FqCodelTest, FlowsAreIsolatedIntoQueues) {
  FqCodelQdisc q = Make();
  for (int i = 0; i < 4; ++i) {
    q.Enqueue(MakePacket(1500, /*src_port=*/1000));
    q.Enqueue(MakePacket(1500, /*src_port=*/1001));
  }
  EXPECT_EQ(q.active_flows(), 2);
}

TEST_F(FqCodelTest, DrrSharesBandwidthByBytes) {
  FqCodelQdisc q = Make();
  // Flow A: big packets; flow B: small packets (five per big one, so both
  // offer equal bytes). DRR should serve roughly equal *bytes* from each.
  for (int i = 0; i < 60; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
    for (int j = 0; j < 5; ++j) {
      q.Enqueue(MakePacket(300, 1001));
    }
  }
  int64_t bytes_a = 0;
  int64_t bytes_b = 0;
  for (int i = 0; i < 100; ++i) {
    PacketPtr p = q.Dequeue();
    ASSERT_NE(p, nullptr);
    (p->flow.src_port == 1000 ? bytes_a : bytes_b) += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(bytes_a) / bytes_b, 1.0, 0.35);
}

TEST_F(FqCodelTest, SparseFlowGetsPriority) {
  FqCodelQdisc q = Make();
  // Backlog a heavy flow past its new-list round: after ~two quantum's
  // worth of service it rotates onto the old list.
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
  }
  (void)q.Dequeue();
  (void)q.Dequeue();
  (void)q.Dequeue();
  // A new sparse flow arrives: its packet should jump the backlog.
  auto sparse = MakePacket(100, 1001);
  sparse->flow_seq = 777;
  q.Enqueue(std::move(sparse));
  PacketPtr p = q.Dequeue();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->flow_seq, 777);
}

TEST_F(FqCodelTest, EmptiedNewFlowCannotRegainPriority) {
  FqCodelQdisc q = Make();
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
  }
  (void)q.Dequeue();
  // Sparse flow sends one packet, gets served, empties.
  q.Enqueue(MakePacket(100, 1001));
  (void)q.Dequeue();
  // It immediately sends again: this time it must NOT preempt (anti-gaming:
  // the emptied queue moved to the old list).
  auto second = MakePacket(100, 1001);
  second->flow_seq = 888;
  q.Enqueue(std::move(second));
  PacketPtr p = q.Dequeue();
  ASSERT_NE(p, nullptr);
  EXPECT_NE(p->flow_seq, 888);
}

TEST_F(FqCodelTest, OverflowDropsFromFattestFlow) {
  FqCodelConfig config;
  config.limit_packets = 100;
  FqCodelQdisc q = Make(config);
  for (int i = 0; i < 90; ++i) {
    q.Enqueue(MakePacket(1500, 1000));  // Fat flow.
  }
  for (int i = 0; i < 20; ++i) {
    q.Enqueue(MakePacket(100, 1001));  // Thin flow.
  }
  EXPECT_EQ(q.packet_count(), 100);
  EXPECT_EQ(q.overflow_drops(), 10);
  // All drops must have come from the fat flow: the thin flow still has its
  // 20 packets.
  int thin = 0;
  while (PacketPtr p = q.Dequeue()) {
    if (p->flow.src_port == 1001) {
      ++thin;
    }
  }
  EXPECT_EQ(thin, 20);
}

TEST_F(FqCodelTest, CodelAppliesPerFlow) {
  FqCodelQdisc q = Make();
  // One flow with persistently standing queue gets CoDel drops.
  for (int i = 0; i < 500; ++i) {
    q.Enqueue(MakePacket(1500, 1000));
    q.Enqueue(MakePacket(1500, 1000));
    now_ += 2_ms;
    (void)q.Dequeue();
  }
  EXPECT_GT(q.codel_drops(), 0);
}

TEST_F(FqCodelTest, OverflowTieDropsLowestQueueIndex) {
  // Equal backlogs: the fattest-flow pick breaks the tie by queue index, so
  // the lowest-indexed queue loses even when its packet arrived last.
  const auto slot = [](uint16_t port) {
    return HashFlow(MakePacket(1500, port)->flow) %
           static_cast<size_t>(FqCodelConfig().flows);
  };
  uint16_t lowest = 1000;
  for (uint16_t port = 1001; port < 1003; ++port) {
    if (slot(port) < slot(lowest)) {
      lowest = port;
    }
  }
  FqCodelConfig config;
  config.limit_packets = 2;
  FqCodelQdisc q = Make(config);
  int64_t seq = 0;
  for (uint16_t port = 1000; port < 1003; ++port) {
    if (port != lowest) {
      auto p = MakePacket(1500, port);
      p->flow_seq = seq++;
      q.Enqueue(std::move(p));
    }
  }
  auto last = MakePacket(1500, lowest);
  last->flow_seq = seq;
  q.Enqueue(std::move(last));
  EXPECT_EQ(q.overflow_drops(), 1);
  std::vector<int64_t> served;
  while (PacketPtr p = q.Dequeue()) {
    served.push_back(p->flow_seq);
  }
  EXPECT_EQ(served, (std::vector<int64_t>{0, 1}));
}

TEST_F(FqCodelTest, DefaultsMatchLinuxQdisc) {
  FqCodelConfig config;
  EXPECT_EQ(config.flows, 1024);
  EXPECT_EQ(config.limit_packets, 10240);
  EXPECT_EQ(config.quantum_bytes, 1514);
}

TEST_F(FqCodelTest, DequeueEmptyReturnsNull) {
  FqCodelQdisc q = Make();
  EXPECT_EQ(q.Dequeue(), nullptr);
  q.Enqueue(MakePacket());
  (void)q.Dequeue();
  EXPECT_EQ(q.Dequeue(), nullptr);
}

}  // namespace
}  // namespace airfair
