// The flow-queue core shared by the FQ-CoDel qdisc (RFC 8290) and the
// paper's MAC queues (Section 3.1, Algorithms 1 and 2), shaped like
// mac80211's fq.h.
//
//  * FlowQueue: one hashed flow queue with its DRR deficit and its own CoDel
//    state.
//  * FlowTin: one scheduling domain with its new/old lists, a collision
//    overflow queue and a backlog count. FqCodelQdisc has one tin; MacQueues
//    has one per (station, TID).
//  * FlowQueueSet: the table of flow queues shared by all tins. A queue is
//    held by the tin of the packet that made it backlogged and goes back to
//    the table when the DRR rotation retires it empty. A packet that hashes
//    to a queue held by another tin goes to its own tin's overflow queue
//    (Algorithm 1, lines 6-8). A single tin never collides: every queue it
//    hashes to is either free or already its own.
//
// Overflow drops (DropFattest) take the head of the queue with the most bytes
// over all tins, found as the top of a FattestIndex (src/util/fattest_index.h)
// in O(1) and kept in O(log n). The packet limit and when it is enforced stay
// with the callers: FQ-CoDel enqueues and then drops, Algorithm 1 drops
// before it enqueues.

#ifndef AIRFAIR_SRC_AQM_FLOW_QUEUES_H_
#define AIRFAIR_SRC_AQM_FLOW_QUEUES_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/aqm/codel.h"
#include "src/net/packet.h"
#include "src/util/fattest_index.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/intrusive_list.h"
#include "src/util/time.h"

namespace airfair {

struct FlowTin;

struct FlowQueue {
  std::deque<PacketPtr> packets;
  int64_t bytes = 0;
  int64_t deficit = 0;
  CoDelState codel;
  FlowTin* tin = nullptr;  // Holding tin; nullptr while the queue is free.
  ListNode node;           // On the holding tin's new/old list.
  FattestNode fattest;     // In the set's fattest index when non-empty.
};

struct FlowTin {
  // `station` is the station id the trace records carry. The FQ-CoDel qdisc
  // sits above the driver (host scope), so it has no station identity to
  // attach; -1 marks host-qdisc records.
  explicit FlowTin(int trace_station = -1) : station(trace_station) {}

  int station;
  // Declared before the lists, which unlink it when they are destroyed.
  FlowQueue overflow;
  IntrusiveList<FlowQueue, &FlowQueue::node> new_queues;
  IntrusiveList<FlowQueue, &FlowQueue::node> old_queues;
  int backlog_packets = 0;
};

class FlowQueueSet {
 public:
  // How DropFattest breaks byte ties. kQueueIndex: the lowest table index,
  // as fq_codel's scan of its queues did; only for a single tin, which never
  // uses its overflow queue. kBacklogOrder: the queue that became backlogged
  // earliest, as Algorithm 1's walk of the backlogged queues did.
  enum class TieBreak { kQueueIndex, kBacklogOrder };

  // The audit's view of the caller's tins: `for_each_tin(visit)` must call
  // `visit` once for each live tin.
  using TinVisitor = FunctionRef<void(const FlowTin&)>;
  using ForEachTin = FunctionRef<void(TinVisitor)>;

  FlowQueueSet(InlineFunction<TimeUs()> clock, int queues, int quantum_bytes,
               uint64_t hash_perturbation, TieBreak tie_break);

  FlowQueueSet(const FlowQueueSet&) = delete;
  FlowQueueSet& operator=(const FlowQueueSet&) = delete;

  // Algorithm 1, lines 5-12: hashes the packet to its queue (or the tin's
  // overflow queue), stamps its enqueue time and appends it. A queue that
  // was not scheduled joins the tin's new list with one quantum (the
  // sparse-flow optimisation).
  void Push(FlowTin& tin, PacketPtr packet);

  // Drops the head of the fattest queue over all tins; no-op when empty.
  void DropFattest();

  // Algorithm 2 (RFC 8290 dequeue): DRR over the tin's new and old lists,
  // CoDel with `params` on the selected queue. nullptr when the tin drains.
  PacketPtr Dequeue(FlowTin& tin, const CoDelParams& params);

  // Destroys every packet the tin holds and returns its queues to the table
  // with fresh CoDel state. Returns the number of packets destroyed.
  int64_t Flush(FlowTin& tin);

  int packet_count() const { return total_packets_; }
  int backlogged_queues() const { return static_cast<int>(fattest_.size()); }

  // Lifetime accounting: every packet pushed is dequeued, dropped, flushed
  // or still resident.
  int64_t enqueued_total() const { return enqueued_total_; }
  int64_t dequeued_total() const { return dequeued_total_; }
  int64_t codel_drops() const { return codel_drops_; }
  int64_t overflow_drops() const { return overflow_drops_; }
  int64_t drops() const { return codel_drops_ + overflow_drops_; }
  int64_t flushed_total() const { return flushed_total_; }

  // Invariant audit (see src/sim/audit.h) over the table and every tin
  // `for_each_tin` visits. Verifies, calling `fail` once per violation and
  // returning the violation count:
  //  * packet conservation: enqueued == dequeued + dropped + flushed +
  //    resident, with a recount over the table and the overflow queues;
  //  * the FattestIndex invariants, and per-queue byte counters;
  //  * a queue has a tin exactly when it is on that tin's new/old list
  //    (Flush relies on this), and per-tin backlog recounts;
  //  * intrusive-list integrity of every new and old list;
  //  * DRR deficit bounds: deficit <= quantum, and never -max_packet_size or
  //    below (one dequeue charges at most one packet against a positive
  //    deficit);
  //  * per-flow CoDel state-machine validity.
  int CheckInvariants(ForEachTin for_each_tin, AuditFailFn fail) const;

  // Test-only corruption hooks for tests/sim_audit_test.cc.
  void CorruptConservationForTesting() { ++enqueued_total_; }
  void CorruptFattestIndexForTesting() { fattest_.BreakOrderForTesting(); }

 private:
  PacketPtr PullHead(FlowQueue& queue);

  InlineFunction<TimeUs()> clock_;
  std::vector<FlowQueue> queues_;
  int quantum_bytes_;
  uint64_t hash_perturbation_;
  TieBreak tie_break_;
  FattestIndex<FlowQueue, &FlowQueue::fattest> fattest_;
  // kBacklogOrder's tie-break, taken each time a queue becomes non-empty.
  uint64_t backlog_seq_ = 0;
  int total_packets_ = 0;
  int64_t enqueued_total_ = 0;
  int64_t dequeued_total_ = 0;
  int64_t codel_drops_ = 0;
  int64_t overflow_drops_ = 0;
  int64_t flushed_total_ = 0;
  // Largest packet ever pushed; bounds how far a deficit may go negative.
  int32_t max_packet_bytes_seen_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_AQM_FLOW_QUEUES_H_
