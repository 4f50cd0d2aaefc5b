// FQ-CoDel qdisc (RFC 8290), the paper's second baseline configuration.
//
// Flow queueing with a deficit round-robin scheduler, per-flow CoDel, the
// sparse-flow optimisation (new-flow list gets priority for one round), and
// drop-from-fattest-queue on overflow. Matches the Linux fq_codel defaults:
// 1024 flow queues, 10240-packet limit, quantum = one MTU. The fattest flow
// is the top of a FattestIndex (src/util/fattest_index.h), ties to the lowest
// queue index, one drop per excess packet (no Linux drop_batch_size).
//
// The queues, the scheduler and the drop are the shared flow-queue core
// (src/aqm/flow_queues.h) with a single tin; this class adds the packet
// limit, enforced after each enqueue. The paper's contribution in src/core
// runs the same core with one tin per TID so aggregation stays possible —
// see src/core/mac_queues.h.

#ifndef AIRFAIR_SRC_AQM_FQ_CODEL_H_
#define AIRFAIR_SRC_AQM_FQ_CODEL_H_

#include <cstdint>

#include "src/aqm/codel.h"
#include "src/aqm/flow_queues.h"
#include "src/aqm/queue_discipline.h"
#include "src/util/function_ref.h"
#include "src/util/inline_function.h"
#include "src/util/time.h"

namespace airfair {

struct FqCodelConfig {
  int flows = 1024;
  int limit_packets = 10240;
  int quantum_bytes = 1514;
  CoDelParams codel;
  uint64_t hash_perturbation = 0;
};

class FqCodelQdisc : public Qdisc {
 public:
  FqCodelQdisc(InlineFunction<TimeUs()> clock, const FqCodelConfig& config);

  void Enqueue(PacketPtr packet) override;
  PacketPtr Dequeue() override;
  int packet_count() const override { return queues_.packet_count(); }
  int64_t drops() const override { return queues_.drops(); }

  // Number of distinct flow queues currently backlogged.
  int active_flows() const { return queues_.backlogged_queues(); }
  int64_t codel_drops() const { return queues_.codel_drops(); }
  int64_t overflow_drops() const { return queues_.overflow_drops(); }

  // Lifetime accounting for the conservation audit.
  int64_t enqueued_total() const { return queues_.enqueued_total(); }
  int64_t dequeued_total() const { return queues_.dequeued_total(); }

  // Invariant audit (see src/sim/audit.h): FlowQueueSet::CheckInvariants
  // over the one tin. Calls `fail` once per violation; returns the
  // violation count.
  int CheckInvariants(AuditFailFn fail) const;

  // Test-only corruption hooks for tests/sim_audit_test.cc.
  void CorruptConservationForTesting() { queues_.CorruptConservationForTesting(); }
  void CorruptFattestIndexForTesting() { queues_.CorruptFattestIndexForTesting(); }

 private:
  FqCodelConfig config_;
  FlowQueueSet queues_;
  FlowTin tin_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_AQM_FQ_CODEL_H_
