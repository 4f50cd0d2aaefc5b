// Queue discipline (qdisc) interface.
//
// Mirrors the role of the Linux qdisc layer in Figure 2 of the paper: the
// layer above the MAC where arbitrary queue management can be installed. The
// FIFO and FQ-CoDel baselines implement this interface; the paper's
// contribution (the intermediate MAC queues) intentionally does *not* — it
// replaces this layer (Figure 3: "Qdisc layer (bypassed)").

#ifndef AIRFAIR_SRC_AQM_QUEUE_DISCIPLINE_H_
#define AIRFAIR_SRC_AQM_QUEUE_DISCIPLINE_H_

#include <cstdint>

#include "src/net/packet.h"

namespace airfair {

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  // Takes ownership; may drop (the packet being enqueued or another one,
  // e.g. FQ-CoDel's drop-from-fattest-queue on overflow).
  virtual void Enqueue(PacketPtr packet) = 0;

  // Next packet per the discipline's scheduling, or nullptr when empty.
  virtual PacketPtr Dequeue() = 0;

  virtual int packet_count() const = 0;
  bool empty() const { return packet_count() == 0; }

  // Packets the discipline dropped. Disciplines that keep no drops_ count
  // of their own (FQ-CoDel's flow-queue core counts them) override this.
  virtual int64_t drops() const { return drops_; }

 protected:
  int64_t drops_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_AQM_QUEUE_DISCIPLINE_H_
