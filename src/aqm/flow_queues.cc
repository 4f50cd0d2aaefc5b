#include "src/aqm/flow_queues.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/flow_hash.h"

namespace airfair {

FlowQueueSet::FlowQueueSet(InlineFunction<TimeUs()> clock, int queues, int quantum_bytes,
                           uint64_t hash_perturbation, TieBreak tie_break)
    : clock_(std::move(clock)),
      queues_(static_cast<size_t>(std::max(queues, 0))),
      quantum_bytes_(quantum_bytes),
      hash_perturbation_(hash_perturbation),
      tie_break_(tie_break) {
  // No queues would make every hash a division by zero, and a quantum below
  // 1 never lets a deficit turn positive, so Dequeue would spin.
  AF_CHECK_GE(queues, 1) << " flow queue count (FqCodelConfig::flows,"
                         << " MacQueues::Config::flow_queues)";
  AF_CHECK_GE(quantum_bytes, 1) << " DRR quantum (FqCodelConfig::quantum_bytes,"
                                << " MacQueues::Config::quantum_bytes)";
}

void FlowQueueSet::Push(FlowTin& tin, PacketPtr packet) {
  FlowQueue* queue = &queues_[HashFlow(packet->flow, hash_perturbation_) % queues_.size()];
  // Hash collision across tins: divert to this tin's overflow queue
  // (Algorithm 1, lines 6-8).
  if (queue->tin != nullptr && queue->tin != &tin) {
    queue = &tin.overflow;
  }
  queue->tin = &tin;

  const TimeUs now = clock_();
  packet->enqueued = now;  // Timestamp used by CoDel at dequeue.
  AF_DCHECK_GT(packet->size_bytes, 0);
  max_packet_bytes_seen_ = std::max(max_packet_bytes_seen_, packet->size_bytes);
  queue->bytes += packet->size_bytes;
  ++total_packets_;
  ++enqueued_total_;
  ++tin.backlog_packets;
  AF_TRACE_ENQUEUE(now, tin.station, packet->tid, packet->size_bytes, tin.backlog_packets);
  queue->packets.push_back(std::move(packet));
  if (queue->fattest.linked()) {
    fattest_.Update(queue);
  } else if (tie_break_ == TieBreak::kBacklogOrder) {
    fattest_.Insert(queue, backlog_seq_++);
  } else {
    AF_DCHECK(queue != &tin.overflow) << " kQueueIndex orders table queues only";
    fattest_.Insert(queue, static_cast<uint64_t>(queue - queues_.data()));
  }
  // Newly backlogged queues enter the tin's new list (sparse-flow priority;
  // Algorithm 1, lines 11-12).
  if (!queue->node.linked()) {
    queue->deficit = quantum_bytes_;
    tin.new_queues.PushBack(queue);
  }
}

PacketPtr FlowQueueSet::PullHead(FlowQueue& queue) {
  if (queue.packets.empty()) {
    return nullptr;
  }
  PacketPtr p = std::move(queue.packets.front());
  queue.packets.pop_front();
  queue.bytes -= p->size_bytes;
  --total_packets_;
  --queue.tin->backlog_packets;
  if (queue.packets.empty()) {
    fattest_.Remove(&queue);
  } else {
    fattest_.Update(&queue);
  }
  return p;
}

void FlowQueueSet::DropFattest() {
  FlowQueue* fattest = fattest_.Top();
  if (fattest == nullptr) {
    return;
  }
  AF_DCHECK(fattest->tin != nullptr) << " backlogged queue without a tin";
  // Both fq_codel and Algorithm 1 drop from the head.
  PacketPtr victim = PullHead(*fattest);
  ++overflow_drops_;
  AF_TRACE_OVERFLOW_DROP(clock_(), fattest->tin->station, victim->tid,
                         fattest->tin->backlog_packets, victim->size_bytes);
}

PacketPtr FlowQueueSet::Dequeue(FlowTin& tin, const CoDelParams& params) {
  const TimeUs now = clock_();
  for (;;) {
    const bool from_new = !tin.new_queues.empty();
    FlowQueue* queue = from_new ? tin.new_queues.Front() : tin.old_queues.Front();
    if (queue == nullptr) {
      return nullptr;
    }
    if (queue->deficit <= 0) {
      queue->deficit += quantum_bytes_;
      tin.old_queues.MoveToBack(queue);
      continue;  // restart
    }
    PacketPtr packet = queue->codel.Dequeue(
        now, params, [this, queue]() { return PullHead(*queue); },
        [this, now, &tin](const PacketPtr& victim) {
          ++codel_drops_;
          AF_TRACE_CODEL_DROP(now, tin.station, victim->tid, now.us() - victim->enqueued.us(),
                              codel_drops_);
        });
    if (packet == nullptr) {
      // Queue empty (Algorithm 2, lines 13-19). A new-list queue moves to
      // the old list (anti-gaming: it must earn sparse status again); an
      // old-list queue is retired and released back to the table.
      if (from_new) {
        tin.old_queues.MoveToBack(queue);
      } else {
        queue->node.Unlink();
        queue->tin = nullptr;
      }
      continue;  // restart
    }
    // Algorithm 2, line 12: the selected queue had a positive deficit no
    // larger than one quantum.
    AF_DCHECK_GT(queue->deficit, 0);
    AF_DCHECK_LE(queue->deficit, quantum_bytes_);
    queue->deficit -= packet->size_bytes;
    ++dequeued_total_;
    AF_TRACE_DEQUEUE(now, tin.station, packet->tid, now.us() - packet->enqueued.us(),
                     tin.backlog_packets);
    return packet;
  }
}

int64_t FlowQueueSet::Flush(FlowTin& tin) {
  int64_t drained = 0;
  auto release = [&](FlowQueue& q) {
    drained += static_cast<int64_t>(q.packets.size());
    q.packets.clear();  // Destroys the PacketPtrs (returned to the pool).
    q.bytes = 0;
    fattest_.Remove(&q);
    q.node.Unlink();
    q.tin = nullptr;
    // A fresh CoDel session for the queue's next holder: the old tin's
    // sojourn state must not leak into whichever flow claims it next.
    q.codel = CoDelState();
  };
  // A queue is held by this tin exactly when it is on the tin's new/old list
  // (audited), so the lists name every queue to release.
  for (auto* list : {&tin.new_queues, &tin.old_queues}) {
    while (FlowQueue* q = list->Front()) {
      release(*q);
    }
  }
  release(tin.overflow);
  total_packets_ -= static_cast<int>(drained);
  tin.backlog_packets = 0;
  flushed_total_ += drained;
  return drained;
}

int FlowQueueSet::CheckInvariants(ForEachTin for_each_tin, AuditFailFn fail) const {
  int violations = 0;
  // report("text=", value, ...) streams its parts into one message.
  auto report = [&](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    ++violations;
    fail(os.str());
  };

  // --- Packet conservation -------------------------------------------------
  if (enqueued_total_ != dequeued_total_ + codel_drops_ + overflow_drops_ + flushed_total_ +
                             total_packets_) {
    report("packet conservation violated: enqueued=", enqueued_total_,
           " != dequeued=", dequeued_total_, " + codel_drops=", codel_drops_,
           " + overflow_drops=", overflow_drops_, " + flushed=", flushed_total_,
           " + resident=", total_packets_);
  }

  // --- Fattest-queue index, byte counters and tin assignment ---------------
  // Every queue is a table queue or a live tin's overflow queue.
  auto for_each_queue = [&](auto&& visit) {
    for (const FlowQueue& q : queues_) {
      visit(q);
    }
    for_each_tin([&](const FlowTin& tin) { visit(tin.overflow); });
  };
  violations += fattest_.CheckInvariants(for_each_queue, fail);
  int64_t resident = 0;
  for_each_queue([&](const FlowQueue& q) {
    // Flush finds a tin's queues through its new/old lists.
    if ((q.tin != nullptr) != q.node.linked()) {
      report("queue tin assignment disagrees with its new/old list membership");
    }
    if (q.packets.empty()) {
      return;
    }
    resident += static_cast<int64_t>(q.packets.size());
    int64_t bytes = 0;
    for (const PacketPtr& p : q.packets) {
      bytes += p->size_bytes;
    }
    if (bytes != q.bytes) {
      report("queue byte counter mismatch: counted=", bytes, " stored=", q.bytes);
    }
    if (q.tin == nullptr) {
      report("backlogged queue is not held by a tin");
    }
  });
  if (resident != total_packets_) {
    report("resident recount mismatch: queues hold ", resident,
           " packets but total_packets=", total_packets_);
  }

  // --- Per-tin lists, deficits and CoDel validity --------------------------
  for_each_tin([&](const FlowTin& tin) {
    violations += tin.new_queues.CheckIntegrity(fail);
    violations += tin.old_queues.CheckIntegrity(fail);
    // Every backlogged queue of the tin, its overflow queue included, is on
    // its new/old lists (checked above), so they give the recount.
    int recount = 0;
    for (const auto* list : {&tin.new_queues, &tin.old_queues}) {
      for (const FlowQueue* q : *list) {
        recount += static_cast<int>(q->packets.size());
        if (q->tin != &tin) {
          report("scheduled queue is held by a different tin");
        }
        if (q->deficit > quantum_bytes_) {
          report("flow deficit above quantum: deficit=", q->deficit, " quantum=", quantum_bytes_);
        }
        if (max_packet_bytes_seen_ > 0 && q->deficit <= -max_packet_bytes_seen_) {
          report("flow deficit below bound: deficit=", q->deficit,
                 " max_packet_seen=", max_packet_bytes_seen_);
        }
        violations += q->codel.CheckValid(fail);
      }
    }
    if (recount != tin.backlog_packets) {
      report("tin backlog counter mismatch for station ", tin.station, ": recount=", recount,
             " stored=", tin.backlog_packets);
    }
  });
  return violations;
}

}  // namespace airfair
