#include "src/core/mac_queues.h"

#include <string>
#include <utility>

#include "src/util/check.h"

namespace airfair {

MacQueues::MacQueues(InlineFunction<TimeUs()> clock, const Config& config)
    : config_(config),
      queues_(std::move(clock), config.flow_queues, config.quantum_bytes,
              config.hash_perturbation, FlowQueueSet::TieBreak::kBacklogOrder) {
  // A limit below 1 would drop from an empty pool forever.
  AF_CHECK_GE(config.global_limit_packets, 1) << " MacQueues::Config::global_limit_packets";
}

FlowTin* MacQueues::FindTin(StationId station, Tid tid) const {
  if (station < 0) {
    return nullptr;
  }
  const size_t key = static_cast<size_t>(station) * kNumTids + static_cast<size_t>(tid);
  return key < tins_.size() ? tins_[key].get() : nullptr;
}

void MacQueues::Enqueue(PacketPtr packet, StationId station, Tid tid) {
  // Global limit check (Algorithm 1, lines 2-4): find_longest_queue() over
  // every backlogged queue (flow queues and overflow queues alike), drop
  // from its head.
  while (queues_.packet_count() >= config_.global_limit_packets) {
    queues_.DropFattest();
  }
  const size_t key = static_cast<size_t>(station) * kNumTids + static_cast<size_t>(tid);
  if (key >= tins_.size()) {
    tins_.resize(key + 1);
  }
  if (tins_[key] == nullptr) {
    tins_[key] = std::make_unique<FlowTin>(station);
  }
  queues_.Push(*tins_[key], std::move(packet));
}

PacketPtr MacQueues::Dequeue(StationId station, Tid tid) {
  FlowTin* tin = FindTin(station, tid);
  if (tin == nullptr) {
    return nullptr;
  }
  return queues_.Dequeue(
      *tin, codel_params_ ? codel_params_(station) : CoDelParams::Default());
}

int64_t MacQueues::FlushStation(StationId station) {
  int64_t drained = 0;
  for (Tid tid = 0; tid < kNumTids; ++tid) {
    if (FlowTin* tin = FindTin(station, tid); tin != nullptr) {
      drained += queues_.Flush(*tin);
      tins_[static_cast<size_t>(station) * kNumTids + static_cast<size_t>(tid)].reset();
    }
  }
  return drained;
}

int MacQueues::CheckInvariants(AuditFailFn fail) const {
  return queues_.CheckInvariants(
      [this](FlowQueueSet::TinVisitor visit) {
        for (const auto& tin : tins_) {
          if (tin != nullptr) {  // nullptr: never created, or torn down.
            visit(*tin);
          }
        }
      },
      [&](const std::string& message) { fail("mac_queues: " + message); });
}

FlowQueue* MacQueues::FirstScheduledQueue() {
  for (const auto& tin : tins_) {
    if (tin == nullptr) {
      continue;
    }
    for (auto* list : {&tin->new_queues, &tin->old_queues}) {
      if (FlowQueue* q = list->Front(); q != nullptr) {
        return q;
      }
    }
  }
  return nullptr;
}

void MacQueues::CorruptDeficitForTesting() {
  if (FlowQueue* q = FirstScheduledQueue(); q != nullptr) {
    q->deficit = config_.quantum_bytes * 16;
  }
}

void MacQueues::CorruptCodelStateForTesting() {
  if (FlowQueue* q = FirstScheduledQueue(); q != nullptr) {
    // Dropping with an unarmed next-drop clock is unreachable by the
    // control law; the auditor must flag it.
    q->codel.ForceStateForTesting(/*dropping=*/true, TimeUs::Zero(), /*count=*/0,
                                  /*lastcount=*/5);
  }
}

void MacQueues::CorruptTidBacklogForTesting() {
  if (FlowQueue* q = FirstScheduledQueue(); q != nullptr) {
    q->tin->backlog_packets += 7;
  }
}

int MacQueues::PeekBytes(StationId station, Tid tid) const {
  const FlowTin* tin = FindTin(station, tid);
  if (tin == nullptr || tin->backlog_packets == 0) {
    return -1;
  }
  // Advisory: head of the first backlogged queue in service order.
  for (const auto* list : {&tin->new_queues, &tin->old_queues}) {
    for (const FlowQueue* q : *list) {
      if (!q->packets.empty()) {
        return q->packets.front()->size_bytes;
      }
    }
  }
  return -1;
}

int MacQueues::TidBacklog(StationId station, Tid tid) const {
  const FlowTin* tin = FindTin(station, tid);
  return tin == nullptr ? 0 : tin->backlog_packets;
}

}  // namespace airfair
