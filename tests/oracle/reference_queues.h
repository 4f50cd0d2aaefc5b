// Reference models of the two flow-queueing structures, for differential
// tests. Each is a literal, slow transcription of the algorithm on standard
// containers: no pools of intrusive nodes, no index, and the overflow victim
// found by the linear scan the paper's pseudocode describes.
//
//  * ReferenceMacQueues: Algorithm 1 (global limit, find_longest_queue over
//    the backlogged queues in the order they became backlogged, per-TID
//    overflow queue on a cross-TID hash collision) and Algorithm 2 (per-TID
//    DRR over new/old lists with per-queue CoDel), plus station teardown by
//    a scan of the whole pool.
//  * ReferenceFqCodel: RFC 8290 enqueue with drop from the fattest flow,
//    found by a scan of every queue in index order, and the DRR dequeue.
//
// CoDel itself is not re-modelled: both sides run the same CoDelState.

#ifndef AIRFAIR_TESTS_ORACLE_REFERENCE_QUEUES_H_
#define AIRFAIR_TESTS_ORACLE_REFERENCE_QUEUES_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/aqm/codel.h"
#include "src/aqm/fq_codel.h"
#include "src/core/mac_queues.h"
#include "src/net/packet.h"
#include "src/util/flow_hash.h"
#include "src/util/time.h"

namespace airfair {

class ReferenceMacQueues {
 public:
  ReferenceMacQueues(std::function<TimeUs()> clock, const MacQueues::Config& config)
      : clock_(std::move(clock)), config_(config), pool_(config.flow_queues) {}

  void Enqueue(PacketPtr packet, StationId station, Tid tid) {
    while (total_packets_ >= config_.global_limit_packets) {
      DropFromLongestQueue();
    }
    auto& slot = tids_[{station, tid}];
    if (slot == nullptr) {
      slot = std::make_unique<TidState>();
    }
    TidState* txq = slot.get();
    Queue* queue = &pool_[HashFlow(packet->flow, config_.hash_perturbation) % pool_.size()];
    if (queue->tid != nullptr && queue->tid != txq) {
      queue = &txq->overflow;
    }
    queue->tid = txq;
    packet->enqueued = clock_();
    queue->bytes += packet->size_bytes;
    queue->packets.push_back(std::move(packet));
    ++total_packets_;
    if (std::find(backlogged_.begin(), backlogged_.end(), queue) == backlogged_.end()) {
      backlogged_.push_back(queue);
    }
    if (queue->list == nullptr) {
      queue->deficit = config_.quantum_bytes;
      MoveToBack(queue, &txq->new_queues);
    }
  }

  PacketPtr Dequeue(StationId station, Tid tid) {
    auto it = tids_.find({station, tid});
    if (it == tids_.end()) {
      return nullptr;
    }
    TidState* txq = it->second.get();
    const TimeUs now = clock_();
    for (;;) {
      Queue* queue = nullptr;
      if (!txq->new_queues.empty()) {
        queue = txq->new_queues.front();
      } else if (!txq->old_queues.empty()) {
        queue = txq->old_queues.front();
      } else {
        return nullptr;
      }
      if (queue->deficit <= 0) {
        queue->deficit += config_.quantum_bytes;
        MoveToBack(queue, &txq->old_queues);
        continue;
      }
      PacketPtr packet = queue->codel.Dequeue(
          now, CoDelParams::Default(), [this, queue]() { return PullHead(*queue); },
          [this](const PacketPtr&) { ++codel_drops_; });
      if (packet == nullptr) {
        if (queue->list == &txq->new_queues) {
          MoveToBack(queue, &txq->old_queues);
        } else {
          Unlist(queue);
          queue->tid = nullptr;
        }
        continue;
      }
      queue->deficit -= packet->size_bytes;
      return packet;
    }
  }

  int64_t FlushStation(StationId station) {
    int64_t drained = 0;
    auto drain = [&](Queue& q) {
      drained += static_cast<int64_t>(q.packets.size());
      total_packets_ -= static_cast<int>(q.packets.size());
      q.packets.clear();
      q.bytes = 0;
      backlogged_.remove(&q);
      Unlist(&q);
      q.tid = nullptr;
      q.codel = CoDelState();
    };
    for (Tid tid = 0; tid < kNumTids; ++tid) {
      auto it = tids_.find({station, tid});
      if (it == tids_.end()) {
        continue;
      }
      for (Queue& q : pool_) {
        if (q.tid == it->second.get()) {
          drain(q);
        }
      }
      drain(it->second->overflow);
      tids_.erase(it);
    }
    return drained;
  }

  int packet_count() const { return total_packets_; }
  int64_t overflow_drops() const { return overflow_drops_; }
  int64_t codel_drops() const { return codel_drops_; }

 private:
  struct Queue;
  struct TidState;
  using QueueList = std::list<Queue*>;

  struct Queue {
    std::deque<PacketPtr> packets;
    int64_t bytes = 0;
    int64_t deficit = 0;
    CoDelState codel;
    TidState* tid = nullptr;
    QueueList* list = nullptr;  // The new/old list holding the queue, if any.
  };

  struct TidState {
    Queue overflow;
    QueueList new_queues;
    QueueList old_queues;
  };

  void Unlist(Queue* q) {
    if (q->list != nullptr) {
      q->list->remove(q);
      q->list = nullptr;
    }
  }

  void MoveToBack(Queue* q, QueueList* list) {
    Unlist(q);
    list->push_back(q);
    q->list = list;
  }

  // find_longest_queue(): first strictly longest in backlogged order.
  void DropFromLongestQueue() {
    Queue* longest = nullptr;
    for (Queue* q : backlogged_) {
      if (longest == nullptr || q->bytes > longest->bytes) {
        longest = q;
      }
    }
    if (longest == nullptr) {
      return;
    }
    PullHead(*longest);
    ++overflow_drops_;
  }

  PacketPtr PullHead(Queue& q) {
    if (q.packets.empty()) {
      return nullptr;
    }
    PacketPtr p = std::move(q.packets.front());
    q.packets.pop_front();
    q.bytes -= p->size_bytes;
    --total_packets_;
    if (q.packets.empty()) {
      backlogged_.remove(&q);
    }
    return p;
  }

  std::function<TimeUs()> clock_;
  MacQueues::Config config_;
  std::vector<Queue> pool_;
  std::map<std::pair<StationId, Tid>, std::unique_ptr<TidState>> tids_;
  std::list<Queue*> backlogged_;  // In the order the queues became backlogged.
  int total_packets_ = 0;
  int64_t overflow_drops_ = 0;
  int64_t codel_drops_ = 0;
};

class ReferenceFqCodel {
 public:
  ReferenceFqCodel(std::function<TimeUs()> clock, const FqCodelConfig& config)
      : clock_(std::move(clock)), config_(config), queues_(config.flows) {}

  void Enqueue(PacketPtr packet) {
    Queue& q = queues_[HashFlow(packet->flow, config_.hash_perturbation) % queues_.size()];
    packet->enqueued = clock_();
    q.bytes += packet->size_bytes;
    q.packets.push_back(std::move(packet));
    ++total_packets_;
    if (q.list == nullptr) {
      q.deficit = config_.quantum_bytes;
      MoveToBack(&q, &new_flows_);
    }
    while (total_packets_ > config_.limit_packets) {
      // The fattest flow: first strictly largest in index order.
      Queue* fattest = nullptr;
      for (Queue& candidate : queues_) {
        if (!candidate.packets.empty() &&
            (fattest == nullptr || candidate.bytes > fattest->bytes)) {
          fattest = &candidate;
        }
      }
      PullHead(*fattest);
      ++overflow_drops_;
    }
  }

  PacketPtr Dequeue() {
    const TimeUs now = clock_();
    for (;;) {
      Queue* q = nullptr;
      if (!new_flows_.empty()) {
        q = new_flows_.front();
      } else if (!old_flows_.empty()) {
        q = old_flows_.front();
      } else {
        return nullptr;
      }
      if (q->deficit <= 0) {
        q->deficit += config_.quantum_bytes;
        MoveToBack(q, &old_flows_);
        continue;
      }
      PacketPtr packet = q->codel.Dequeue(
          now, config_.codel, [this, q]() { return PullHead(*q); },
          [this](const PacketPtr&) { ++codel_drops_; });
      if (packet == nullptr) {
        if (q->list == &new_flows_) {
          MoveToBack(q, &old_flows_);
        } else {
          q->list->remove(q);
          q->list = nullptr;
        }
        continue;
      }
      q->deficit -= packet->size_bytes;
      return packet;
    }
  }

  int packet_count() const { return total_packets_; }
  int64_t overflow_drops() const { return overflow_drops_; }
  int64_t codel_drops() const { return codel_drops_; }

 private:
  struct Queue;
  using QueueList = std::list<Queue*>;

  struct Queue {
    std::deque<PacketPtr> packets;
    int64_t bytes = 0;
    int64_t deficit = 0;
    CoDelState codel;
    QueueList* list = nullptr;
  };

  void MoveToBack(Queue* q, QueueList* list) {
    if (q->list != nullptr) {
      q->list->remove(q);
    }
    list->push_back(q);
    q->list = list;
  }

  PacketPtr PullHead(Queue& q) {
    if (q.packets.empty()) {
      return nullptr;
    }
    PacketPtr p = std::move(q.packets.front());
    q.packets.pop_front();
    q.bytes -= p->size_bytes;
    --total_packets_;
    return p;
  }

  std::function<TimeUs()> clock_;
  FqCodelConfig config_;
  std::vector<Queue> queues_;
  QueueList new_flows_;
  QueueList old_flows_;
  int total_packets_ = 0;
  int64_t overflow_drops_ = 0;
  int64_t codel_drops_ = 0;
};

}  // namespace airfair

#endif  // AIRFAIR_TESTS_ORACLE_REFERENCE_QUEUES_H_
