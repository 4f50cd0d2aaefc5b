// Intrusive, index-tracked binary max-heap of flow queues: the "fattest
// queue" index behind the overflow drops of FQ-CoDel (drop from the fattest
// flow) and the paper's MAC queues (Algorithm 1, find_longest_queue).
//
// Queues are ranked by (bytes descending, order ascending). `order` is a
// caller-chosen tie-break that must be unique among the members, so the
// ranking is a strict total order and Top() is exactly the queue a linear
// "most bytes, first in scan order wins" pass would pick. Each member stores
// its own heap position, so a byte change re-sifts it in O(log n) and
// removal needs no search.
//
//   struct Queue { int64_t bytes = 0; FattestNode fattest; ... };
//   FattestIndex<Queue, &Queue::fattest> index;
//   q.bytes += size;
//   if (!q.fattest.linked()) index.Insert(&q, order); else index.Update(&q);
//   Queue* victim = index.Top();

#ifndef AIRFAIR_SRC_UTIL_FATTEST_INDEX_H_
#define AIRFAIR_SRC_UTIL_FATTEST_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/function_ref.h"

namespace airfair {

// Embed one per queue. A queue is a member of the index when linked().
struct FattestNode {
  bool linked() const { return pos >= 0; }

  int32_t pos = -1;    // Slot in the heap array; -1 when not a member.
  uint64_t order = 0;  // Tie-break among equal byte counts: lower wins.
};

// T must expose an integral `bytes` member and a FattestNode member.
template <typename T, FattestNode T::* Member>
class FattestIndex {
 public:
  size_t size() const { return heap_.size(); }

  // The member with the most bytes (lowest order among ties), or nullptr.
  T* Top() const { return heap_.empty() ? nullptr : heap_.front(); }

  // Adds `item`, which must not be a member, with tie-break `order`.
  void Insert(T* item, uint64_t order) {
    FattestNode& node = item->*Member;
    AF_DCHECK(!node.linked()) << " Insert of an indexed queue";
    node.order = order;
    node.pos = static_cast<int32_t>(heap_.size());
    heap_.push_back(item);
    SiftUp(node.pos);
  }

  // Restores the heap order after `item`'s byte count changed.
  void Update(T* item) {
    const int32_t pos = (item->*Member).pos;
    AF_DCHECK_GE(pos, 0);
    if (pos > 0 && Fatter(item, heap_[static_cast<size_t>(Parent(pos))])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }

  // Removes `item` (no-op if it is not a member).
  void Remove(T* item) {
    FattestNode& node = item->*Member;
    if (!node.linked()) {
      return;
    }
    const int32_t pos = node.pos;
    node.pos = -1;
    T* last = heap_.back();
    heap_.pop_back();
    if (last == item) {
      return;
    }
    Place(last, pos);
    Update(last);
  }

  // Invariant audit against the owner's queues: `for_each_queue(visit)`
  // must call `visit(const T&)` once for every queue the owner has, indexed
  // or not. Checks that the members are exactly the queues holding bytes,
  // that every slot's back-pointer names that slot, that no member ranks
  // above its parent, and that Top() is the pick of a linear scan (most
  // bytes, then lowest order). Calls `fail` once per problem; returns the
  // number of problems found. Read-only.
  template <typename ForEachQueue>
  int CheckInvariants(ForEachQueue for_each_queue, AuditFailFn fail) const {
    int violations = 0;
    auto report = [&](const std::string& what) {
      ++violations;
      fail("fattest index: " + what);
    };
    for (size_t i = 0; i < heap_.size(); ++i) {
      const T* item = heap_[i];
      if ((item->*Member).pos != static_cast<int32_t>(i)) {
        report("position back-pointer mismatch at slot " + std::to_string(i));
      }
      if (i > 0 && Fatter(item, heap_[Parent(i)])) {
        report("heap order violated at slot " + std::to_string(i));
      }
    }
    size_t backlogged = 0;
    const T* scan_pick = nullptr;
    for_each_queue([&](const T& q) {
      const bool member = (q.*Member).linked();
      if ((q.bytes > 0) != member) {
        report(member ? "holds an empty queue" : "misses a non-empty queue");
      }
      if (q.bytes > 0) {
        ++backlogged;
        if (member && (scan_pick == nullptr || Fatter(&q, scan_pick))) {
          scan_pick = &q;
        }
      }
    });
    if (backlogged != heap_.size()) {
      report("holds " + std::to_string(heap_.size()) + " queues but " +
             std::to_string(backlogged) + " are non-empty");
    }
    if (Top() != scan_pick) {
      report("top differs from the linear scan's pick");
    }
    return violations;
  }

  // Test-only: swaps the top with the last member, keeping positions
  // consistent, so only the heap order is broken.
  void BreakOrderForTesting() {
    if (heap_.size() < 2) {
      return;
    }
    T* top = heap_.front();
    T* last = heap_.back();
    Place(last, 0);
    Place(top, static_cast<int32_t>(heap_.size() - 1));
  }

 private:
  // True when `a` ranks above `b`.
  static bool Fatter(const T* a, const T* b) {
    return a->bytes > b->bytes ||
           (a->bytes == b->bytes && (a->*Member).order < (b->*Member).order);
  }

  template <typename I>
  static I Parent(I pos) {
    return (pos - 1) / 2;
  }

  void Place(T* item, int32_t pos) {
    heap_[static_cast<size_t>(pos)] = item;
    (item->*Member).pos = pos;
  }

  void SiftUp(int32_t pos) {
    T* item = heap_[static_cast<size_t>(pos)];
    while (pos > 0) {
      T* parent = heap_[static_cast<size_t>(Parent(pos))];
      if (!Fatter(item, parent)) {
        break;
      }
      Place(parent, pos);
      pos = Parent(pos);
    }
    Place(item, pos);
  }

  void SiftDown(int32_t pos) {
    T* item = heap_[static_cast<size_t>(pos)];
    const int32_t n = static_cast<int32_t>(heap_.size());
    for (;;) {
      int32_t child = 2 * pos + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n &&
          Fatter(heap_[static_cast<size_t>(child + 1)], heap_[static_cast<size_t>(child)])) {
        ++child;
      }
      T* fatter = heap_[static_cast<size_t>(child)];
      if (!Fatter(fatter, item)) {
        break;
      }
      Place(fatter, pos);
      pos = child;
    }
    Place(item, pos);
  }

  std::vector<T*> heap_;
};

}  // namespace airfair

#endif  // AIRFAIR_SRC_UTIL_FATTEST_INDEX_H_
