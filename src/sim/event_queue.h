// The timed-event queue shared by the scalar and batch simulation engines.
//
// Both engines keep the same two kinds of future event — a firing that
// completes, and an enabling timer that expires — and must pop them in the
// same order for lane k of a BatchSimulator to reproduce a scalar Simulator
// run bit for bit. That order is (time, sequence): earlier first, and within
// an instant in scheduling (FIFO) order. Sequence numbers are unique per
// queue, so the order is strict and total; any binary heap pops it
// identically.
//
// One record is 32 bytes: the firing id and the enabling generation never
// coexist, so they share one payload word. The heap is a plain std::vector
// driven by std::push_heap/pop_heap; clear() keeps its capacity, so a queue
// reused across runs (Simulator::reset, a batch worker's next lane) stops
// allocating once it has reached its high-water mark.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "petri/ids.h"

namespace pnut {

struct QueuedEvent {
  enum class Kind : std::uint8_t { kFiringComplete, kEnablingExpiry };

  Time time = 0;
  std::uint64_t sequence = 0;  ///< tie-break: FIFO within an instant
  /// Firing id (kFiringComplete) or the transition's enabling generation
  /// when the timer was armed (kEnablingExpiry; stale if it has moved on).
  std::uint64_t payload = 0;
  std::uint32_t transition = 0;
  Kind kind = Kind::kFiringComplete;
};
static_assert(sizeof(QueuedEvent) == 32, "one event record per half cache line");

class EventQueue {
 public:
  /// Drop every event and restart the sequence numbering; keeps capacity.
  void clear() {
    heap_.clear();
    next_sequence_ = 0;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// The earliest event. Requires !empty().
  [[nodiscard]] const QueuedEvent& top() const { return heap_.front(); }

  void push(Time time, QueuedEvent::Kind kind, std::uint32_t transition,
            std::uint64_t payload) {
    heap_.push_back(QueuedEvent{time, next_sequence_++, payload, transition, kind});
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  /// Remove and return the earliest event. Requires !empty().
  QueuedEvent pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    const QueuedEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

 private:
  /// Min-heap comparator on (time, sequence).
  struct After {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  std::vector<QueuedEvent> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace pnut
