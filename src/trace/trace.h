// Simulation traces (Section 4.1 of the paper).
//
// "A trace is simply the description of the initial state of the system,
// followed by a series of state deltas describing how the state of the
// system changes over time."
//
// The simulator knows nothing about analysis; it pushes TraceEvents into a
// TraceSink. Analysis tools (stat, tracertool, the animator, the trace
// verifier) are all sinks or consumers of a RecordedTrace, so they can be
// "plugged" directly into the simulator without storing intermediate files —
// exactly the decoupling the paper advertises. The text format
// (trace_text.h) makes traces tool-agnostic on disk as well.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "petri/data_context.h"
#include "petri/ids.h"
#include "petri/marking.h"
#include "petri/net.h"

namespace pnut {

/// A change in the token count of one place.
struct TokenDelta {
  PlaceId place;
  TokenCount count = 0;

  friend bool operator==(const TokenDelta&, const TokenDelta&) = default;
};

/// A scalar variable assignment performed by a transition's action.
struct ScalarUpdate {
  std::string name;
  std::int64_t value = 0;

  friend bool operator==(const ScalarUpdate&, const ScalarUpdate&) = default;
};

/// A table-entry assignment performed by a transition's action.
struct TableUpdate {
  std::string name;
  std::int64_t index = 0;
  std::int64_t value = 0;

  friend bool operator==(const TableUpdate&, const TableUpdate&) = default;
};

/// One state delta. A firing with a non-zero firing time produces two
/// events: a Start (inputs consumed, action applied) and an End (outputs
/// produced) at start time + firing time; `firing_id` pairs them across
/// interleavings. A firing with zero firing time (immediate transitions and
/// enabling-time-only transitions) produces a single kAtomic event carrying
/// both deltas — this is what makes invariants like the paper's
/// `Bus_busy + Bus_free = 1` hold in *every* trace state: instantaneous
/// token moves never expose a half-fired intermediate state.
struct TraceEvent {
  enum class Kind : std::uint8_t { kStart, kEnd, kAtomic };

  Kind kind = Kind::kStart;
  Time time = 0;
  TransitionId transition;
  std::uint64_t firing_id = 0;
  std::vector<TokenDelta> consumed;       ///< kStart / kAtomic
  std::vector<TokenDelta> produced;       ///< kEnd / kAtomic
  std::vector<ScalarUpdate> scalar_updates;  ///< kStart / kAtomic (action effects)
  std::vector<TableUpdate> table_updates;    ///< kStart / kAtomic

  /// Reuse this event for a new delta: set the header and empty the delta
  /// lists, keeping their capacity (the engines' allocation-free path).
  TraceEvent& reset(Kind k, Time at, TransitionId t, std::uint64_t firing) {
    kind = k;
    time = at;
    transition = t;
    firing_id = firing;
    consumed.clear();
    produced.clear();
    scalar_updates.clear();
    table_updates.clear();
    return *this;
  }

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Static information copied out of the net so a trace is self-contained:
/// analysis tools never need the Net object, only the trace.
struct TraceHeader {
  std::string net_name;
  std::vector<std::string> place_names;
  std::vector<std::string> transition_names;
  Marking initial_marking;
  DataContext initial_data;
  Time start_time = 0;

  static TraceHeader from_net(const Net& net, Time start_time = 0);

  friend bool operator==(const TraceHeader&, const TraceHeader&) = default;
};

/// Receiver of a simulation run. The simulator calls begin() once, event()
/// per state delta in nondecreasing time order, and end() once.
///
/// The TraceEvent passed to event() is valid only for the duration of the
/// call: the engines reuse one event object for every delta, so its fields
/// and vectors are overwritten by the next call. A sink that keeps an event
/// must copy it, as RecordedTrace does.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void begin(const TraceHeader& header) = 0;
  virtual void event(const TraceEvent& ev) = 0;
  virtual void end(Time end_time) = 0;
};

/// Fans one stream out to several sinks (e.g. stat + tracer + text writer
/// in a single run, which is how long experiments avoid storing traces).
class MultiSink final : public TraceSink {
 public:
  void add(TraceSink& sink) { sinks_.push_back(&sink); }

  void begin(const TraceHeader& header) override {
    for (auto* s : sinks_) s->begin(header);
  }
  void event(const TraceEvent& ev) override {
    for (auto* s : sinks_) s->event(ev);
  }
  void end(Time end_time) override {
    for (auto* s : sinks_) s->end(end_time);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// An in-memory trace: the artifact most tools consume.
class RecordedTrace final : public TraceSink {
 public:
  void begin(const TraceHeader& header) override;
  void event(const TraceEvent& ev) override;
  void end(Time end_time) override;

  [[nodiscard]] const TraceHeader& header() const { return header_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] Time end_time() const { return end_time_; }
  [[nodiscard]] bool complete() const { return ended_; }

  /// Number of distinct state snapshots a cursor will produce
  /// (initial state + one per event).
  [[nodiscard]] std::size_t num_states() const { return events_.size() + 1; }

  /// Content comparison (header, events, end time); ignores the TraceSink
  /// base, which carries no state.
  friend bool operator==(const RecordedTrace& a, const RecordedTrace& b) {
    return a.header_ == b.header_ && a.events_ == b.events_ &&
           a.end_time_ == b.end_time_ && a.ended_ == b.ended_;
  }

 private:
  TraceHeader header_;
  std::vector<TraceEvent> events_;
  Time end_time_ = 0;
  bool ended_ = false;
};

/// Steps through a RecordedTrace reconstructing the full system state
/// (marking, per-transition in-flight firing counts, data variables) after
/// each event. This is the state sequence S that the query engine's
/// `forall s in S [...]` ranges over, and what the tracer and animator
/// sample.
class TraceCursor {
 public:
  explicit TraceCursor(const RecordedTrace& trace);

  /// State index: 0 = initial state, k = state after event k-1.
  [[nodiscard]] std::size_t state_index() const { return next_event_; }
  [[nodiscard]] bool at_end() const;

  /// The event that will be applied by the next step().
  [[nodiscard]] const TraceEvent& pending_event() const;

  /// Apply the next event. Throws std::logic_error if at_end().
  void step();

  /// Reset to the initial state.
  void rewind();

  [[nodiscard]] Time time() const { return time_; }
  [[nodiscard]] const Marking& marking() const { return marking_; }
  [[nodiscard]] const DataContext& data() const { return data_; }

  /// Firings of `t` currently in flight (between Start and End).
  [[nodiscard]] std::uint32_t active_firings(TransitionId t) const {
    return active_firings_.at(t.value);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& all_active_firings() const {
    return active_firings_;
  }

 private:
  const RecordedTrace* trace_;
  std::size_t next_event_ = 0;
  Time time_ = 0;
  Marking marking_;
  DataContext data_;
  std::vector<std::uint32_t> active_firings_;
};

}  // namespace pnut
