// The trace filter tool (Section 4.1).
//
// "Usually only a handful of places and transitions are of interest in
// performing a particular analysis. The P-NUT system therefore provides a
// filtering tool from which significantly smaller traces can be obtained."
//
// TraceFilter sits between the simulator and a downstream sink. The
// keep/drop decision is made once per *firing*, at its Start event, so
// Start/End pairs are never split: a firing is kept iff its transition is
// kept, or the transition has any arc (input, output or inhibitor) touching
// a kept place. Token deltas of kept firings are projected onto the kept
// places. Because every delta touching a kept place survives, a cursor over
// the filtered trace still reconstructs exact token counts for kept places
// and exact in-flight counts for kept transitions.
//
// The keep sets are fixed before the run, so relevance is settled once per
// transition at begin(): a firing's End is kept exactly when its Start was,
// because both carry the same transition. Kept events are projected into
// one reused member event, so a filtered run allocates nothing per event
// (the downstream sink must copy an event it keeps, as TraceSink says).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "petri/net.h"
#include "trace/trace.h"

namespace pnut {

class TraceFilter final : public TraceSink {
 public:
  /// The filter needs the net to know, at Start time, whether a firing will
  /// later touch a kept place (its output arcs).
  TraceFilter(const Net& net, TraceSink& downstream)
      : net_(&net),
        downstream_(&downstream),
        kept_places_(net.num_places(), 0),
        kept_transitions_(net.num_transitions(), 0) {}

  /// Select elements to keep. Call before the run begins.
  void keep_place(PlaceId p) { kept_places_.at(p.value) = 1; }
  void keep_transition(TransitionId t) { kept_transitions_.at(t.value) = 1; }
  void keep_place(std::string_view name) { keep_place(net_->place_named(name)); }
  void keep_transition(std::string_view name) {
    keep_transition(net_->transition_named(name));
  }

  /// Keep data-variable updates on kept firings whose transition itself is
  /// not in the kept set (default: dropped).
  void keep_data(bool keep) { keep_data_ = keep; }

  void begin(const TraceHeader& header) override;
  void event(const TraceEvent& ev) override;
  void end(Time end_time) override;

  /// Events dropped / kept so far (for reporting compression ratios).
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }
  [[nodiscard]] std::uint64_t kept_events() const { return kept_; }

 private:
  [[nodiscard]] bool firing_is_relevant(TransitionId t) const;

  const Net* net_;
  TraceSink* downstream_;
  std::vector<std::uint8_t> kept_places_;       ///< per place
  std::vector<std::uint8_t> kept_transitions_;  ///< per transition
  std::vector<std::uint8_t> relevant_;  ///< per transition, settled at begin()
  TraceEvent projected_;                ///< the one event handed downstream
  bool keep_data_ = false;
  std::uint64_t dropped_ = 0;
  std::uint64_t kept_ = 0;
};

}  // namespace pnut
