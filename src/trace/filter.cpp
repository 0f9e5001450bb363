#include "trace/filter.h"

#include <algorithm>

namespace pnut {

void TraceFilter::begin(const TraceHeader& header) {
  relevant_.resize(net_->num_transitions());
  for (std::uint32_t t = 0; t < relevant_.size(); ++t) {
    relevant_[t] = firing_is_relevant(TransitionId(t)) ? 1 : 0;
  }
  dropped_ = 0;
  kept_ = 0;
  downstream_->begin(header);
}

bool TraceFilter::firing_is_relevant(TransitionId t) const {
  if (kept_transitions_[t.value] != 0) return true;
  const Transition& tr = net_->transition(t);
  auto touches = [&](const std::vector<Arc>& arcs) {
    return std::any_of(arcs.begin(), arcs.end(),
                       [&](const Arc& a) { return kept_places_[a.place.value] != 0; });
  };
  return touches(tr.inputs) || touches(tr.outputs) || touches(tr.inhibitors);
}

void TraceFilter::event(const TraceEvent& ev) {
  // Start, End and Atomic alike: a firing is kept iff its transition is
  // relevant, so Start/End pairs are never split.
  if (relevant_[ev.transition.value] == 0) {
    ++dropped_;
    return;
  }
  ++kept_;
  if (kept_transitions_[ev.transition.value] != 0) {
    downstream_->event(ev);
    return;
  }
  // Project token deltas onto kept places only.
  projected_.reset(ev.kind, ev.time, ev.transition, ev.firing_id);
  const auto project = [&](const std::vector<TokenDelta>& from, std::vector<TokenDelta>& to) {
    for (const TokenDelta& d : from) {
      if (kept_places_[d.place.value] != 0) to.push_back(d);
    }
  };
  project(ev.consumed, projected_.consumed);
  project(ev.produced, projected_.produced);
  if (keep_data_) {
    projected_.scalar_updates = ev.scalar_updates;
    projected_.table_updates = ev.table_updates;
  }
  downstream_->event(projected_);
}

void TraceFilter::end(Time end_time) { downstream_->end(end_time); }

}  // namespace pnut
