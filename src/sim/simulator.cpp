#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace pnut {

Simulator::Simulator(const Net& net, SimOptions options)
    : Simulator(CompiledNet::compile(net), options) {}

Simulator::Simulator(std::shared_ptr<const CompiledNet> net, SimOptions options)
    : net_(std::move(net)), options_(options), rng_(options.seed) {
  if (!net_) throw std::invalid_argument("Simulator: null CompiledNet");
  if (options_.use_expr_vm && net_->net_has_hooks()) {
    program_ = expr::NetProgram::compile(net_->net());
    vm_mode_ = program_ != nullptr;
  }
  reset();
}

void Simulator::reset(std::optional<std::uint64_t> seed) {
  if (seed) rng_.reseed(*seed);
  now_ = options_.start_time;
  marking_ = Marking::initial(net_->net());
  data_ = net_->net().initial_data();
  data_cache_valid_ = true;
  if (vm_mode_) frame_.assign(program_->initial_frame());
  states_.assign(net_->num_transitions(), TransitionState{});
  dirty_.clear();
  dirty_flag_.assign(net_->num_transitions(), 0);
  ready_set_.clear();
  in_ready_.assign(net_->num_transitions(), 0);
  queue_.clear();
  next_firing_id_ = 0;
  immediate_firings_this_instant_ = 0;
  instant_ = now_;
  began_ = true;

  if (sink_ != nullptr) sink_->begin(TraceHeader::from_net(net_->net(), now_));

  mark_all_dirty();
  refresh_eligibility();
  fire_ready_transitions();
}

bool Simulator::compute_eligible(TransitionId t) const {
  if (net_->is_single_server(t) && states_[t.value].in_flight > 0) {
    return false;
  }
  if (vm_mode_) {
    if (!net_->tokens_available(marking_, t)) return false;
    const expr::Code* predicate = program_->predicate(t);
    if (predicate != nullptr &&
        expr::vm_eval(*predicate, frame_, nullptr, vm_scratch_) == 0) {
      return false;
    }
    return true;
  }
  return net_->is_enabled(marking_, t, data_);
}

Time Simulator::sample_delay(const DelaySpec& spec, const expr::Code* code) {
  if (code != nullptr) {
    // Same clamp as DelaySpec::sample's computed branch; no rng — computed
    // delays are deterministic in the data state (irand raises EvalError).
    const auto t = static_cast<Time>(expr::vm_eval(*code, frame_, nullptr, vm_scratch_));
    return t < 0 ? 0 : t;
  }
  if (vm_mode_) {
    // Non-computed kinds never read the data state; skip materializing the
    // DataContext cache just to pass a reference.
    static const DataContext kNoData;
    return spec.sample(kNoData, rng_);
  }
  return spec.sample(data_, rng_);
}

void Simulator::ready_insert(std::uint32_t t) {
  if (in_ready_[t]) return;
  in_ready_[t] = 1;
  ready_set_.insert(std::lower_bound(ready_set_.begin(), ready_set_.end(), t), t);
}

void Simulator::ready_erase(std::uint32_t t) {
  if (!in_ready_[t]) return;
  in_ready_[t] = 0;
  ready_set_.erase(std::lower_bound(ready_set_.begin(), ready_set_.end(), t));
}

void Simulator::mark_dirty(TransitionId t) {
  if (!dirty_flag_[t.value]) {
    dirty_flag_[t.value] = 1;
    dirty_.push_back(t.value);
  }
}

void Simulator::mark_place_dirty(PlaceId p) {
  for (const TransitionId t : net_->eligibility_watchers(p)) mark_dirty(t);
}

void Simulator::mark_predicated_dirty() {
  for (const TransitionId t : net_->predicated_transitions()) mark_dirty(t);
}

void Simulator::mark_all_dirty() {
  dirty_.clear();
  dirty_.reserve(states_.size());
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    dirty_flag_[i] = 1;
    dirty_.push_back(i);
  }
}

void Simulator::refresh_one(TransitionId t) {
  TransitionState& st = states_[t.value];
  const bool now_eligible = compute_eligible(t);

  if (now_eligible && !st.eligible) {
    // Became enabled: arm the enabling timer (or mark ready immediately).
    st.eligible = true;
    st.enabled_since = now_;
    ++st.generation;
    if (net_->has_zero_enabling_time(t)) {
      st.ready = true;
      ready_insert(t.value);
    } else {
      const Time delay = sample_delay(net_->enabling_time(t),
                                      vm_mode_ ? program_->enabling_delay(t) : nullptr);
      if (delay <= 0) {
        st.ready = true;
        ready_insert(t.value);
      } else {
        st.ready = false;
        queue_.push(now_ + delay, QueuedEvent::Kind::kEnablingExpiry, t.value,
                    st.generation);
      }
    }
  } else if (!now_eligible && st.eligible) {
    // Disabled: the continuous-enablement clock resets; any pending
    // expiry event for the old generation becomes stale.
    st.eligible = false;
    st.ready = false;
    ++st.generation;
    ready_erase(t.value);
  }
  // Still eligible (or still not): leave the running timer untouched —
  // that is precisely the "continuously enabled" requirement.
}

void Simulator::refresh_eligibility() {
  if (!options_.incremental_eligibility) {
    // Reference mode: the historical whole-net rescan.
    for (std::uint32_t i = 0; i < states_.size(); ++i) {
      dirty_flag_[i] = 0;
      refresh_one(TransitionId(i));
    }
    dirty_.clear();
    return;
  }
  if (dirty_.empty()) return;
  // Ascending id order keeps the RNG draw order of newly-eligible
  // transitions identical to the whole-net rescan.
  std::sort(dirty_.begin(), dirty_.end());
  for (const std::uint32_t i : dirty_) {
    dirty_flag_[i] = 0;
    refresh_one(TransitionId(i));
  }
  dirty_.clear();
}

void Simulator::start_firing(TransitionId t) {
  TransitionState& st = states_[t.value];
  const std::uint64_t firing_id = next_firing_id_++;
  // The deltas are built only for a sink; the token moves happen either way.
  TraceEvent* start = sink_ != nullptr
                          ? &event_.reset(TraceEvent::Kind::kStart, now_, t, firing_id)
                          : nullptr;

  for (const Arc& a : net_->inputs(t)) {
    marking_.remove(a.place, a.weight);
    mark_place_dirty(a.place);
    if (start != nullptr) start->consumed.push_back(TokenDelta{a.place, a.weight});
  }

  if (net_->has_action(t)) {
    if (vm_mode_) {
      run_action_vm(t, start);
    } else {
      run_action_ast(t, start);
    }
  }

  const Time firing_time = sample_delay(net_->firing_time(t),
                                        vm_mode_ ? program_->firing_delay(t) : nullptr);

  if (firing_time <= 0) {
    // Zero-duration firing: consume + produce in one atomic state delta
    // (Section 4.2 relies on instantaneous moves being atomic for the
    // Bus_busy + Bus_free = 1 style invariants to hold in every state).
    for (const Arc& a : net_->outputs(t)) {
      marking_.add(a.place, a.weight);
      mark_place_dirty(a.place);
      if (start != nullptr) start->produced.push_back(TokenDelta{a.place, a.weight});
    }
    st.completions += 1;
    if (start != nullptr) {
      start->kind = TraceEvent::Kind::kAtomic;
      sink_->event(*start);
    }
    return;
  }

  st.in_flight += 1;
  mark_dirty(t);  // in_flight gates single-server eligibility
  if (start != nullptr) sink_->event(*start);
  queue_.push(now_ + firing_time, QueuedEvent::Kind::kFiringComplete, t.value, firing_id);
}

void Simulator::run_action_ast(TransitionId t, TraceEvent* start) {
  // Diff the (small) data context around the action so the trace carries
  // the exact variable updates the firing performed.
  const DataContext before = data_;
  net_->action(t)(data_, rng_);
  mark_predicated_dirty();
  if (start != nullptr) {
    for (const auto& [name, value] : data_.scalars()) {
      if (!before.has(name) || before.get(name) != value) {
        start->scalar_updates.push_back(ScalarUpdate{name, value});
      }
    }
  }
  for (const auto& [name, values] : data_.tables()) {
    if (!before.has_table(name)) {
      throw std::logic_error(
          "Simulator: action created table '" + name +
          "' at runtime; declare tables in Net::initial_data() instead");
    }
    if (start == nullptr) continue;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (before.get_table(name, static_cast<std::int64_t>(i)) != values[i]) {
        start->table_updates.push_back(
            TableUpdate{name, static_cast<std::int64_t>(i), values[i]});
      }
    }
  }
}

void Simulator::run_action_vm(TransitionId t, TraceEvent* start) {
  if (start != nullptr) frame_before_.assign(frame_);
  expr::vm_exec(*program_->action(t), frame_, &rng_, vm_scratch_);
  data_cache_valid_ = false;
  mark_predicated_dirty();
  if (start == nullptr) return;

  // Frame diff in slot order == name order, so the trace's update lists
  // are identical to the AST path's DataContext diff.
  const DataSchema& schema = program_->schema();
  for (std::size_t i = 0; i < schema.num_scalars(); ++i) {
    if (frame_.present[i] == 0) continue;
    if (frame_before_.present[i] == 0 || frame_before_.values[i] != frame_.values[i]) {
      start->scalar_updates.push_back(ScalarUpdate{schema.scalar_names()[i], frame_.values[i]});
    }
  }
  for (const DataSchema::Table& table : schema.tables()) {
    for (std::uint32_t i = 0; i < table.size; ++i) {
      if (frame_before_.values[table.base + i] != frame_.values[table.base + i]) {
        start->table_updates.push_back(TableUpdate{
            table.name, static_cast<std::int64_t>(i), frame_.values[table.base + i]});
      }
    }
  }
}

void Simulator::complete_firing(TransitionId t, std::uint64_t firing_id) {
  TransitionState& st = states_[t.value];
  TraceEvent* end = sink_ != nullptr
                        ? &event_.reset(TraceEvent::Kind::kEnd, now_, t, firing_id)
                        : nullptr;
  for (const Arc& a : net_->outputs(t)) {
    marking_.add(a.place, a.weight);
    mark_place_dirty(a.place);
    if (end != nullptr) end->produced.push_back(TokenDelta{a.place, a.weight});
  }
  st.in_flight -= 1;
  mark_dirty(t);
  st.completions += 1;
  if (end != nullptr) sink_->event(*end);
}

void Simulator::fire_ready_transitions() {
  while (true) {
    // Candidates: transitions that are ready *and still* eligible at this
    // instant (an earlier firing in this loop may have stolen their tokens).
    // The incrementally-maintained ready set IS that list, in ascending id
    // order, and is read in place; the historical O(T) rescan survives with
    // the reference eligibility mode.
    const std::vector<std::uint32_t>* candidates = &ready_set_;
    if (!options_.incremental_eligibility) {
      rescan_ready_.clear();
      for (std::uint32_t i = 0; i < states_.size(); ++i) {
        if (states_[i].ready && states_[i].eligible) rescan_ready_.push_back(i);
      }
      candidates = &rescan_ready_;
    }
    if (candidates->empty()) return;
    weights_.clear();
    for (const std::uint32_t i : *candidates) {
      weights_.push_back(net_->frequency(TransitionId(i)));
    }

    // Budget guard against zero-delay livelock.
    if (now_ != instant_) {
      instant_ = now_;
      immediate_firings_this_instant_ = 0;
    }
    if (++immediate_firings_this_instant_ > options_.max_immediate_firings_per_instant) {
      throw std::runtime_error(
          "Simulator: more than " +
          std::to_string(options_.max_immediate_firings_per_instant) +
          " firings at time " + std::to_string(now_) +
          " — the net has a zero-delay livelock");
    }

    const std::size_t pick = rng_.next_weighted(weights_);
    const TransitionId chosen((*candidates)[pick]);

    // Firing consumes this transition's readiness; it must wait out a full
    // enabling delay again before its next firing. Mark it dirty so the
    // refresh re-evaluates it even if no watched place changed (e.g. a
    // source transition with no input arcs).
    states_[chosen.value].ready = false;
    states_[chosen.value].eligible = false;
    ++states_[chosen.value].generation;
    ready_erase(chosen.value);
    mark_dirty(chosen);

    start_firing(chosen);
    refresh_eligibility();
  }
}

StopReason Simulator::run_until(Time t, std::optional<std::uint64_t> max_events) {
  if (!began_) reset();
  std::uint64_t processed = 0;

  while (!queue_.empty() && queue_.top().time <= t) {
    if (max_events && processed >= *max_events) return StopReason::kEventLimit;
    const QueuedEvent ev = queue_.pop();

    if (ev.kind == QueuedEvent::Kind::kEnablingExpiry) {
      TransitionState& st = states_[ev.transition];
      if (st.generation != ev.payload) continue;  // stale timer
      now_ = ev.time;
      st.ready = true;
      // A matching generation means continuously eligible since arming.
      ready_insert(ev.transition);
    } else {
      now_ = ev.time;
      complete_firing(TransitionId(ev.transition), ev.payload);
      refresh_eligibility();
    }
    ++processed;
    fire_ready_transitions();
  }

  // Whether or not anything can still happen, the experiment's clock runs
  // to the requested horizon — a deadlocked system keeps existing, so
  // statistics integrate over the full [start, t] window.
  if (t > now_) now_ = t;
  if (queue_.empty() && deadlocked()) {
    return StopReason::kDeadlock;
  }
  return StopReason::kTimeLimit;
}

StopReason Simulator::run_for(Time duration, std::optional<std::uint64_t> max_events) {
  return run_until(now_ + duration, max_events);
}

void Simulator::finish() {
  if (sink_ != nullptr) sink_->end(now_);
}

bool Simulator::deadlocked() const {
  if (!queue_.empty()) return false;
  for (const TransitionState& st : states_) {
    if (st.in_flight > 0) return false;
    if (st.ready && st.eligible) return false;
    // An eligible transition with an armed timer would have an event queued.
  }
  // No queued events, nothing in flight, nothing ready: if some transition
  // is eligible with a zero enabling delay it would have been fired already.
  return true;
}

}  // namespace pnut
