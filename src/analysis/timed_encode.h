// State layout, scheduler and successor kernel of the timed reachability
// builder (timed_reachability.cpp), the way exploration.h's detail helpers
// serve the untimed builder.
//
// A state is the word vector [ marking tokens | per-transition remaining
// enabling delay | per-(transition, remaining-cycles) in-flight counts ]
// (see timed_reachability.h), canonical in that an ineligible transition
// holds its full enabling delay. The kernel works on these words directly,
// with no decoded working form and no per-successor allocation: it copies
// the parent once, builds each successor in one reused buffer, and
// re-tests eligibility only for the watchers of places whose tokens
// changed. That is exact because the parent is canonical: no other
// transition's eligibility, hence its timer, can have changed. The width
// is capped at kMaxTimedStateWords, so 32-bit slot offsets cannot wrap.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/timed_reachability.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"

namespace pnut::analysis::detail {

/// The two-bucket 0-1 BFS scheduler state: canonical ids are its discovery
/// order, earliest times its arrival bookkeeping, truncation its stop
/// rules.
///
/// `current` is the cost-0 (firing) closure of the instant `now`, expanded
/// FIFO to a fixed point; `next` stages the tick targets of the following
/// instant. A cost-0 edge can reach a state already staged for `next` (the
/// same encoded state produced both by a tick and by a firing): the state
/// is *promoted* into `current`, its earliest time corrected down, and its
/// stale `next` entry skipped at the bucket swap. `in_current` marks states
/// queued for (or already past) expansion — set at most once per state,
/// since everything in `current` is expanded within its bucket; `in_next`
/// dedups the staging list.
struct TimedSchedule {
  std::vector<std::uint64_t> earliest_time;  ///< per state, in ticks
  std::vector<std::uint32_t> current;        ///< cost-0 closure pending list
  std::vector<std::uint32_t> next;           ///< staged tick bucket
  std::vector<std::uint8_t> in_current, in_next;
  std::vector<std::uint8_t> expanded;  ///< per state: edge row is complete
  std::uint64_t now = 0;
  TimedReachStatus status = TimedReachStatus::kComplete;
  /// Stop-poll accounting at canonical positions: exactly one poll_due()
  /// call per expanded state, due every kStopCheckStride states plus the
  /// first state after each tick (instant boundaries).
  std::uint64_t expand_count = 0;
  bool poll_pending = false;

  [[nodiscard]] bool poll_due() {
    const bool due = poll_pending || expand_count % kStopCheckStride == 0;
    poll_pending = false;
    ++expand_count;
    return due;
  }

  /// Seed with the initial state (index 0, time 0, pending expansion).
  void bootstrap() {
    earliest_time.assign(1, 0);
    current.assign(1, 0);
    in_current.assign(1, 1);
    in_next.assign(1, 0);
    expanded.assign(1, 0);
  }

  /// Record one discovered edge target — `fresh` on its first sighting,
  /// right after the state was appended as index `target` making
  /// `num_states` states total. Assigns/min-updates the earliest time,
  /// applies the stop rules, and schedules the target (current-closure
  /// promotion, next-bucket staging, or horizon-gated nothing). The caller
  /// adds the edge itself *before* calling (the max_states stop keeps the
  /// edge that hit the cap). Returns false when max_states hit: stop
  /// everything, the expanding parent's row stays partial and unmarked.
  bool record(std::uint32_t target, bool fresh, std::uint64_t cost,
              std::size_t num_states, const TimedReachOptions& options) {
    const std::uint64_t arrival = now + cost;
    if (fresh) {
      earliest_time.push_back(arrival);
      in_current.push_back(0);
      in_next.push_back(0);
      expanded.push_back(0);
      if (num_states > options.max_states) {
        status = TimedReachStatus::kTruncated;
        return false;
      }
      if (arrival > options.max_time) status = TimedReachStatus::kTruncated;
    } else if (arrival < earliest_time[target]) {
      earliest_time[target] = arrival;  // promotion: found at cost 0
    }
    if (in_current[target] == 0 && earliest_time[target] <= options.max_time) {
      if (earliest_time[target] <= now) {
        in_current[target] = 1;
        current.push_back(target);
      } else if (in_next[target] == 0) {
        in_next[target] = 1;
        next.push_back(target);
      }
    }
    return true;
  }

  /// Cost-0 closure complete: advance one tick into the staged bucket
  /// (skipping states a firing path promoted into the old closure).
  /// Returns false when nothing is staged — the exploration is finished.
  bool advance_tick() {
    current.clear();
    for (const std::uint32_t s : next) {
      if (in_current[s] == 0) {
        in_current[s] = 1;
        current.push_back(s);
      }
    }
    next.clear();
    if (current.empty()) return false;
    ++now;
    poll_pending = true;  // instant boundary: poll at the next expansion
    return true;
  }
};

/// Fixed word layout of a net's timed states: integer delays per
/// transition plus the in-flight region offsets derived from them.
struct TimedLayout {
  std::size_t num_places = 0;
  std::size_t num_transitions = 0;
  std::vector<std::uint32_t> enabling_delay;  ///< per transition
  std::vector<std::uint32_t> firing_delay;    ///< per transition
  /// inflight_off[t] .. inflight_off[t+1]-1: count slots for transition t,
  /// indexed by remaining-cycles - 1. inflight_off[nt] is the state width,
  /// at most kMaxTimedStateWords.
  std::vector<std::uint32_t> inflight_off;

  [[nodiscard]] std::size_t width() const { return inflight_off[num_transitions]; }

  /// Derive the layout, validating the net for timed analysis; throws as
  /// the TimedReachabilityGraph constructor documents.
  static TimedLayout build(const CompiledNet& net) {
    const auto integer_delay = [](const DelaySpec& spec, const std::string& transition,
                                  const char* kind) {
      if (spec.kind() != DelaySpec::Kind::kConstant) {
        throw std::invalid_argument("TimedReachabilityGraph: transition '" + transition +
                                    "' has a non-constant " + kind +
                                    " time; timed analysis needs integer constants");
      }
      const Time value = spec.constant_value();
      if (value < 0 || value != std::floor(value)) {
        throw std::invalid_argument("TimedReachabilityGraph: transition '" + transition +
                                    "' has a non-integer " + kind + " time");
      }
      if (value >= 4294967296.0) {
        throw std::out_of_range("transition '" + transition + "' has " + kind +
                                " time 2^32 or more: timed states hold delays in 32-bit words");
      }
      return static_cast<std::uint32_t>(value);
    };

    TimedLayout layout;
    layout.num_places = net.num_places();
    layout.num_transitions = net.num_transitions();
    const std::size_t nt = layout.num_transitions;
    layout.enabling_delay.resize(nt);
    layout.firing_delay.resize(nt);
    for (std::uint32_t i = 0; i < nt; ++i) {
      const TransitionId t(i);
      if (net.is_interpreted(t)) {
        throw std::invalid_argument("TimedReachabilityGraph: transition '" +
                                    net.transition_name(t) +
                                    "' has predicates/actions; timed analysis works on "
                                    "the uninterpreted timing skeleton");
      }
      layout.enabling_delay[i] =
          integer_delay(net.enabling_time(t), net.transition_name(t), "enabling");
      layout.firing_delay[i] =
          integer_delay(net.firing_time(t), net.transition_name(t), "firing");
    }
    const std::string too_wide =
        ": a timed state would be wider than " + std::to_string(kMaxTimedStateWords) + " words";
    std::uint64_t end = layout.num_places + nt;  // 64-bit: delays may sum past 2^32
    if (end > kMaxTimedStateWords) {
      throw std::out_of_range(std::to_string(layout.num_places) + " places and " +
                              std::to_string(nt) + " transitions" + too_wide);
    }
    layout.inflight_off.resize(nt + 1);
    layout.inflight_off[0] = static_cast<std::uint32_t>(end);
    for (std::uint32_t i = 0; i < nt; ++i) {
      end += layout.firing_delay[i];
      if (end > kMaxTimedStateWords) {
        throw std::out_of_range("transition '" + net.transition_name(TransitionId(i)) +
                                "' has firing time " +
                                std::to_string(layout.firing_delay[i]) + too_wide);
      }
      layout.inflight_off[i + 1] = static_cast<std::uint32_t>(end);
    }
    return layout;
  }
};

/// Eligibility under timed semantics, read off a state's words:
/// token-enabled, and a single-server transition must have no firing of its
/// own in flight.
inline bool timed_eligible(const CompiledNet& net, const TimedLayout& layout,
                           const std::uint32_t* words, std::uint32_t t) {
  if (net.is_single_server(TransitionId(t))) {
    for (std::uint32_t i = layout.inflight_off[t]; i < layout.inflight_off[t + 1]; ++i) {
      if (words[i] != 0) return false;
    }
  }
  return net.tokens_available(std::span<const TokenCount>(words, layout.num_places),
                              TransitionId(t));
}

/// Reused buffers of the successor kernel: the expanding state's words (a
/// copy: interning a successor may reallocate or evict the arena slice),
/// the successor being built, and the parent's per-transition eligibility.
struct TimedScratch {
  explicit TimedScratch(const TimedLayout& layout)
      : parent(layout.width()), next(layout.width()), eligible(layout.num_transitions) {}
  std::vector<std::uint32_t> parent, next;
  std::vector<std::uint8_t> eligible;
};

/// Enumerate the timed successors of the interned state `state` in
/// canonical order: ready firings in ascending transition order (maximal
/// progress — time may not pass while something is ready), else the single
/// one-cycle tick, else nothing (timed deadlock). Each successor is built
/// in place in `w.next` and passed as `emit(label, words, cost)` — label
/// nullopt for the tick, cost 0 for firings and 1 for the tick — which
/// returns false to abort the enumeration; the function then returns false
/// (the builder's state-cap stop rule). Eligibility reads a transition's
/// input and inhibitor places and, if single-server, its own in-flight
/// slots; so only watchers of changed places, and the fired transition,
/// need their timers checked.
template <typename EmitFn>
bool for_each_timed_successor(const CompiledNet& net, const TimedLayout& layout,
                              std::span<const std::uint32_t> state, TimedScratch& w,
                              EmitFn&& emit) {
  const std::size_t np = layout.num_places;
  const std::size_t nt = layout.num_transitions;
  const std::span<const std::uint32_t> next_words(w.next);
  const std::size_t bytes = next_words.size_bytes();
  std::uint32_t* const parent = w.parent.data();
  std::uint32_t* const next = w.next.data();
  std::uint32_t* const timer = next + np;
  std::memcpy(parent, state.data(), bytes);
  for (std::uint32_t t = 0; t < nt; ++t) w.eligible[t] = timed_eligible(net, layout, parent, t);
  const auto reset_watchers = [&](PlaceId p) {
    for (const TransitionId u : net.eligibility_watchers(p)) {
      if (!timed_eligible(net, layout, next, u.value)) {
        timer[u.value] = layout.enabling_delay[u.value];
      }
    }
  };

  // Ready transitions fire before time may pass (maximal progress).
  bool any_ready = false;
  for (std::uint32_t t = 0; t < nt; ++t) {
    if (w.eligible[t] == 0 || parent[np + t] != 0) continue;
    any_ready = true;
    const TransitionId tid(t);
    const std::uint32_t delay = layout.firing_delay[t];
    std::memcpy(next, parent, bytes);
    for (const Arc& a : net.inputs(tid)) next[a.place.value] -= a.weight;
    if (delay == 0) {
      for (const Arc& a : net.outputs(tid)) add_tokens(next[a.place.value], a.place, a.weight);
    } else {
      ++next[layout.inflight_off[t] + delay - 1];
    }
    timer[t] = layout.enabling_delay[t];  // the fired transition re-earns its delay
    for (const Arc& a : net.inputs(tid)) reset_watchers(a.place);
    if (delay == 0) {
      for (const Arc& a : net.outputs(tid)) reset_watchers(a.place);
    }
    if (!emit(std::optional<TransitionId>(tid), next_words, std::uint64_t{0})) return false;
  }
  if (any_ready) return true;  // time may not pass while something is ready

  // Tick: possible iff something is waiting (an armed timer or an
  // in-flight firing); otherwise the state is a timed deadlock.
  const auto nonzero = [](std::uint32_t x) { return x != 0; };
  if (std::none_of(w.eligible.begin(), w.eligible.end(), nonzero) &&
      std::none_of(parent + np + nt, parent + next_words.size(), nonzero)) {
    return true;  // deadlock: no outgoing edges
  }

  std::memcpy(next, parent, bytes);
  for (std::uint32_t t = 0; t < nt; ++t) {
    if (w.eligible[t] != 0) --timer[t];  // nonzero: nothing is ready
  }
  // Every in-flight count moves one slot down; slot 0's firings complete.
  for (std::uint32_t t = 0; t < nt; ++t) {
    const std::uint32_t delay = layout.firing_delay[t];
    if (delay == 0) continue;
    std::uint32_t* const slots = next + layout.inflight_off[t];
    const std::uint32_t done = slots[0];
    std::memmove(slots, slots + 1, (delay - 1) * sizeof(std::uint32_t));
    slots[delay - 1] = 0;
    for (std::uint32_t c = 0; c < done; ++c) {
      for (const Arc& a : net.outputs(TransitionId(t))) {
        add_tokens(next[a.place.value], a.place, a.weight);
      }
    }
  }
  // Completions only add tokens and empty in-flight slots: a transition
  // turns ineligible only through an inhibitor on a place that gained.
  for (std::uint32_t t = 0; t < nt; ++t) {
    if (layout.firing_delay[t] == 0 || parent[layout.inflight_off[t]] == 0) continue;
    for (const Arc& a : net.outputs(TransitionId(t))) reset_watchers(a.place);
  }
  return emit(std::optional<TransitionId>(std::nullopt), next_words, std::uint64_t{1});
}

}  // namespace pnut::analysis::detail
