// Shared state encoding and successor rule for the timed reachability
// explorers.
//
// The sequential builder (timed_reachability.cpp) and the parallel engine
// (timed_parallel_exploration.cpp) must agree *exactly* on how a timed
// state is turned into arena words and which successors leave it in which
// order — the differential tests pin the two paths bit-identical — so the
// word layout, the timed eligibility/normalization rules, and the one
// successor-enumeration function live here, the way exploration.h's
// detail helpers serve the untimed builders.
//
// Word layout of an interned timed state (see timed_reachability.h):
//   [ marking tokens | per-transition remaining enabling delay |
//     per-(transition, remaining-cycles) in-flight firing counts ]
// — a canonical fixed-width encoding (the in-flight multiset becomes counts
// indexed by remaining time), so interning needs no strings and no sorting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/timed_reachability.h"
#include "petri/compiled_net.h"
#include "petri/marking.h"

namespace pnut::analysis::detail {

/// The two-bucket 0-1 BFS scheduler state shared by the sequential builder
/// and the parallel seal — the piece of the timed exploration that MUST be
/// byte-for-byte identical between them (canonical ids are its discovery
/// order, earliest times its arrival bookkeeping, truncation its stop
/// rules), so it lives here once instead of being maintained in two copies.
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
  /// Stop-poll accounting, shared so both engines poll at identical
  /// canonical positions: exactly one poll_due() call per expanded state
  /// (the sequential pop and the parallel seal walk visit states in the
  /// same order), due every kStopCheckStride states plus the first state
  /// after each tick (instant boundaries).
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
  /// edge that hit the cap, exactly like the sequential builder always
  /// did). Returns false when max_states hit: stop everything, the
  /// expanding parent's row stays partial and unmarked.
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
  /// indexed by remaining-cycles - 1. inflight_off[nt] is the state width.
  std::vector<std::uint32_t> inflight_off;

  [[nodiscard]] std::size_t width() const { return inflight_off[num_transitions]; }

  /// Derive the layout, validating the net for timed analysis. Throws
  /// std::invalid_argument if any delay is not a non-negative integer
  /// constant, or if the net is interpreted (predicates/actions) — timed
  /// analysis is defined on the uninterpreted timing skeleton.
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
    layout.inflight_off.resize(nt + 1);
    layout.inflight_off[0] = static_cast<std::uint32_t>(layout.num_places + nt);
    for (std::size_t i = 0; i < nt; ++i) {
      layout.inflight_off[i + 1] = layout.inflight_off[i] + layout.firing_delay[i];
    }
    return layout;
  }
};

/// Working form of a timed state during expansion; interned states live as
/// fixed-width word vectors in the arena (layout above).
struct TimedState {
  Marking marking;
  /// Remaining enabling delay per transition (0 = ready or not enabled).
  std::vector<std::uint32_t> enabling_left;
  /// In-flight firings: (transition, remaining cycles), sorted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> in_flight;
};

inline void encode_timed(const TimedLayout& layout, const TimedState& s,
                         std::span<std::uint32_t> out) {
  const std::size_t np = layout.num_places;
  const std::size_t nt = layout.num_transitions;
  std::memcpy(out.data(), s.marking.tokens().data(), np * sizeof(std::uint32_t));
  std::memcpy(out.data() + np, s.enabling_left.data(), nt * sizeof(std::uint32_t));
  std::fill(out.begin() + static_cast<std::ptrdiff_t>(np + nt), out.end(), 0u);
  for (const auto& [t, left] : s.in_flight) ++out[layout.inflight_off[t] + left - 1];
}

inline TimedState decode_timed(const TimedLayout& layout,
                               std::span<const std::uint32_t> words) {
  const std::size_t np = layout.num_places;
  const std::size_t nt = layout.num_transitions;
  TimedState s;
  s.marking = Marking::from_tokens(words.first(np));
  s.enabling_left.assign(words.begin() + static_cast<std::ptrdiff_t>(np),
                         words.begin() + static_cast<std::ptrdiff_t>(np + nt));
  for (std::uint32_t t = 0; t < nt; ++t) {
    for (std::uint32_t left = 1; left <= layout.firing_delay[t]; ++left) {
      for (std::uint32_t c = words[layout.inflight_off[t] + left - 1]; c > 0; --c) {
        s.in_flight.emplace_back(t, left);
      }
    }
  }
  return s;
}

/// Eligibility under timed semantics: token-enabled, and single-server
/// transitions must not have a firing of their own in flight.
inline bool timed_eligible(const CompiledNet& net, const TimedState& s, std::uint32_t t) {
  if (net.is_single_server(TransitionId(t))) {
    for (const auto& [ft, left] : s.in_flight) {
      if (ft == t) return false;
    }
  }
  return net.tokens_available(s.marking, TransitionId(t));
}

/// Canonical form: eligible transitions carry their remaining enabling
/// delay; ineligible ones carry the full delay (reset timers). `previous`
/// carries over running timers for continuously-eligible transitions.
inline void timed_normalize(const CompiledNet& net, const TimedLayout& layout,
                            TimedState& s, const TimedState* previous) {
  for (std::uint32_t t = 0; t < layout.num_transitions; ++t) {
    if (timed_eligible(net, s, t)) {
      if (previous != nullptr && previous->enabling_left[t] <= layout.enabling_delay[t] &&
          timed_eligible(net, *previous, t)) {
        s.enabling_left[t] = previous->enabling_left[t];
      }
      // Newly eligible: keep what the caller pre-set (full delay).
    } else {
      s.enabling_left[t] = layout.enabling_delay[t];
    }
  }
  std::sort(s.in_flight.begin(), s.in_flight.end());
}

inline TimedState timed_initial_state(const CompiledNet& net, const TimedLayout& layout) {
  TimedState initial;
  initial.marking = Marking::initial(net.net());
  initial.enabling_left = layout.enabling_delay;
  timed_normalize(net, layout, initial, nullptr);
  return initial;
}

/// Enumerate the timed successors of `s` in the canonical order both
/// explorers share: ready firings in ascending transition order (maximal
/// progress — time may not pass while something is ready), else the single
/// one-cycle tick, else nothing (timed deadlock). `emit(label, next, cost)`
/// — label nullopt for the tick, cost 0 for firings and 1 for the tick —
/// returns false to abort the enumeration; the function then returns false
/// (the sequential builder's state-cap stop rule).
template <typename EmitFn>
bool for_each_timed_successor(const CompiledNet& net, const TimedLayout& layout,
                              const TimedState& s, EmitFn&& emit) {
  const std::size_t nt = layout.num_transitions;

  // Ready transitions fire before time may pass (maximal progress).
  bool any_ready = false;
  for (std::uint32_t t = 0; t < nt; ++t) {
    if (s.enabling_left[t] != 0 || !timed_eligible(net, s, t)) continue;
    any_ready = true;
    TimedState next = s;
    for (const Arc& a : net.inputs(TransitionId(t))) next.marking.remove(a.place, a.weight);
    if (layout.firing_delay[t] == 0) {
      for (const Arc& a : net.outputs(TransitionId(t))) next.marking.add(a.place, a.weight);
    } else {
      next.in_flight.emplace_back(t, layout.firing_delay[t]);
    }
    // The fired transition's own timer restarts.
    next.enabling_left[t] = layout.enabling_delay[t];
    timed_normalize(net, layout, next, &s);
    // A fired transition must re-earn its enabling delay even if still
    // eligible (normalize would otherwise carry the old 0 over).
    if (timed_eligible(net, next, t)) next.enabling_left[t] = layout.enabling_delay[t];
    if (!emit(std::optional<TransitionId>(TransitionId(t)), next, std::uint64_t{0})) {
      return false;
    }
  }
  if (any_ready) return true;  // time may not pass while something is ready

  // Tick: possible iff something is waiting (an armed timer or an
  // in-flight firing); otherwise the state is a timed deadlock.
  bool anything_waiting = !s.in_flight.empty();
  for (std::uint32_t t = 0; t < nt && !anything_waiting; ++t) {
    anything_waiting = timed_eligible(net, s, t);  // armed enabling timer
  }
  if (!anything_waiting) return true;  // deadlock: no outgoing edges

  TimedState next = s;
  for (std::uint32_t t = 0; t < nt; ++t) {
    if (timed_eligible(net, s, t) && next.enabling_left[t] > 0) next.enabling_left[t] -= 1;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> still_flying;
  for (auto [t, left] : next.in_flight) {
    if (left > 1) {
      still_flying.emplace_back(t, left - 1);
    } else {
      for (const Arc& a : net.outputs(TransitionId(t))) next.marking.add(a.place, a.weight);
    }
  }
  next.in_flight = std::move(still_flying);
  {
    // Completions may enable new transitions; carry running timers over.
    TimedState carry = s;
    carry.marking = next.marking;      // eligibility in the *new* marking
    carry.in_flight = next.in_flight;  // and with the new in-flight set
    carry.enabling_left = next.enabling_left;
    timed_normalize(net, layout, next, &carry);
  }
  return emit(std::optional<TransitionId>(std::nullopt), next, std::uint64_t{1});
}

}  // namespace pnut::analysis::detail
