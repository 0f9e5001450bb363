// Naive reference explorer for the timed reachability graph.
//
// The production builder (analysis/timed_reachability.cpp with the encoding
// and scheduler of analysis/timed_encode.h) interns word-encoded states in a
// StateStore and orders its 0-1 BFS with a two-bucket scheduler whose
// promotion rule moves a state staged for the next instant back into the
// current one. This oracle shares none of that: it reads the `Net`
// description directly, keeps each state as a (marking, enabling timers,
// in-flight firings) tuple in a std::map, and computes earliest times with
// a textbook deque 0-1 BFS. Its result is a *set* of states with times and
// edge multisets, so comparisons against it do not depend on the order in
// which either side discovered anything.
//
// The timed semantics it implements (the paper's [RP84] discrete-time
// reading, for nets whose delays are integer constants):
//   * a transition is *eligible* when its input weights are covered, its
//     inhibitor places are below their thresholds, and — unless it is
//     infinite-server — no firing of its own is in flight;
//   * every transition carries an enabling timer: the full enabling delay
//     while ineligible, counting down by one per tick while eligible;
//   * maximal progress: when some eligible transition's timer is 0 it is
//     *ready*, and the state's successors are exactly the ready firings
//     (cost 0, ascending transition order). A firing removes the inputs and
//     either adds the outputs at once (firing delay 0) or puts the firing in
//     flight for `firing delay` ticks. Afterwards every transition that was
//     eligible before and after the firing keeps its timer; every other
//     transition, and the fired one, restarts at its full enabling delay;
//   * with nothing ready, one tick edge (cost 1) exists iff something is
//     waiting (a firing in flight or an eligible transition); it decrements
//     the timers of eligible transitions and the remaining time of every
//     in-flight firing, landing the outputs of firings that reach 0. After
//     the tick a transition eligible both before and after keeps its
//     decremented timer, any other restarts at its full delay;
//   * a state whose earliest time exceeds `max_time` is discovered (it has
//     an id and incoming edges) but not expanded, and the status is then
//     kTruncated.
// `max_states` is not a stop rule here: exceeding it throws, since a
// state-capped production graph is compared as a prefix instead (see
// tests/analysis_timed_reference_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/timed_reachability.h"
#include "petri/net.h"

namespace pnut::test_support {

struct ReferenceTimedState {
  std::vector<TokenCount> marking;
  std::vector<std::uint32_t> enabling_left;  ///< per transition
  /// (transition, remaining ticks) per in-flight firing, sorted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> in_flight;

  friend bool operator<(const ReferenceTimedState& a, const ReferenceTimedState& b) {
    return std::tie(a.marking, a.enabling_left, a.in_flight) <
           std::tie(b.marking, b.enabling_left, b.in_flight);
  }
  friend bool operator==(const ReferenceTimedState&, const ReferenceTimedState&) = default;
};

struct ReferenceTimedGraph {
  struct Edge {
    std::optional<std::uint32_t> transition;  ///< nullopt: the tick
    std::uint32_t target = 0;
  };
  std::vector<ReferenceTimedState> states;  ///< id = first-discovery order
  std::vector<std::uint64_t> earliest_time;
  std::vector<std::uint8_t> expanded;
  std::vector<std::vector<Edge>> edges;
  analysis::TimedReachStatus status = analysis::TimedReachStatus::kComplete;
};

namespace reference_timed_detail {

inline std::uint32_t integer_delay(const DelaySpec& spec) {
  if (spec.kind() != DelaySpec::Kind::kConstant || spec.constant_value() < 0 ||
      spec.constant_value() != std::floor(spec.constant_value())) {
    throw std::invalid_argument("reference_timed_reach: delays must be integer constants");
  }
  return static_cast<std::uint32_t>(spec.constant_value());
}

inline bool eligible(const Transition& tr, std::uint32_t t, const ReferenceTimedState& s) {
  for (const Arc& a : tr.inputs) {
    if (s.marking[a.place.value] < a.weight) return false;
  }
  for (const Arc& a : tr.inhibitors) {
    if (s.marking[a.place.value] >= a.weight) return false;
  }
  if (tr.policy == FiringPolicy::kSingleServer) {
    for (const auto& [ft, left] : s.in_flight) {
      if (ft == t) return false;
    }
  }
  return true;
}

}  // namespace reference_timed_detail

/// The timed graph of `net` up to `max_time` (see the header comment).
/// Throws std::length_error past `state_limit` states.
inline ReferenceTimedGraph reference_timed_reach(const Net& net, std::uint64_t max_time,
                                                 std::size_t state_limit = 200'000) {
  using reference_timed_detail::eligible;
  const std::size_t nt = net.num_transitions();
  std::vector<std::uint32_t> enabling(nt), firing(nt);
  for (std::size_t t = 0; t < nt; ++t) {
    const Transition& tr = net.transitions()[t];
    if (tr.is_interpreted()) {
      throw std::invalid_argument("reference_timed_reach: interpreted transitions");
    }
    enabling[t] = reference_timed_detail::integer_delay(tr.enabling_time);
    firing[t] = reference_timed_detail::integer_delay(tr.firing_time);
  }

  ReferenceTimedGraph g;
  std::map<ReferenceTimedState, std::uint32_t> ids;
  const auto id_of = [&](const ReferenceTimedState& s) {
    const auto [it, inserted] = ids.try_emplace(s, static_cast<std::uint32_t>(g.states.size()));
    if (inserted) {
      if (g.states.size() >= state_limit) {
        throw std::length_error("reference_timed_reach: state limit exceeded");
      }
      g.states.push_back(s);
      g.earliest_time.push_back(UINT64_MAX);
      g.expanded.push_back(0);
      g.edges.emplace_back();
    }
    return it->second;
  };

  // Successors of `s` per the rules in the header comment.
  const auto successors = [&](const ReferenceTimedState& s) {
    std::vector<std::pair<std::optional<std::uint32_t>, ReferenceTimedState>> out;
    for (std::uint32_t t = 0; t < nt; ++t) {
      const Transition& tr = net.transitions()[t];
      if (s.enabling_left[t] != 0 || !eligible(tr, t, s)) continue;
      ReferenceTimedState next = s;
      for (const Arc& a : tr.inputs) next.marking[a.place.value] -= a.weight;
      if (firing[t] == 0) {
        for (const Arc& a : tr.outputs) next.marking[a.place.value] += a.weight;
      } else {
        next.in_flight.emplace_back(t, firing[t]);
        std::sort(next.in_flight.begin(), next.in_flight.end());
      }
      for (std::uint32_t u = 0; u < nt; ++u) {
        const Transition& tu = net.transitions()[u];
        const bool keeps = u != t && eligible(tu, u, s) && eligible(tu, u, next);
        next.enabling_left[u] = keeps ? s.enabling_left[u] : enabling[u];
      }
      out.emplace_back(t, std::move(next));
    }
    if (!out.empty()) return out;  // maximal progress: no tick

    bool waiting = !s.in_flight.empty();
    for (std::uint32_t t = 0; t < nt && !waiting; ++t) {
      waiting = eligible(net.transitions()[t], t, s);
    }
    if (!waiting) return out;  // timed deadlock

    ReferenceTimedState next = s;
    next.in_flight.clear();
    for (const auto& [t, left] : s.in_flight) {
      if (left > 1) {
        next.in_flight.emplace_back(t, left - 1);
      } else {
        for (const Arc& a : net.transitions()[t].outputs) next.marking[a.place.value] += a.weight;
      }
    }
    for (std::uint32_t u = 0; u < nt; ++u) {
      const Transition& tu = net.transitions()[u];
      const bool keeps = eligible(tu, u, s) && eligible(tu, u, next);
      next.enabling_left[u] = keeps ? s.enabling_left[u] - 1 : enabling[u];
    }
    out.emplace_back(std::nullopt, std::move(next));
    return out;
  };

  ReferenceTimedState initial;
  for (const Place& p : net.places()) initial.marking.push_back(p.initial_tokens);
  initial.enabling_left = enabling;
  g.earliest_time[id_of(initial)] = 0;

  // Deque 0-1 BFS: a state is settled (and expanded, within the horizon)
  // the first time it leaves the deque; later pops of it are stale.
  std::deque<std::uint32_t> queue{0};
  std::vector<std::uint8_t> settled(1, 0);
  while (!queue.empty()) {
    const std::uint32_t s = queue.front();
    queue.pop_front();
    if (settled[s] != 0) continue;
    settled[s] = 1;
    if (g.earliest_time[s] > max_time) continue;
    g.expanded[s] = 1;
    const ReferenceTimedState state = g.states[s];  // copy: id_of grows the vector
    for (auto& [label, next] : successors(state)) {
      const std::uint64_t cost = label ? 0 : 1;
      const std::uint32_t target = id_of(next);
      settled.resize(g.states.size(), 0);
      g.edges[s].push_back({label, target});
      if (g.earliest_time[s] + cost < g.earliest_time[target]) {
        g.earliest_time[target] = g.earliest_time[s] + cost;
        if (cost == 0) {
          queue.push_front(target);
        } else {
          queue.push_back(target);
        }
      }
    }
  }
  for (const std::uint64_t t : g.earliest_time) {
    if (t > max_time) g.status = analysis::TimedReachStatus::kTruncated;
  }
  return g;
}

}  // namespace pnut::test_support
