// Naive reference explorer for the untimed reachability graph.
//
// The production builders (analysis/reachability.cpp and
// analysis/parallel_exploration.cpp) run on CompiledNet CSR arrays, intern
// word-encoded states in a StateStore, and evaluate hooks as bytecode over
// slot frames. This oracle shares none of that: it walks the `Net`
// description directly, keeps each state as a (marking, DataContext) pair
// in a std::map, and calls the hooks through the Net's std::functions, so
// expression hooks run on the AST evaluator. It is slow and obviously
// correct, which is the point: differential tests pin the production
// graph against it state for state and edge for edge.
//
// The one thing it must share with production is the graph definition:
//   * state ids are BFS discovery order: parents ascending, then
//     transitions ascending, then a transition's distinct action outcomes
//     in first-seen sample order;
//   * a transition is enabled when its input weights are covered, its
//     inhibitor places are below their thresholds, and then (only then) its
//     predicate holds;
//   * a firing whose successor marking puts any place above `place_bound`
//     stops exploration as kUnbounded, with no edge for that firing;
//   * discovering a state beyond `max_states` stops exploration as
//     kTruncated, after the edge to (and the id of) that state;
//   * an action is sampled max(irand_fanout_limit, 1) times, each sample
//     seeded with the formula in `sample_seed` below.
// `respect_capacities` and the stop token are not modelled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/reachability.h"
#include "petri/data_context.h"
#include "petri/net.h"
#include "petri/rng.h"

namespace pnut::test_support {

struct ReferenceGraph {
  struct Edge {
    std::uint32_t transition;
    std::uint32_t target;
  };
  std::vector<std::vector<TokenCount>> markings;  ///< per state
  std::vector<DataContext> data;                  ///< per state
  std::vector<std::vector<Edge>> edges;           ///< per state, in order
  analysis::ReachStatus status = analysis::ReachStatus::kComplete;
  std::size_t num_expanded = 0;

  [[nodiscard]] std::size_t num_states() const { return markings.size(); }
  [[nodiscard]] std::size_t num_edges() const {
    std::size_t n = 0;
    for (const auto& row : edges) n += row.size();
    return n;
  }
  /// Expanded states with no outgoing edge.
  [[nodiscard]] std::vector<std::size_t> deadlock_states() const {
    std::vector<std::size_t> out;
    for (std::size_t s = 0; s < num_expanded; ++s) {
      if (edges[s].empty()) out.push_back(s);
    }
    return out;
  }
};

namespace reference_detail {

/// Must match analysis::detail::action_sample_seed (analysis/exploration.h)
/// bit for bit: the sampled outcomes of an irand action are part of the
/// graph definition. Copied, not called, so the oracle stays independent.
inline std::uint64_t sample_seed(std::uint32_t state, std::uint32_t transition,
                                 std::size_t sample) {
  return 0x9e3779b97f4a7c15ULL ^ (state * 0x100000001b3ULL) ^
         (static_cast<std::uint64_t>(transition) << 32) ^ sample;
}

/// Injective serialization of a DataContext: length-prefixed names and
/// fixed-width values, scalars then tables.
inline std::string serialize(const DataContext& d) {
  std::string key;
  const auto put = [&key](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) key.push_back(static_cast<char>(v >> (8 * i)));
  };
  put(d.scalars().size());
  for (const auto& [name, value] : d.scalars()) {
    put(name.size());
    key += name;
    put(static_cast<std::uint64_t>(value));
  }
  put(d.tables().size());
  for (const auto& [name, values] : d.tables()) {
    put(name.size());
    key += name;
    put(values.size());
    for (const std::int64_t v : values) put(static_cast<std::uint64_t>(v));
  }
  return key;
}

inline bool enabled_by_tokens(const Transition& t, const std::vector<TokenCount>& m) {
  for (const Arc& a : t.inputs) {
    if (m[a.place.value] < a.weight) return false;
  }
  for (const Arc& a : t.inhibitors) {
    if (m[a.place.value] >= a.weight) return false;
  }
  return true;
}

}  // namespace reference_detail

/// Breadth-first exploration of `net` under `options` (see the header
/// comment for what is and is not modelled).
inline ReferenceGraph reference_reach(const Net& net,
                                      const analysis::ReachOptions& options = {}) {
  using reference_detail::serialize;
  if (options.respect_capacities) {
    throw std::invalid_argument("reference_reach: respect_capacities is not modelled");
  }
  ReferenceGraph g;
  std::map<std::pair<std::vector<TokenCount>, std::string>, std::uint32_t> ids;

  // Returns false when the new state pushes the graph past max_states.
  const auto visit = [&](std::size_t parent, std::uint32_t transition,
                         const std::vector<TokenCount>& marking, const DataContext& data) {
    const auto [it, inserted] = ids.try_emplace(
        {marking, serialize(data)}, static_cast<std::uint32_t>(g.markings.size()));
    if (inserted) {
      g.markings.push_back(marking);
      g.data.push_back(data);
      g.edges.emplace_back();
    }
    g.edges[parent].push_back({transition, it->second});
    return !(inserted && g.markings.size() > options.max_states);
  };

  std::vector<TokenCount> initial;
  for (const Place& p : net.places()) initial.push_back(p.initial_tokens);
  ids[{initial, serialize(net.initial_data())}] = 0;
  g.markings.push_back(initial);
  g.data.push_back(net.initial_data());
  g.edges.emplace_back();

  for (std::size_t s = 0; s < g.markings.size(); ++s) {
    // Copies: visit() grows the vectors.
    const std::vector<TokenCount> marking = g.markings[s];
    const DataContext data = g.data[s];
    for (std::uint32_t ti = 0; ti < net.num_transitions(); ++ti) {
      const Transition& t = net.transitions()[ti];
      if (!reference_detail::enabled_by_tokens(t, marking)) continue;
      if (t.predicate && !t.predicate(data)) continue;

      std::vector<TokenCount> next = marking;
      for (const Arc& a : t.inputs) next[a.place.value] -= a.weight;
      for (const Arc& a : t.outputs) next[a.place.value] += a.weight;
      if (std::any_of(next.begin(), next.end(),
                      [&](TokenCount c) { return c > options.place_bound; })) {
        g.status = analysis::ReachStatus::kUnbounded;
        g.num_expanded = s;
        return g;
      }

      std::vector<DataContext> outcomes;
      std::vector<std::string> seen;
      if (!t.action) {
        outcomes.push_back(data);
      } else {
        const std::size_t samples = std::max<std::size_t>(options.irand_fanout_limit, 1);
        for (std::size_t k = 0; k < samples; ++k) {
          DataContext candidate = data;
          Rng rng(reference_detail::sample_seed(static_cast<std::uint32_t>(s), ti, k));
          t.action(candidate, rng);
          std::string key = serialize(candidate);
          if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
          seen.push_back(std::move(key));
          outcomes.push_back(std::move(candidate));
        }
      }
      for (const DataContext& outcome : outcomes) {
        if (!visit(s, ti, next, outcome)) {
          g.status = analysis::ReachStatus::kTruncated;
          g.num_expanded = s;
          return g;
        }
      }
    }
  }
  g.num_expanded = g.markings.size();
  return g;
}

}  // namespace pnut::test_support
