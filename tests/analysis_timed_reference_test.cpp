// Differential pins for the timed reachability builder against the naive
// reference explorer (tests/support/reference_timed_reach.h: a std::map
// deque 0-1 BFS over the Net description). The comparison does not depend
// on discovery order: production state ids are mapped to their words
// (marking | enabling timers | in-flight counts, the layout documented in
// analysis/timed_reachability.h), and the two graphs must agree on the
// state set, each state's earliest time and expanded flag, each state's
// edge multiset, the deadlock set and the status. Graphs cut by
// `max_states` — whose content depends on discovery order — are checked as
// sound prefixes of the reference graph instead.
//
// Populations: the paper's golden models, a timed race ring (same-instant
// races, deep cost-0 closures, promotions), horizon cuts, and the fuzzed
// integer-delay skeletons of tests/support/net_fuzz.h — plain, lossy
// (deadlock-prone) and truncated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../bench/reach_models.h"
#include "analysis/timed_reachability.h"
#include "pipeline/model.h"
#include "support/net_fuzz.h"
#include "support/reference_timed_reach.h"

namespace pnut::analysis {
namespace {

using test_support::ReferenceTimedGraph;
using test_support::ReferenceTimedState;
using Words = std::vector<std::uint32_t>;

/// The reference state in the production word layout.
Words encode(const Net& net, const ReferenceTimedState& s) {
  Words w(s.marking.begin(), s.marking.end());
  w.insert(w.end(), s.enabling_left.begin(), s.enabling_left.end());
  std::vector<std::size_t> offset;
  for (const Transition& tr : net.transitions()) {
    offset.push_back(w.size());
    w.resize(w.size() + static_cast<std::size_t>(tr.firing_time.constant_value()), 0);
  }
  for (const auto& [t, left] : s.in_flight) ++w[offset[t] + left - 1];
  return w;
}

/// One edge as an order-free comparable value: (label or -1, target words).
using EdgeKey = std::pair<std::int64_t, Words>;

std::vector<EdgeKey> production_row(const TimedReachabilityGraph& g, std::size_t s) {
  std::vector<EdgeKey> row;
  for (const auto& e : g.edges(s)) {
    const auto words = g.state_words(e.target);
    row.emplace_back(e.transition ? static_cast<std::int64_t>(e.transition->value) : -1,
                     Words(words.begin(), words.end()));
  }
  std::sort(row.begin(), row.end());
  return row;
}

std::vector<EdgeKey> reference_row(const Net& net, const ReferenceTimedGraph& ref,
                                   std::size_t s) {
  std::vector<EdgeKey> row;
  for (const auto& e : ref.edges[s]) {
    row.emplace_back(e.transition ? static_cast<std::int64_t>(*e.transition) : -1,
                     encode(net, ref.states[e.target]));
  }
  std::sort(row.begin(), row.end());
  return row;
}

std::map<Words, std::size_t> reference_index(const Net& net, const ReferenceTimedGraph& ref) {
  std::map<Words, std::size_t> index;
  for (std::size_t s = 0; s < ref.states.size(); ++s) index[encode(net, ref.states[s])] = s;
  return index;
}

/// Exact, order-free comparison of a complete or horizon-cut graph.
void expect_matches_reference(const Net& net, const std::string& label,
                              TimedReachOptions options = {}) {
  SCOPED_TRACE(label);
  const TimedReachabilityGraph g(net, options);
  const ReferenceTimedGraph ref = test_support::reference_timed_reach(net, options.max_time);
  ASSERT_EQ(g.status(), ref.status);
  ASSERT_EQ(g.num_states(), ref.states.size());
  const auto index = reference_index(net, ref);

  std::vector<Words> deadlocks, ref_deadlocks;
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    const auto words = g.state_words(s);
    const auto it = index.find(Words(words.begin(), words.end()));
    ASSERT_NE(it, index.end()) << "state " << s << " is not in the reference graph";
    const std::size_t r = it->second;
    ASSERT_EQ(g.earliest_time(s), ref.earliest_time[r]) << "state " << s;
    ASSERT_EQ(g.state_expanded(s), ref.expanded[r] != 0) << "state " << s;
    ASSERT_EQ(production_row(g, s), reference_row(net, ref, r)) << "state " << s;
  }
  for (const std::size_t s : g.deadlock_states()) {
    const auto words = g.state_words(s);
    deadlocks.emplace_back(words.begin(), words.end());
  }
  for (std::size_t r = 0; r < ref.states.size(); ++r) {
    if (ref.expanded[r] != 0 && ref.edges[r].empty()) {
      ref_deadlocks.push_back(encode(net, ref.states[r]));
    }
  }
  std::sort(deadlocks.begin(), deadlocks.end());
  std::sort(ref_deadlocks.begin(), ref_deadlocks.end());
  EXPECT_EQ(deadlocks, ref_deadlocks);
}

/// A max_states-cut graph: every state is a reference state reached no
/// earlier than the reference says, every fully expanded state has the
/// reference's edge multiset, and the stopping state's partial row is a
/// sub-multiset of it.
void expect_sound_prefix(const Net& net, const std::string& label,
                         const TimedReachOptions& options) {
  SCOPED_TRACE(label);
  const TimedReachabilityGraph g(net, options);
  const ReferenceTimedGraph ref = test_support::reference_timed_reach(net, options.max_time);
  if (ref.states.size() <= options.max_states) {
    // The cap never bites: the graph must be exactly the reference.
    expect_matches_reference(net, label + " (cap not reached)", options);
    return;
  }
  ASSERT_EQ(g.status(), TimedReachStatus::kTruncated);
  ASSERT_EQ(g.num_states(), options.max_states + 1);
  const auto index = reference_index(net, ref);
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    const auto words = g.state_words(s);
    const auto it = index.find(Words(words.begin(), words.end()));
    ASSERT_NE(it, index.end()) << "state " << s << " is not in the reference graph";
    const std::size_t r = it->second;
    EXPECT_GE(g.earliest_time(s), ref.earliest_time[r]) << "state " << s;
    const auto row = production_row(g, s);
    const auto want = reference_row(net, ref, r);
    if (g.state_expanded(s)) {
      EXPECT_EQ(row, want) << "state " << s;
    } else {
      EXPECT_TRUE(std::includes(want.begin(), want.end(), row.begin(), row.end()))
          << "state " << s;
    }
  }
}

TimedReachOptions horizon(std::uint64_t max_time) {
  TimedReachOptions options;
  options.max_time = max_time;
  return options;
}

// --- golden models -----------------------------------------------------------

TEST(TimedReferenceEquivalence, Figure1Prefetch) {
  expect_matches_reference(pipeline::build_prefetch_model(), "fig1");
}

TEST(TimedReferenceEquivalence, FullPipelineModel) {
  expect_matches_reference(pipeline::build_full_model(), "full");
}

TEST(TimedReferenceEquivalence, TimedRaceRing) {
  // Every instant branches on same-delay races and the firing closures run
  // several states deep — promotions included (756 states).
  expect_matches_reference(reach_models::timed_race_ring(8, 4), "race ring 8x4");
}

TEST(TimedReferenceEquivalence, HorizonCuts) {
  const Net net = reach_models::timed_race_ring(8, 4);
  for (const std::uint64_t max_time : {0u, 2u, 7u}) {
    expect_matches_reference(net, "horizon=" + std::to_string(max_time), horizon(max_time));
  }
}

TEST(TimedReferenceEquivalence, StateCapPrefixes) {
  const Net net = reach_models::timed_race_ring(8, 4);
  for (const std::size_t cap : {4u, 29u, 153u}) {
    TimedReachOptions options;
    options.max_states = cap;
    expect_sound_prefix(net, "cap=" + std::to_string(cap), options);
  }
}

// --- randomized integer-delay skeletons --------------------------------------

TEST(TimedReferenceEquivalence, FuzzedTimedSkeletons) {
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  for (std::uint64_t seed = 1; seed <= 35; ++seed) {
    expect_matches_reference(test_support::fuzz_net(seed, fuzz),
                             "timed fuzz seed=" + std::to_string(seed), horizon(300));
  }
}

TEST(TimedReferenceEquivalence, FuzzedPromotingSkeletons) {
  // The two-bucket scheduler's promotion rule — a cost-0 path reaching a
  // state already staged for the next instant pulls it into the current
  // one with its earliest time lowered — is rare: none of the populations
  // above triggers it. In these seeds it fires 1-4 times each (found by
  // counting promotions over seeds 1-3000), so a broken promotion shows
  // here as a wrong earliest time or expansion order.
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  for (const std::uint64_t seed : {125u, 164u, 920u, 932u, 1053u, 1353u, 1473u, 2400u}) {
    expect_matches_reference(test_support::fuzz_net(seed, fuzz),
                             "promoting timed fuzz seed=" + std::to_string(seed), horizon(300));
  }
}

TEST(TimedReferenceEquivalence, FuzzedLossySkeletons) {
  // Lossy nets drift toward timed deadlocks: the deadlock sets and the
  // tick-until-stuck tails are compared too.
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  fuzz.lossy_pct = 60;
  for (std::uint64_t seed = 101; seed <= 110; ++seed) {
    expect_matches_reference(test_support::fuzz_net(seed, fuzz),
                             "lossy timed fuzz seed=" + std::to_string(seed), horizon(300));
  }
}

TEST(TimedReferenceEquivalence, FuzzedTruncatedSkeletons) {
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  for (std::uint64_t seed = 201; seed <= 210; ++seed) {
    TimedReachOptions options;
    options.max_states = 5 + seed % 23;
    expect_sound_prefix(test_support::fuzz_net(seed, fuzz),
                        "capped timed fuzz seed=" + std::to_string(seed), options);
  }
  for (std::uint64_t seed = 301; seed <= 305; ++seed) {
    expect_matches_reference(test_support::fuzz_net(seed, fuzz),
                             "horizon timed fuzz seed=" + std::to_string(seed),
                             horizon(seed % 5));
  }
}

}  // namespace
}  // namespace pnut::analysis
