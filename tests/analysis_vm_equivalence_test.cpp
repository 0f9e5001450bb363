// Differential pins for the untimed reachability builder: the graph
// ReachabilityGraph builds (CompiledNet arrays, StateStore interning, hooks
// run as bytecode, per-state data as encoded slot words) must be
// *identical* to the naive reference explorer's
// (tests/support/reference_reach.h: a std::map BFS over the Net description
// with hooks run on the AST evaluator) — same state numbering, markings,
// per-state variables, edge order, deadlocks, status and expanded prefix —
// on the paper's interpreted models, a scripted .pn model, and randomized
// plain, inhibitor-heavy and expression-backed nets, including truncated
// prefixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/reachability.h"
#include "expr/compile.h"
#include "pipeline/interpreted.h"
#include "support/net_fuzz.h"
#include "support/reference_reach.h"
#include "textio/pn_format.h"

namespace pnut::analysis {
namespace {

using test_support::fuzz_net;
using test_support::FuzzOptions;
using test_support::reference_reach;
using test_support::ReferenceGraph;

/// Full observable-graph comparison against the reference. Every scalar
/// the reference ever holds is checked on every state: present with the
/// same value, or absent on both sides.
void expect_matches_reference(const ReachabilityGraph& g, const ReferenceGraph& ref,
                              const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(g.status(), ref.status);
  ASSERT_EQ(g.num_states(), ref.num_states());
  ASSERT_EQ(g.num_edges(), ref.num_edges());
  EXPECT_EQ(g.num_expanded(), ref.num_expanded);
  EXPECT_EQ(g.deadlock_states(), ref.deadlock_states());

  std::set<std::string> scalars;
  for (const DataContext& d : ref.data) {
    for (const auto& [name, value] : d.scalars()) scalars.insert(name);
  }
  for (std::size_t s = 0; s < ref.num_states(); ++s) {
    const auto tokens = g.tokens(s);
    ASSERT_TRUE(std::equal(tokens.begin(), tokens.end(), ref.markings[s].begin(),
                           ref.markings[s].end()))
        << "state " << s << " marking";
    const auto edges = g.edges(s);
    ASSERT_EQ(edges.size(), ref.edges[s].size()) << "state " << s;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      ASSERT_EQ(edges[e].transition.value, ref.edges[s][e].transition)
          << "state " << s << " edge " << e;
      ASSERT_EQ(edges[e].target, ref.edges[s][e].target) << "state " << s << " edge " << e;
    }
    for (const std::string& name : scalars) {
      const DataContext& d = ref.data[s];
      const std::optional<std::int64_t> expected =
          d.has(name) ? std::optional<std::int64_t>(d.get(name)) : std::nullopt;
      ASSERT_EQ(g.variable(s, name), expected) << "state " << s << " variable " << name;
    }
  }
}

/// Build the graph and compare it to the reference, which is returned for
/// case-specific checks.
ReferenceGraph expect_engines_match_reference(const Net& net, const std::string& label,
                                              const ReachOptions& options = {}) {
  ReferenceGraph ref = reference_reach(net, options);
  const ReachabilityGraph g(net, options);
  expect_matches_reference(g, ref, label);
  return ref;
}

ReachOptions capped(std::size_t max_states) {
  ReachOptions options;
  options.max_states = max_states;
  return options;
}

TEST(ReferenceGraphEquivalence, GoldenInterpretedModels) {
  for (const Net& net : {pipeline::build_interpreted_operand_fetch(),
                         pipeline::build_interpreted_pipeline()}) {
    expect_engines_match_reference(net, net.name(), capped(1'000'000));
  }
}

TEST(ReferenceGraphEquivalence, GoldenTruncatedPrefixes) {
  const Net net = pipeline::build_interpreted_pipeline();
  for (const std::size_t max_states : {100u, 1000u}) {
    const ReferenceGraph ref = expect_engines_match_reference(
        net, "truncated@" + std::to_string(max_states), capped(max_states));
    EXPECT_EQ(ref.status, ReachStatus::kTruncated);
  }
}

// A .pn-sourced model exercising the scripting layer end to end inside the
// exploration engines: document functions (one with a for loop), a tunable
// param, a document array written by actions, and loops in an action.
constexpr const char* kScriptedModel = R"pn(
net scripted_gadget
fn "wrap(v) { return v % 4; }"
fn "accumulate(seed) { let acc = seed; for k = 0 to 3 { acc = acc + scratch[k]; } return wrap(acc); }"
param step 2
var total 0
array scratch 4
place idle init 1 capacity 1
place busy capacity 1
trans begin in idle out busy when "total < 6"
      do "scratch[wrap(total)] = wrap(total + step); total = total + 1"
trans finish in busy out idle do "total = total + accumulate(total)"
trans skip in idle out idle when "total < 6" do "total = total + step"
trans reset in idle out idle when "total >= 6"
      do "total = 0; for k = 0 to 3 { scratch[k] = 0; }"
)pn";

TEST(ReferenceGraphEquivalence, ScriptedPnModel) {
  const ReferenceGraph ref =
      expect_engines_match_reference(textio::parse_net(kScriptedModel).net, "scripted-pn");
  EXPECT_EQ(ref.status, ReachStatus::kComplete);
  EXPECT_GE(ref.num_states(), 10u);
}

TEST(ReferenceGraphEquivalence, FuzzedExpressionNets) {
  FuzzOptions options;
  options.interpreted_expr = true;
  for (std::uint64_t seed = 1; seed <= 45; ++seed) {
    expect_engines_match_reference(fuzz_net(seed, options), "seed " + std::to_string(seed));
  }
}

TEST(ReferenceGraphEquivalence, FuzzedTruncatedPrefixes) {
  FuzzOptions options;
  options.interpreted_expr = true;
  for (std::uint64_t seed = 50; seed <= 65; ++seed) {
    expect_engines_match_reference(fuzz_net(seed, options),
                                   "truncated seed " + std::to_string(seed), capped(40));
  }
}

TEST(ReferenceGraphEquivalence, FuzzedPlainNets) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    expect_engines_match_reference(fuzz_net(seed), "plain seed " + std::to_string(seed));
  }
}

TEST(ReferenceGraphEquivalence, FuzzedInhibitorHeavyNets) {
  FuzzOptions options;
  options.inhibitor_pct = 80;
  options.max_initial_total = 10;
  for (std::uint64_t seed = 101; seed <= 115; ++seed) {
    expect_engines_match_reference(fuzz_net(seed, options),
                                   "inhibitor seed " + std::to_string(seed));
  }
}

TEST(ReferenceGraphEquivalence, FuzzedTruncatedPlainNets) {
  // Tiny caps over random nets: the max_states stop rule keeps exactly the
  // discovery-order prefix, the edge that hit the cap included. (Some of
  // these nets are smaller than their cap and complete.)
  int truncated = 0;
  for (std::uint64_t seed = 301; seed <= 310; ++seed) {
    const ReferenceGraph ref = expect_engines_match_reference(
        fuzz_net(seed), "truncated plain seed " + std::to_string(seed), capped(10 + seed % 17));
    truncated += ref.status == ReachStatus::kTruncated ? 1 : 0;
  }
  EXPECT_GE(truncated, 5);
}

TEST(ReferenceGraphEquivalence, UnboundedStopPoint) {
  // An expression counter rides a token pump: the place-bound stop lands
  // on the same firing in the reference and in the builder.
  Net net("pump");
  net.initial_data().set("n", 0);
  const PlaceId p = net.add_place("p", 1);
  const PlaceId q = net.add_place("q");
  const TransitionId t = net.add_transition("t");
  net.add_input(t, p);
  net.add_output(t, p);
  net.add_output(t, q, 2);
  net.set_action(t, expr::compile_action("n = (n + 1) % 3"));
  ReachOptions options;
  options.place_bound = 20;
  EXPECT_EQ(expect_engines_match_reference(net, "pump", options).status,
            ReachStatus::kUnbounded);
}

TEST(ReferenceGraphEquivalence, BytesPerStateStayArenaSized) {
  // Per-state data is arena words, not a DataContext snapshot: the paper's
  // flagship interpreted model stays under a third of the 1688 bytes/state
  // the DataContext-snapshot engine recorded on it (BENCH_reach.json).
  const ReachabilityGraph g(pipeline::build_interpreted_pipeline(), capped(1'000'000));
  ASSERT_EQ(g.status(), ReachStatus::kComplete);
  EXPECT_LT(g.memory_bytes() * 3, 1688 * g.num_states());
}

}  // namespace
}  // namespace pnut::analysis
