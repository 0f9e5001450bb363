// Golden-trace equivalence for the CompiledNet simulator core.
//
// Two guarantees are pinned here:
//
//  1. The incremental (dirty-set, inverse-adjacency-driven) eligibility
//     update produces traces bit-for-bit identical to the reference
//     whole-net rescan (SimOptions::incremental_eligibility = false, the
//     exact pre-CompiledNet algorithm) — on the paper's Figure 1 and
//     Figure 4 models, on stochastic nets exercising every delay kind, and
//     on randomized nets.
//
//  2. Golden anchors: trace fingerprints (event count, firing starts, an
//     FNV-1a hash over the full event stream, and the final marking)
//     captured from the pre-refactor simulator on the paper's models.
//     (net, seed, horizon) must keep reproducing those exact traces. The
//     shipped examples/models/*.pn anchors (captured before the event loop
//     went allocation-free) pin the param/fn computed-delay path that the
//     C++-built models do not exercise.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "petri/compiled_net.h"
#include "pipeline/interpreted.h"
#include "pipeline/model.h"
#include "sim/simulator.h"
#include "textio/pn_format.h"
#include "trace/trace.h"

namespace pnut {
namespace {

RecordedTrace run_trace(const Net& net, std::uint64_t seed, Time horizon,
                        bool incremental) {
  SimOptions options;
  options.incremental_eligibility = incremental;
  RecordedTrace trace;
  Simulator sim(net, options);
  sim.set_sink(&trace);
  sim.reset(seed);
  sim.run_until(horizon);
  sim.finish();
  return trace;
}

void expect_modes_agree(const Net& net, std::uint64_t seed, Time horizon) {
  const RecordedTrace incremental = run_trace(net, seed, horizon, true);
  const RecordedTrace full_rescan = run_trace(net, seed, horizon, false);
  ASSERT_EQ(incremental.events().size(), full_rescan.events().size());
  EXPECT_EQ(incremental, full_rescan);
}

/// FNV-1a over the event stream; mirrors the fingerprint tool that captured
/// the golden values from the pre-refactor simulator.
std::uint64_t trace_hash(const RecordedTrace& trace) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const TraceEvent& ev : trace.events()) {
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(static_cast<std::uint64_t>(ev.time * 1024));
    mix(ev.transition.value);
    mix(ev.firing_id);
    for (const auto& d : ev.consumed) {
      mix(d.place.value);
      mix(d.count);
    }
    for (const auto& d : ev.produced) {
      mix(d.place.value);
      mix(d.count);
    }
    for (const auto& u : ev.scalar_updates) {
      mix(std::hash<std::string>{}(u.name));
      mix(static_cast<std::uint64_t>(u.value));
    }
    for (const auto& u : ev.table_updates) {
      mix(std::hash<std::string>{}(u.name));
      mix(static_cast<std::uint64_t>(u.index));
      mix(static_cast<std::uint64_t>(u.value));
    }
  }
  return h;
}

struct Golden {
  std::uint64_t seed;
  Time horizon;
  std::size_t events;
  std::uint64_t starts;
  std::uint64_t hash;
  const char* final_marking;
};

void expect_golden(const Net& net, const Golden& golden) {
  RecordedTrace trace;
  Simulator sim(net);
  sim.set_sink(&trace);
  sim.reset(golden.seed);
  sim.run_until(golden.horizon);
  sim.finish();
  EXPECT_EQ(trace.events().size(), golden.events);
  EXPECT_EQ(sim.total_firing_starts(), golden.starts);
  EXPECT_EQ(trace_hash(trace), golden.hash);
  EXPECT_EQ(sim.marking().to_string(net), golden.final_marking);
}

// --- golden anchors (captured from the pre-refactor simulator) --------------

TEST(SimCompiledEquivalence, GoldenFigure1Prefetch) {
  expect_golden(pipeline::build_prefetch_model(),
                {42, 5000, 7996, 5998, 0xba28f7a093518ef4ULL,
                 "Bus_busy=1 Empty_I_buffers=2 Full_I_buffers=1 pre_fetching=1"});
}

TEST(SimCompiledEquivalence, GoldenFullPipelineModel) {
  expect_golden(pipeline::build_full_model(),
                {7, 2000, 2392, 1837, 0x6c7860d2c78cafc8ULL,
                 "Bus_free=1 Full_I_buffers=6 ready_to_issue_instruction=1"});
}

TEST(SimCompiledEquivalence, GoldenFigure4OperandFetch) {
  expect_golden(pipeline::build_interpreted_operand_fetch(),
                {1234, 3000, 2539, 2024, 0x0886b66f8f7da114ULL, "Bus_busy=1 fetching=1"});
}

TEST(SimCompiledEquivalence, GoldenFigure4InterpretedPipeline) {
  expect_golden(pipeline::build_interpreted_pipeline(),
                {99, 2000, 2533, 1992, 0xdac6e78af91969d0ULL,
                 "Bus_busy=1 Operand_fetch_pending=1 Empty_I_buffers=1 "
                 "Full_I_buffers=3 pre_fetching=1"});
}

// --- golden anchors on the shipped .pn models --------------------------------

Net load_shipped_model(const std::string& file) {
  std::ifstream in(std::string(PNUT_MODELS_DIR) + "/" + file);
  std::stringstream text;
  text << in.rdbuf();
  return textio::parse_net(text.str()).net;
}

TEST(SimCompiledEquivalence, GoldenShippedPipelineNocache) {
  const Net net = load_shipped_model("pipeline_nocache.pn");
  expect_golden(net, {1, 2000, 2094, 1611, 0xb4c227f0853618a4ULL,
                      "Bus_busy=1 Empty_I_buffers=1 Full_I_buffers=5 "
                      "ready_to_issue_instruction=1 storing=1"});
  // The scripted port of build_full_model reproduces its golden trace.
  expect_golden(net, {7, 2000, 2392, 1837, 0x6c7860d2c78cafc8ULL,
                      "Bus_free=1 Full_I_buffers=6 ready_to_issue_instruction=1"});
}

TEST(SimCompiledEquivalence, GoldenShippedIcache) {
  const Net net = load_shipped_model("ext_cache_icache.pn");
  expect_golden(net, {1, 2000, 2537, 1948, 0xeeeec4b50563ce2dULL,
                      "Bus_busy=1 Result_store_pending=1 Empty_I_buffers=1 "
                      "Full_I_buffers=3 pre_fetching=1 Start_prefetch_miss_route=1 "
                      "ready_to_issue_instruction=1"});
  expect_golden(net, {7, 2000, 2539, 1951, 0x93f30e43b679850cULL,
                      "Bus_busy=1 Full_I_buffers=3 pre_fetching=1 "
                      "Start_prefetch_hit_route=1"});
}

TEST(SimCompiledEquivalence, GoldenShippedDcache) {
  const Net net = load_shipped_model("ext_cache_dcache.pn");
  expect_golden(net, {1, 2000, 2506, 1928, 0xf84f18f48ada3c38ULL,
                      "Bus_busy=1 Empty_I_buffers=1 Full_I_buffers=5 Type3_pending=1 "
                      "fetching=1 Operands_fetched=1 start_fetch_miss_route=1 "
                      "Execution_unit=1"});
  expect_golden(net, {7, 2000, 2634, 2022, 0xde16e28f777d898eULL,
                      "Bus_busy=1 Empty_I_buffers=1 Full_I_buffers=5 Type2_pending=1 "
                      "fetching=1 start_fetch_miss_route=1 Execution_unit=1"});
}

TEST(SimCompiledEquivalence, GoldenShippedUnified) {
  const Net net = load_shipped_model("ext_cache_unified.pn");
  expect_golden(net, {1, 2000, 2987, 2294, 0x5215cf03d42cd07dULL,
                      "Bus_free=1 Empty_I_buffers=1 Full_I_buffers=5 "
                      "ready_to_issue_instruction=1"});
  expect_golden(net, {7, 2000, 3095, 2377, 0x9da606b63b4f0e31ULL,
                      "Bus_busy=1 Operand_fetch_pending=1 Full_I_buffers=4 pre_fetching=1 "
                      "Start_prefetch_miss_route=1 Type2_pending=1 Execution_unit=1"});
}

// --- incremental vs whole-net rescan ----------------------------------------

TEST(SimCompiledEquivalence, ModesAgreeOnFigure1Prefetch) {
  const Net net = pipeline::build_prefetch_model();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) expect_modes_agree(net, seed, 3000);
}

TEST(SimCompiledEquivalence, ModesAgreeOnFullModel) {
  const Net net = pipeline::build_full_model();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) expect_modes_agree(net, seed, 2000);
}

TEST(SimCompiledEquivalence, ModesAgreeOnFigure4Models) {
  const Net fetch = pipeline::build_interpreted_operand_fetch();
  const Net full = pipeline::build_interpreted_pipeline();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    expect_modes_agree(fetch, seed, 2000);
    expect_modes_agree(full, seed, 1500);
  }
}

TEST(SimCompiledEquivalence, ModesAgreeWithStochasticEnablingDelays) {
  // Non-constant enabling delays consume RNG draws when transitions become
  // eligible — the hardest case for keeping draw order identical between
  // the dirty-set and whole-net refresh.
  Net net("stochastic_enabling");
  const PlaceId p = net.add_place("P", 3);
  const PlaceId q = net.add_place("Q");
  const PlaceId r = net.add_place("R", 1);
  const TransitionId a = net.add_transition("a");
  net.add_input(a, p);
  net.add_output(a, q);
  net.set_enabling_time(a, DelaySpec::uniform_int(1, 4));
  net.set_firing_time(a, DelaySpec::uniform_int(1, 3));
  const TransitionId b = net.add_transition("b");
  net.add_input(b, p);
  net.add_output(b, q);
  net.set_enabling_time(b, DelaySpec::discrete({{1, 0.5}, {3, 0.5}}));
  net.set_frequency(b, 2.5);
  const TransitionId c = net.add_transition("c");
  net.add_input(c, q);
  net.add_output(c, p);
  net.set_enabling_time(c, DelaySpec::uniform_int(0, 2));
  net.set_policy(c, FiringPolicy::kInfiniteServer);
  const TransitionId watcher = net.add_transition("watcher");
  net.add_input(watcher, r);
  net.add_output(watcher, r);
  net.add_inhibitor(watcher, q, 2);
  net.set_firing_time(watcher, DelaySpec::constant(2));
  for (std::uint64_t seed = 1; seed <= 10; ++seed) expect_modes_agree(net, seed, 500);
}

TEST(SimCompiledEquivalence, ModesAgreeWithPredicatesAndActions) {
  // An action flips a variable; a predicated transition elsewhere in the
  // net (sharing no places) must still be re-evaluated after the action.
  Net net("predicated");
  net.initial_data().set("gate", 0);
  const PlaceId p = net.add_place("P", 1);
  const PlaceId q = net.add_place("Q", 1);
  const TransitionId toggler = net.add_transition("toggler");
  net.add_input(toggler, p);
  net.add_output(toggler, p);
  net.set_firing_time(toggler, DelaySpec::constant(3));
  net.set_action(toggler, [](DataContext& d, Rng& rng) {
    d.set("gate", rng.next_int(0, 1));
  });
  const TransitionId gated = net.add_transition("gated");
  net.add_input(gated, q);
  net.add_output(gated, q);
  net.set_firing_time(gated, DelaySpec::constant(2));
  net.set_predicate(gated, [](const DataContext& d) { return d.get("gate") == 1; });
  for (std::uint64_t seed = 1; seed <= 10; ++seed) expect_modes_agree(net, seed, 400);
}

TEST(SimCompiledEquivalence, SharedCompiledNetReproducesIndependentRuns) {
  // Many simulators off one immutable CompiledNet: each must behave exactly
  // as a simulator that compiled the net privately.
  const Net net = pipeline::build_full_model();
  const auto shared = CompiledNet::compile(net);

  for (std::uint64_t seed = 3; seed <= 5; ++seed) {
    RecordedTrace from_shared;
    Simulator shared_sim(shared);
    shared_sim.set_sink(&from_shared);
    shared_sim.reset(seed);
    shared_sim.run_until(1500);
    shared_sim.finish();

    const RecordedTrace from_private = run_trace(net, seed, 1500, true);
    EXPECT_EQ(from_shared, from_private);
  }
}

TEST(SimCompiledEquivalence, CompiledNetOutlivesSourceNet) {
  // The simulator owns the compiled snapshot; the Net may be destroyed.
  std::shared_ptr<const CompiledNet> compiled;
  {
    const Net net = pipeline::build_prefetch_model();
    compiled = CompiledNet::compile(net);
  }
  Simulator sim(compiled);
  sim.reset(11);
  sim.run_until(1000);
  EXPECT_GT(sim.total_firing_starts(), 0u);
}

}  // namespace
}  // namespace pnut
