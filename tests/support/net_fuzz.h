// Seeded random Net generator for differential testing.
//
// The generated nets are *bounded by construction*: every transition
// consumes at least as many tokens as it produces (sum of output weights <=
// sum of input weights), so the total token count never grows and every
// place is bounded by the initial total. That keeps the reachability graphs
// of fuzzed nets finite and small enough that a differential test can build
// each one several times (sequential vs parallel, incremental vs rescan)
// over dozens of seeds.
//
// What varies per seed: place/transition counts, arc multiplicities (1-2),
// fan-in/fan-out shapes, inhibitor arcs and thresholds, the initial
// marking, and — behind FuzzOptions toggles — data features (predicates,
// deterministic counter actions, irand actions, actions that create a
// variable at runtime) and timing
// features (every DelaySpec kind, frequencies, firing policies). Timed
// nets always get firing times >= 1, so a fuzzed simulation can never
// livelock in a same-instant immediate cascade. `timed_integer` instead
// draws integer-constant delay skeletons — the subset the timed
// reachability analyzer accepts — for its differential harness.
//
// Everything is derived from one std::mt19937_64 seeded by the caller:
// same seed, same net, forever — the differential tests log only the seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "expr/compile.h"
#include "petri/net.h"

namespace pnut::test_support {

struct FuzzOptions {
  std::size_t min_places = 3;
  std::size_t max_places = 8;
  std::size_t min_transitions = 3;
  std::size_t max_transitions = 10;
  /// Upper bound on the initial token total (and therefore on every place,
  /// in every reachable marking).
  TokenCount max_initial_total = 8;
  /// Chance (percent) that a transition gets an inhibitor arc.
  int inhibitor_pct = 30;
  /// Chance (percent) that a transition is lossy (consumes more than it
  /// produces). Lossy nets drift toward deadlock — good for diffing
  /// deadlock sets, bad for long simulations; set 0 for token-preserving
  /// nets that stay live for the whole horizon.
  int lossy_pct = 15;
  /// Add data features as opaque C++ lambdas: a small modular counter
  /// variable, predicates over it, deterministic and irand actions, and
  /// (rarely) an action that creates a new variable at runtime. Only the
  /// simulators' AST path runs these; reachability rejects opaque hooks.
  bool interpreted = false;
  /// Like `interpreted`, but every predicate/action is attached from
  /// expression-language source via expr::compile_* (plus a modular table
  /// some hooks read and write) — the nets the bytecode VM can compile, for
  /// the exploration harnesses and the AST-vs-VM simulator harness.
  /// Mutually exclusive with `interpreted`.
  bool interpreted_expr = false;
  /// Add timing features: non-zero firing times of every DelaySpec kind,
  /// enabling times, frequencies and firing policies. For simulator fuzz;
  /// untimed reachability ignores them.
  bool timed = false;
  /// Add an integer-constant timing skeleton instead: every transition gets
  /// constant integer enabling (0-2) and firing (0-3) delays plus an
  /// occasional infinite-server policy — exactly the feature set
  /// TimedReachabilityGraph accepts, for the timed differential harness.
  /// Mutually exclusive with `timed` (which draws stochastic DelaySpecs the
  /// timed analyzer rejects).
  bool timed_integer = false;
};

inline Net fuzz_net(std::uint64_t seed, const FuzzOptions& options = {}) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(rng() % (hi - lo + 1));
  };
  auto chance = [&rng](int pct) { return static_cast<int>(rng() % 100) < pct; };

  Net net("fuzz_" + std::to_string(seed));

  const std::size_t num_places = pick(options.min_places, options.max_places);
  std::vector<PlaceId> places;
  places.reserve(num_places);
  for (std::size_t i = 0; i < num_places; ++i) {
    places.push_back(net.add_place("p" + std::to_string(i)));
  }

  // Scatter the initial tokens; leave room for zero-token places. Biased
  // toward the upper half of the budget: sparse markings mostly produce
  // instant deadlocks, which need no fuzzing to find.
  TokenCount budget = static_cast<TokenCount>(
      pick(options.max_initial_total / 2 + 1, options.max_initial_total));
  while (budget > 0) {
    const PlaceId p = places[pick(0, num_places - 1)];
    const auto drop = static_cast<TokenCount>(pick(1, std::min<TokenCount>(budget, 3)));
    net.set_initial_tokens(p, net.place(p).initial_tokens + drop);
    budget -= drop;
  }

  const bool data_features = options.interpreted || options.interpreted_expr;
  const int modulus = data_features ? static_cast<int>(pick(2, 4)) : 0;  // counter range
  if (data_features) net.initial_data().set("x", 0);
  const bool with_table = options.interpreted_expr && chance(60);
  if (with_table) {
    std::vector<std::int64_t> tbl(static_cast<std::size_t>(modulus));
    for (auto& v : tbl) v = static_cast<std::int64_t>(pick(0, 2));
    net.initial_data().set_table("tbl", std::move(tbl));
  }

  // At least one transition per place, and each transition i's first input
  // is place i mod P: every place has a consumer, so no place is a pure
  // token sink that silently drains the net into an early deadlock.
  const std::size_t num_transitions =
      std::max(pick(options.min_transitions, options.max_transitions), num_places);
  for (std::size_t i = 0; i < num_transitions; ++i) {
    const TransitionId t = net.add_transition("t" + std::to_string(i));

    // Inputs: mostly one unit arc (keeps the net alive); multi-input and
    // weight-2 arcs sprinkled in for the harder enablement shapes.
    std::vector<std::size_t> shuffled(num_places);
    for (std::size_t j = 0; j < num_places; ++j) shuffled[j] = j;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::swap(shuffled[0],
              shuffled[std::find(shuffled.begin(), shuffled.end(), i % num_places) -
                       shuffled.begin()]);
    const std::size_t num_in =
        chance(70) ? 1 : pick(2, std::min<std::size_t>(3, num_places));
    TokenCount total_in = 0;
    for (std::size_t j = 0; j < num_in; ++j) {
      const auto weight = static_cast<TokenCount>(chance(20) ? 2 : 1);
      net.add_input(t, places[shuffled[j]], weight);
      total_in += weight;
    }

    // Outputs: distinct places, total weight <= total_in (boundedness).
    // Mostly token-preserving (sum out == sum in) so the fuzzed graphs stay
    // alive and grow to hundreds/thousands of states; occasionally lossy,
    // which produces deadlocks to diff too.
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    TokenCount out_budget = total_in;
    if (chance(options.lossy_pct)) {
      out_budget = static_cast<TokenCount>(pick(0, total_in - 1));
    }
    for (std::size_t j = 0; out_budget > 0 && j < num_places; ++j) {
      const auto weight =
          j + 1 == num_places
              ? out_budget  // last distinct place takes the remainder
              : static_cast<TokenCount>(pick(1, std::min<TokenCount>(2, out_budget)));
      net.add_output(t, places[shuffled[j]], weight);
      out_budget -= weight;
    }

    if (chance(options.inhibitor_pct)) {
      net.add_inhibitor(t, places[pick(0, num_places - 1)],
                        static_cast<TokenCount>(pick(1, 3)));
    }

    if (options.interpreted_expr) {
      // The same feature mix as `interpreted`, expressed in the expression
      // language (sources recoverable, so NetProgram::compile succeeds).
      const std::string m = std::to_string(modulus);
      if (chance(25)) {
        if (with_table && chance(40)) {
          net.set_predicate(t, expr::compile_predicate("tbl[x % " + m + "] != 1"));
        } else {
          net.set_predicate(
              t, expr::compile_predicate("x % " + m + " != " +
                                         std::to_string(pick(0, modulus - 1))));
        }
      }
      if (chance(20)) {
        net.set_action(t, expr::compile_action("x = (x + 1) % " + m));
      } else if (chance(15)) {
        net.set_action(t, expr::compile_action("x = irand[0, " + m + " - 1]"));
      } else if (chance(10)) {
        // Creates `late` at runtime: the schema has its slot (absent until
        // assigned) from the start, the AST evaluator adds it on assignment.
        net.set_action(t, expr::compile_action("x = (x + 1) % " + m +
                                               "; late = x * 7 + min[x, 2]"));
      } else if (with_table && chance(15)) {
        net.set_action(t, expr::compile_action("tbl[x % " + m + "] = (tbl[x % " + m +
                                               "] + 1) % 3; x = (x + 1) % " + m));
      }
    }

    if (options.interpreted) {
      const int m = modulus;
      if (chance(25)) {
        net.set_predicate(t, [m, j = static_cast<int>(pick(0, m - 1))](
                                 const DataContext& d) { return d.get("x") % m != j; });
      }
      if (chance(20)) {
        // Deterministic counter step.
        net.set_action(t, [m](DataContext& d, Rng&) {
          d.set("x", (d.get("x") + 1) % m);
        });
      } else if (chance(15)) {
        // Stochastic action: small range, exactly the sampled-fanout case
        // the reachability builder documents.
        net.set_action(t, [m](DataContext& d, Rng& r) {
          d.set("x", r.next_int(0, m - 1));
        });
      } else if (chance(10)) {
        // Creates a variable at runtime once x wraps: exercises the
        // simulators' AST/DataContext path on a growing variable set.
        net.set_action(t, [m](DataContext& d, Rng&) {
          const std::int64_t x = (d.get("x") + 1) % m;
          d.set("x", x);
          if (x == 1) d.set("late", x * 7);
        });
      }
    }

    if (options.timed_integer) {
      // Integer skeleton: zero delays stay common (immediate firings and
      // cost-0 closures), small positive ones exercise timers/in-flight.
      // Takes precedence over `timed` (the else-if below) so the two
      // toggles cannot silently overwrite each other's delays.
      if (chance(60)) {
        net.set_firing_time(t, DelaySpec::constant(static_cast<Time>(pick(1, 3))));
      }
      if (chance(50)) {
        net.set_enabling_time(t, DelaySpec::constant(static_cast<Time>(pick(1, 2))));
      }
      if (chance(20)) net.set_policy(t, FiringPolicy::kInfiniteServer);
    } else if (options.timed) {
      switch (pick(0, 3)) {
        case 0: net.set_firing_time(t, DelaySpec::constant(static_cast<Time>(pick(1, 4)))); break;
        case 1: net.set_firing_time(t, DelaySpec::uniform_int(1, 3)); break;
        case 2:
          net.set_firing_time(t, DelaySpec::discrete({{1, 1.0}, {2, 2.0}, {4, 1.0}}));
          break;
        default: net.set_firing_time(t, DelaySpec::constant(1)); break;
      }
      switch (pick(0, 2)) {
        case 0: break;  // zero enabling time
        case 1: net.set_enabling_time(t, DelaySpec::constant(static_cast<Time>(pick(1, 2)))); break;
        default: net.set_enabling_time(t, DelaySpec::uniform_int(0, 2)); break;
      }
      if (chance(40)) net.set_frequency(t, 0.5 + static_cast<double>(pick(1, 5)));
      if (chance(20)) net.set_policy(t, FiringPolicy::kInfiniteServer);
    }
  }
  return net;
}

}  // namespace pnut::test_support
