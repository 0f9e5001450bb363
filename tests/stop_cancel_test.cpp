// Cooperative cancellation and deadlines (util/stop.h) across the stack.
//
// The contract under test is *deterministic truncation*: a build stopped by
// its StopToken terminates at a canonical event position, so the truncated
// prefix is byte-identical from run to run and a prefix of the unstopped
// graph — exactly like max_states truncation, but driven by wall-clock or
// an explicit cancel. Two deterministic stop shapes pin this exactly:
//   * a pre-expired deadline (timeout 0) stops every engine at its first
//     poll;
//   * cancel_after_polls(n) trips on the n-th poll, and because engines
//     poll at canonical positions, the n-th poll is a fixed expansion
//     point.
// Real (nonzero) deadlines cannot pin an exact stop position, so for those
// the test asserts the prefix property against the full graph instead.
// Engines with no truncation-honest result (simulation lanes, replication,
// sweeps, query fixpoints) must instead fail atomically with StopError.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../bench/reach_models.h"
#include "analysis/query.h"
#include "analysis/reachability.h"
#include "analysis/timed_reachability.h"
#include "cli/session.h"
#include "petri/net.h"
#include "sim/batch_sim.h"
#include "sim/sweep.h"
#include "stat/replication.h"
#include "support/net_fuzz.h"
#include "util/stop.h"

namespace pnut {
namespace {

// --- StopToken / StopSource units ------------------------------------------------

TEST(StopToken, NullTokenNeverFires) {
  StopToken token;
  EXPECT_FALSE(token.possible());
  EXPECT_FALSE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  EXPECT_NO_THROW(token.throw_if_stopped());
}

TEST(StopToken, ExplicitCancel) {
  StopSource source;
  const StopToken token = source.token();
  EXPECT_TRUE(token.possible());
  EXPECT_FALSE(token.may_expire());  // nothing can fire without request_cancel
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  source.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);
  try {
    token.throw_if_stopped();
    FAIL() << "expected StopError";
  } catch (const StopError& e) {
    EXPECT_EQ(e.kind(), StopError::Kind::kCancelled);
    EXPECT_STREQ(e.what(), "cancelled");
  }
}

TEST(StopToken, ExpiredDeadline) {
  StopSource source;
  source.set_timeout_seconds(0);
  const StopToken token = source.token();
  EXPECT_TRUE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kDeadline);
  try {
    token.throw_if_stopped();
    FAIL() << "expected StopError";
  } catch (const StopError& e) {
    EXPECT_EQ(e.kind(), StopError::Kind::kTimeout);
    EXPECT_STREQ(e.what(), "deadline exceeded");
  }
}

TEST(StopToken, NegativeTimeoutClampsToExpired) {
  StopSource source;
  source.set_timeout_seconds(-5);
  EXPECT_EQ(source.token().poll(), StopToken::Reason::kDeadline);
}

TEST(StopToken, FarDeadlineDoesNotFire) {
  StopSource source;
  source.set_timeout_seconds(3600);
  const StopToken token = source.token();
  EXPECT_TRUE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
}

TEST(StopToken, CancelWinsOverDeadline) {
  StopSource source;
  source.set_timeout_seconds(0);
  source.request_cancel();
  EXPECT_EQ(source.token().poll(), StopToken::Reason::kCancelled);
}

TEST(StopToken, WatchedExternalFlag) {
  std::atomic<bool> drain{false};
  StopSource source;
  source.watch(&drain);
  const StopToken token = source.token();
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  drain.store(true);
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);
}

TEST(StopToken, CancelAfterPollsTripsExactlyAndStays) {
  StopSource source;
  source.cancel_after_polls(3);
  const StopToken token = source.token();
  EXPECT_TRUE(token.may_expire());
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  EXPECT_EQ(token.poll(), StopToken::Reason::kNone);
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);
  EXPECT_EQ(token.poll(), StopToken::Reason::kCancelled);  // sticky
}

// --- untimed exploration: deterministic stop positions ----------------------------

analysis::ReachOptions reach_options(StopToken stop = {}) {
  analysis::ReachOptions o;
  o.stop = stop;
  return o;
}

/// Byte-level equality of two (possibly truncated) untimed graphs.
void expect_same_graph(const analysis::ReachabilityGraph& a,
                       const analysis::ReachabilityGraph& b, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(b.status(), a.status());
  ASSERT_EQ(b.num_states(), a.num_states());
  ASSERT_EQ(b.num_expanded(), a.num_expanded());
  ASSERT_EQ(b.num_edges(), a.num_edges());
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    const auto at = a.tokens(s);
    const auto bt = b.tokens(s);
    ASSERT_TRUE(std::equal(at.begin(), at.end(), bt.begin(), bt.end()))
        << "state " << s << " tokens differ";
    const auto ae = a.edges(s);
    const auto be = b.edges(s);
    ASSERT_EQ(be.size(), ae.size()) << "state " << s;
    for (std::size_t e = 0; e < ae.size(); ++e) {
      ASSERT_EQ(be[e].transition, ae[e].transition) << "state " << s << " edge " << e;
      ASSERT_EQ(be[e].target, ae[e].target) << "state " << s << " edge " << e;
    }
  }
}

/// `stopped` must be an exact prefix of `full`: same state ids, same edge
/// rows over the expanded prefix, empty rows beyond it.
void expect_prefix_of(const analysis::ReachabilityGraph& full,
                      const analysis::ReachabilityGraph& stopped,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(stopped.stopped());
  ASSERT_LE(stopped.num_states(), full.num_states());
  ASSERT_LE(stopped.num_expanded(), stopped.num_states());
  for (std::size_t s = 0; s < stopped.num_states(); ++s) {
    const auto ft = full.tokens(s);
    const auto st = stopped.tokens(s);
    ASSERT_TRUE(std::equal(ft.begin(), ft.end(), st.begin(), st.end()))
        << "state " << s << " tokens differ from the full graph";
    if (s < stopped.num_expanded()) {
      ASSERT_TRUE(stopped.state_expanded(s));
      const auto fe = full.edges(s);
      const auto se = stopped.edges(s);
      ASSERT_EQ(se.size(), fe.size()) << "state " << s;
      for (std::size_t e = 0; e < fe.size(); ++e) {
        ASSERT_EQ(se[e].transition, fe[e].transition) << "state " << s << " edge " << e;
        ASSERT_EQ(se[e].target, fe[e].target) << "state " << s << " edge " << e;
      }
    } else {
      EXPECT_FALSE(stopped.state_expanded(s)) << "state " << s;
      EXPECT_TRUE(stopped.edges(s).empty()) << "state " << s;
    }
  }
}

TEST(StopReach, PreExpiredDeadlineStopsAtFirstPoll) {
  const Net net = reach_models::stress_ring(10, 4);  // C(13,4) = 715 states
  const analysis::ReachabilityGraph full(net, reach_options());
  ASSERT_EQ(full.status(), analysis::ReachStatus::kComplete);

  std::vector<std::unique_ptr<analysis::ReachabilityGraph>> stopped;
  for (int run = 0; run < 2; ++run) {
    StopSource source;
    source.set_timeout_seconds(0);
    stopped.push_back(
        std::make_unique<analysis::ReachabilityGraph>(net, reach_options(source.token())));
    EXPECT_EQ(stopped.back()->status(), analysis::ReachStatus::kTimeout);
    EXPECT_EQ(stopped.back()->num_expanded(), 0u);  // first poll is parent 0
    expect_prefix_of(full, *stopped.back(), "timeout0 run " + std::to_string(run));
  }
  expect_same_graph(*stopped[0], *stopped[1], "timeout0 rerun");
}

TEST(StopReach, CancelAfterPollsStopsAtCanonicalParent) {
  // C(23,4) = 8855 states: enough expanded parents for several canonical
  // poll positions (parents 0, 1024, 2048, ...).
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions full_options = reach_options();
  full_options.max_states = 20'000;
  const analysis::ReachabilityGraph full(net, full_options);
  ASSERT_EQ(full.status(), analysis::ReachStatus::kComplete);

  for (const std::uint64_t polls : {std::uint64_t{2}, std::uint64_t{4}}) {
    std::vector<std::unique_ptr<analysis::ReachabilityGraph>> stopped;
    for (int run = 0; run < 2; ++run) {
      StopSource source;
      source.cancel_after_polls(polls);
      analysis::ReachOptions o = reach_options(source.token());
      o.max_states = 20'000;
      stopped.push_back(std::make_unique<analysis::ReachabilityGraph>(net, o));
      EXPECT_EQ(stopped.back()->status(), analysis::ReachStatus::kCancelled);
      // The n-th poll sits at canonical parent (n-1) * kStopCheckStride.
      EXPECT_EQ(stopped.back()->num_expanded(), (polls - 1) * kStopCheckStride);
      expect_prefix_of(full, *stopped.back(), "polls=" + std::to_string(polls));
    }
    expect_same_graph(*stopped[0], *stopped[1], "polls=" + std::to_string(polls) + " rerun");
  }
}

TEST(StopReach, CancelAfterPollsOnFuzzedNets) {
  for (const std::uint64_t seed : {11u, 23u, 57u}) {
    const Net net = test_support::fuzz_net(seed);
    const analysis::ReachabilityGraph full(net, reach_options());
    // Trip on the very first poll: fuzzed graphs are usually smaller than
    // one stride, so later polls may never happen.
    StopSource source;
    source.cancel_after_polls(1);
    const analysis::ReachabilityGraph stopped(net, reach_options(source.token()));
    EXPECT_EQ(stopped.status(), analysis::ReachStatus::kCancelled);
    EXPECT_EQ(stopped.num_expanded(), 0u);
    expect_prefix_of(full, stopped, "fuzz seed=" + std::to_string(seed));
  }
}

TEST(StopReach, RealDeadlinePrefixProperty) {
  // A wall-clock deadline cannot pin an exact stop position; it must still
  // produce a valid prefix (or complete if the build beat the clock).
  const Net net = reach_models::stress_ring(20, 4);
  analysis::ReachOptions full_options = reach_options();
  full_options.max_states = 20'000;
  const analysis::ReachabilityGraph full(net, full_options);
  StopSource source;
  source.set_timeout_seconds(1e-4);
  analysis::ReachOptions o = reach_options(source.token());
  o.max_states = 20'000;
  const analysis::ReachabilityGraph g(net, o);
  if (g.status() == analysis::ReachStatus::kTimeout) {
    expect_prefix_of(full, g, "real deadline");
  } else {
    EXPECT_EQ(g.status(), analysis::ReachStatus::kComplete);
  }
}

// --- timed exploration -----------------------------------------------------------

analysis::TimedReachOptions timed_options(StopToken stop = {}) {
  analysis::TimedReachOptions o;
  o.max_states = 50'000;
  o.stop = stop;
  return o;
}

void expect_same_timed(const analysis::TimedReachabilityGraph& a,
                       const analysis::TimedReachabilityGraph& b,
                       const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(b.status(), a.status());
  ASSERT_EQ(b.num_states(), a.num_states());
  ASSERT_EQ(b.num_expanded(), a.num_expanded());
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    const auto aw = a.state_words(s);
    const auto bw = b.state_words(s);
    ASSERT_TRUE(std::equal(aw.begin(), aw.end(), bw.begin(), bw.end()))
        << "state " << s << " words differ";
    ASSERT_EQ(b.earliest_time(s), a.earliest_time(s)) << "state " << s;
    ASSERT_EQ(b.state_expanded(s), a.state_expanded(s)) << "state " << s;
    const auto ae = a.edges(s);
    const auto be = b.edges(s);
    ASSERT_EQ(be.size(), ae.size()) << "state " << s;
    for (std::size_t e = 0; e < ae.size(); ++e) {
      ASSERT_EQ(be[e].transition, ae[e].transition) << "state " << s << " edge " << e;
      ASSERT_EQ(be[e].target, ae[e].target) << "state " << s << " edge " << e;
    }
  }
}

/// `stopped` must be a discovery-order prefix of `longer`: the same words
/// under the same ids, and the same edge row for every state it expanded.
/// (Earliest times are not compared: a later cost-0 path can still lower a
/// state's time in the longer build.)
void expect_timed_prefix_of(const analysis::TimedReachabilityGraph& longer,
                            const analysis::TimedReachabilityGraph& stopped,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_TRUE(stopped.stopped());
  ASSERT_LT(stopped.num_states(), longer.num_states());
  for (std::size_t s = 0; s < stopped.num_states(); ++s) {
    const auto lw = longer.state_words(s);
    const auto sw = stopped.state_words(s);
    ASSERT_TRUE(std::equal(lw.begin(), lw.end(), sw.begin(), sw.end()))
        << "state " << s << " words differ from the longer build";
    if (!stopped.state_expanded(s)) {
      EXPECT_TRUE(stopped.edges(s).empty()) << "state " << s;
      continue;
    }
    ASSERT_TRUE(longer.state_expanded(s)) << "state " << s;
    const auto le = longer.edges(s);
    const auto se = stopped.edges(s);
    ASSERT_EQ(se.size(), le.size()) << "state " << s;
    for (std::size_t e = 0; e < le.size(); ++e) {
      ASSERT_EQ(se[e].transition, le[e].transition) << "state " << s << " edge " << e;
      ASSERT_EQ(se[e].target, le[e].target) << "state " << s << " edge " << e;
    }
  }
}

TEST(StopTimed, PreExpiredDeadlineStopsAtFirstPoll) {
  const Net net = reach_models::timed_race_ring(12, 3);
  std::vector<std::unique_ptr<analysis::TimedReachabilityGraph>> stopped;
  for (int run = 0; run < 2; ++run) {
    StopSource source;
    source.set_timeout_seconds(0);
    stopped.push_back(std::make_unique<analysis::TimedReachabilityGraph>(
        net, timed_options(source.token())));
    EXPECT_EQ(stopped.back()->status(), analysis::TimedReachStatus::kTimeout);
    EXPECT_EQ(stopped.back()->num_expanded(), 0u);  // first poll is state 0
    EXPECT_EQ(stopped.back()->num_states(), 1u);
  }
  expect_same_timed(*stopped[0], *stopped[1], "timed timeout0 rerun");
}

TEST(StopTimed, CancelAfterPollsIsADeterministicPrefix) {
  // 418k timed states uncapped (kTimedRaceRing12x3): the 50k-state capped
  // build is far longer than any stop position used here.
  const Net net = reach_models::timed_race_ring(12, 3);
  const analysis::TimedReachabilityGraph capped(net, timed_options());
  ASSERT_EQ(capped.status(), analysis::TimedReachStatus::kTruncated);
  for (const std::uint64_t polls : {std::uint64_t{2}, std::uint64_t{5}}) {
    std::vector<std::unique_ptr<analysis::TimedReachabilityGraph>> stopped;
    for (int run = 0; run < 2; ++run) {
      StopSource source;
      source.cancel_after_polls(polls);
      stopped.push_back(std::make_unique<analysis::TimedReachabilityGraph>(
          net, timed_options(source.token())));
      EXPECT_EQ(stopped.back()->status(), analysis::TimedReachStatus::kCancelled);
      expect_timed_prefix_of(capped, *stopped.back(), "timed polls=" + std::to_string(polls));
    }
    expect_same_timed(*stopped[0], *stopped[1],
                      "timed polls=" + std::to_string(polls) + " rerun");
  }
}

TEST(StopTimed, CancelAfterPollsOnFuzzedTimedNets) {
  test_support::FuzzOptions fuzz;
  fuzz.timed_integer = true;
  for (const std::uint64_t seed : {5u, 19u, 41u}) {
    const Net net = test_support::fuzz_net(seed, fuzz);
    StopSource source;
    source.cancel_after_polls(1);
    const analysis::TimedReachabilityGraph stopped(net, timed_options(source.token()));
    EXPECT_EQ(stopped.status(), analysis::TimedReachStatus::kCancelled);
    EXPECT_EQ(stopped.num_expanded(), 0u);
    EXPECT_EQ(stopped.num_states(), 1u);
  }
}

// --- simulation / replication / sweep: atomic failure -----------------------------

// stress_ring has no delays — its simulation is a zero-delay cascade — so
// the simulation-side tests run the timed race ring, whose firings advance
// the clock.
TEST(StopSim, BatchSimulatorCancelThrowsStopError) {
  const Net net = reach_models::timed_race_ring(6, 3);
  BatchOptions options;
  StopSource source;
  source.request_cancel();
  options.stop = source.token();
  BatchSimulator batch(CompiledNet::compile(net), 4, options);
  EXPECT_THROW(batch.run(10'000), StopError);
}

TEST(StopSim, ReplicationTimeoutThrowsStopError) {
  const Net net = reach_models::timed_race_ring(6, 3);
  StopSource source;
  source.set_timeout_seconds(0);
  try {
    run_replications(net, 10'000, 4, {}, 1, 1, source.token());
    FAIL() << "expected StopError";
  } catch (const StopError& e) {
    EXPECT_EQ(e.kind(), StopError::Kind::kTimeout);
  }
}

TEST(StopSim, ReplicationWithoutStopStillRuns) {
  const Net net = reach_models::timed_race_ring(6, 3);
  const ReplicationResult result = run_replications(net, 1'000, 3, {});
  EXPECT_EQ(result.runs.size(), 3u);
}

TEST(StopSim, SweepCancelThrowsStopError) {
  const Net net = reach_models::timed_race_ring(6, 3);
  SweepOptions options;
  options.replications = 2;
  StopSource source;
  source.request_cancel();
  options.stop = source.token();
  EXPECT_THROW(run_sweep(CompiledNet::compile(net), {}, 1'000, {}, options), StopError);
}

// --- query fixpoints --------------------------------------------------------------

TEST(StopQuery, CancelledTokenThrowsStopError) {
  const Net net = reach_models::stress_ring(8, 3);
  const analysis::ReachabilityGraph graph(net, reach_options());
  ASSERT_EQ(graph.status(), analysis::ReachStatus::kComplete);
  StopSource source;
  source.request_cancel();
  EXPECT_THROW(
      analysis::eval_query(graph, "forall s in S [ p0(s) >= 0 ]", source.token()),
      StopError);
  // Temporal fixpoints poll too.
  EXPECT_THROW(analysis::eval_query(graph, "forall s in S [ poss(s, p0(C) > 0, true) ]",
                                    source.token()),
               StopError);
  // The same queries succeed with a live token.
  StopSource live;
  EXPECT_TRUE(
      analysis::eval_query(graph, "forall s in S [ p0(s) >= 0 ]", live.token()).holds);
}

// --- the CLI surface --------------------------------------------------------------

// A small timed model (integer-constant delays, so analyze's timed pass
// runs too, and firings advance the clock, so simulate terminates).
constexpr const char* kCliModel = R"(
net stopdemo
place Bus_free init 1
place Bus_busy
place Jobs init 2
place Done
trans start in Bus_free, Jobs out Bus_busy
trans finish in Bus_busy out Bus_free, Done enabling 5
trans recycle in Done out Jobs enabling 3
)";

class StopCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pnut_stop_cli_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
    model_path_ = (dir_ / "model.pn").string();
    std::ofstream(model_path_) << kCliModel;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] const std::string& model_path() const { return model_path_; }

  std::filesystem::path dir_;
  std::string model_path_;
};

TEST_F(StopCliTest, SimulateTimeoutZeroFailsWithDeadline) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"simulate", {model_path(), "--until", "100000", "--timeout", "0"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("deadline exceeded"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, ReplicateTimeoutZeroFailsWithDeadline) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"replicate", {model_path(), "--replications", "2", "--timeout", "0"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("deadline exceeded"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, AnalyzeTimeoutZeroReportsStoppedPrefix) {
  cli::Session session;
  const cli::Result r =
      session.execute({"analyze", {model_path(), "--timeout", "0"}});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("STOPPED at deadline"), std::string::npos) << r.out;
}

TEST_F(StopCliTest, AnalyzeTimeoutZeroPrefixIsRepeatable) {
  // The stopped prefix sits at a canonical position, so the whole report —
  // counts, status and storage lines — repeats byte for byte.
  cli::Session session;
  const cli::Result first = session.execute({"analyze", {model_path(), "--timeout", "0"}});
  EXPECT_EQ(first.code, 0) << first.err;
  const cli::Result second = session.execute({"analyze", {model_path(), "--timeout", "0"}});
  EXPECT_EQ(second.code, 0) << second.err;
  EXPECT_EQ(second.out, first.out);
}

TEST_F(StopCliTest, QueryTimeoutZeroFails) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"query", {"--reach", model_path(), "forall s in S [ 1 = 1 ]", "--timeout", "0"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("deadline exceeded"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, NegativeTimeoutIsUsageError) {
  cli::Session session;
  const cli::Result r = session.execute(
      {"simulate", {model_path(), "--timeout", "-1"}});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--timeout"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, CancelInflightCancelsFutureRequests) {
  cli::Session session;
  session.cancel_inflight();
  const cli::Result r =
      session.execute({"simulate", {model_path(), "--until", "100000"}});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cancelled"), std::string::npos) << r.err;
}

TEST_F(StopCliTest, StoppedGraphIsNeverCached) {
  cli::SessionOptions options;
  options.cache = true;
  cli::Session session(options);
  // A deadline-bearing analyze bypasses the cache entirely.
  const cli::Result stopped =
      session.execute({"analyze", {model_path(), "--timeout", "0"}});
  EXPECT_EQ(stopped.code, 0) << stopped.err;
  EXPECT_EQ(session.stats().graph_misses, 0u);
  EXPECT_EQ(session.stats().graph_cache_entries, 0u);
  // An untimed analyze afterwards builds (and caches) the real graph.
  const cli::Result full = session.execute({"analyze", {model_path()}});
  EXPECT_EQ(full.code, 0) << full.err;
  EXPECT_EQ(full.out.find("STOPPED"), std::string::npos) << full.out;
  EXPECT_GT(session.stats().graph_cache_entries, 0u);
}

}  // namespace
}  // namespace pnut
