// Tests for the pnut command-line utility tools (src/cli).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "cli/cli.h"

namespace pnut::cli {
namespace {

constexpr const char* kModelPn = R"(
net demo
place Bus_free init 1
place Bus_busy
place Jobs init 2
place Done
trans start in Bus_free, Jobs out Bus_busy
trans finish in Bus_busy out Bus_free, Done enabling 5
trans recycle in Done out Jobs enabling 3
)";

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pnut_cli_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    model_path_ = (dir_ / "model.pn").string();
    std::ofstream(model_path_) << kModelPn;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Run the CLI, capture out/err.
  struct Result {
    int code;
    std::string out;
    std::string err;
  };
  static Result run_cli(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run(args, out, err);
    return Result{code, out.str(), err.str()};
  }

  std::string make_trace_file() {
    const std::string trace_path = (dir_ / "run.trace").string();
    const Result r = run_cli({"simulate", model_path_, "--until", "200", "--seed", "7",
                              "--trace", trace_path});
    EXPECT_EQ(r.code, 0) << r.err;
    return trace_path;
  }

  std::filesystem::path dir_;
  std::string model_path_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run_cli({"help"}).code, 0);
  EXPECT_NE(run_cli({"help"}).out.find("usage"), std::string::npos);
  EXPECT_EQ(run_cli({}).code, 2);
  const Result bad = run_cli({"frobnicate"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, ValidateAcceptsGoodModel) {
  const Result r = run_cli({"validate", model_path_});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 places"), std::string::npos);
  EXPECT_NE(r.out.find("3 transitions"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsBadModel) {
  const std::string bad_path = (dir_ / "bad.pn").string();
  std::ofstream(bad_path) << "place P init 1\ntrans t in Nowhere out P\n";
  const Result r = run_cli({"validate", bad_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown place"), std::string::npos);
}

TEST_F(CliTest, ValidateMissingFile) {
  const Result r = run_cli({"validate", (dir_ / "absent.pn").string()});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, CheckAcceptsPlainAndScriptedModels) {
  const Result plain = run_cli({"check", model_path_});
  EXPECT_EQ(plain.code, 0) << plain.err;
  EXPECT_NE(plain.out.find("ok: 4 places, 3 transitions"), std::string::npos);

  // A model using the scripting layer reports its library and slot counts.
  const std::string scripted_path = (dir_ / "scripted.pn").string();
  std::ofstream(scripted_path)
      << "net scripted\n"
         "fn \"twice(v) { return v + v; }\"\n"
         "param base 3\n"
         "var total 0\n"
         "place P init 1\n"
         "trans t in P out P do \"total = twice(base)\" firing 1\n";
  const Result scripted = run_cli({"check", scripted_path});
  EXPECT_EQ(scripted.code, 0) << scripted.err;
  EXPECT_NE(scripted.out.find("1 places, 1 transitions"), std::string::npos);
  EXPECT_NE(scripted.out.find("1 functions"), std::string::npos);
  EXPECT_NE(scripted.out.find("1 params"), std::string::npos);
  EXPECT_NE(scripted.out.find("value slots"), std::string::npos);
}

TEST_F(CliTest, CheckReportsLineMappedDiagnosticsWithCaret) {
  // The broken expression lives inside a quoted string on document line 4;
  // the diagnostic points there and renders a caret under the column.
  const std::string bad_path = (dir_ / "bad_expr.pn").string();
  std::ofstream(bad_path) << "net bad\n"
                             "place P init 1\n"
                             "trans t in P out P\n"
                             "      do \"x = +\"\n";
  const Result r = run_cli({"check", bad_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("line 4: bad action: expected an expression"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("x = +\n    ^"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find(bad_path), std::string::npos);  // path-prefixed
}

TEST_F(CliTest, CheckLowersEveryHookAndNamesTheBadOne) {
  // Arity mistakes are evaluation-time in the AST walker, so validate and
  // simulate accept this model; check compiles to bytecode and rejects it,
  // naming the transition and hook.
  const std::string arity_path = (dir_ / "arity.pn").string();
  std::ofstream(arity_path) << "net arity\n"
                               "place P init 1\n"
                               "trans t in P out P do \"x = irand[1]\"\n";
  EXPECT_EQ(run_cli({"validate", arity_path}).code, 0);
  const Result r = run_cli({"check", arity_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("transition 't' action: irand expects 2 arguments, got 1"),
            std::string::npos)
      << r.out;
}

TEST_F(CliTest, ExplorationRejectsUncompilableHooksNamingThem) {
  // analyze and query --reach run every hook as bytecode, so the arity
  // mistake `check` reports stops them before exploring: exit 2, the
  // structural sections already printed, stderr naming transition and hook.
  const std::string arity_path = (dir_ / "arity.pn").string();
  std::ofstream(arity_path) << "net arity\n"
                               "place P init 1\n"
                               "trans t in P out P do \"x = irand[1]\"\n";
  const std::string reason = "transition 't' action: irand expects 2 arguments, got 1";
  const Result analyze = run_cli({"analyze", arity_path});
  EXPECT_EQ(analyze.code, 2);
  EXPECT_EQ(analyze.out,
            "net: arity — 1 places, 1 transitions\n\n"
            "place invariants (1):\n"
            "  P = 1\n"
            "  every place covered: net is structurally bounded\n"
            "transition invariants (1):\n"
            "  t\n");
  EXPECT_NE(analyze.err.find(reason), std::string::npos) << analyze.err;

  const Result query =
      run_cli({"query", "--reach", arity_path, "forall s in S [ P(s) = 1 ]"});
  EXPECT_EQ(query.code, 2);
  EXPECT_EQ(query.out, "");
  EXPECT_NE(query.err.find(reason), std::string::npos) << query.err;
}

TEST_F(CliTest, NoExprVmIsSimulateOnly) {
  // Exploration has one data path; the flag survives only on simulate.
  const Result analyze = run_cli({"analyze", model_path_, "--no-expr-vm"});
  EXPECT_EQ(analyze.code, 2);
  EXPECT_NE(analyze.err.find("unknown flag --no-expr-vm"), std::string::npos) << analyze.err;
  const Result query = run_cli({"query", "--reach", model_path_,
                                "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]",
                                "--no-expr-vm"});
  EXPECT_EQ(query.code, 2);
  EXPECT_NE(query.err.find("unknown flag --no-expr-vm"), std::string::npos) << query.err;

  const Result vm = run_cli({"simulate", model_path_, "--until", "200", "--seed", "7"});
  const Result ast =
      run_cli({"simulate", model_path_, "--until", "200", "--seed", "7", "--no-expr-vm"});
  EXPECT_EQ(ast.code, 0) << ast.err;
  EXPECT_EQ(ast.out, vm.out);
}

TEST_F(CliTest, CheckMissingFile) {
  const Result r = run_cli({"check", (dir_ / "absent.pn").string()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("cannot open"), std::string::npos);
}

TEST_F(CliTest, PrintRoundTrips) {
  const Result r = run_cli({"print", model_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  const std::string reprinted_path = (dir_ / "reprinted.pn").string();
  std::ofstream(reprinted_path) << r.out;
  const Result again = run_cli({"print", reprinted_path});
  EXPECT_EQ(again.code, 0);
  EXPECT_EQ(again.out, r.out);
}

TEST_F(CliTest, ReplicateSummarizesAcrossSeeds) {
  const Result r = run_cli({"replicate", model_path_, "--replications", "4",
                            "--horizon", "500", "--seed", "9"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 replications to t=500"), std::string::npos);
  EXPECT_NE(r.out.find("seeds 9..12"), std::string::npos);
  EXPECT_NE(r.out.find("throughput(finish)"), std::string::npos);
  EXPECT_NE(r.out.find("tokens(Bus_busy)"), std::string::npos);
  EXPECT_NE(r.out.find("(n=4)"), std::string::npos);
}

TEST_F(CliTest, ReplicateThreadCountDoesNotChangeOutput) {
  auto run_with = [&](const char* threads) {
    return run_cli({"replicate", model_path_, "--replications", "6", "--horizon", "400",
                    "--threads", threads});
  };
  const Result one = run_with("1");
  ASSERT_EQ(one.code, 0) << one.err;
  for (const char* threads : {"2", "4", "0"}) {
    const Result r = run_with(threads);
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_EQ(r.out, one.out) << "--threads " << threads;
  }
}

TEST_F(CliTest, ReplicateRejectsBadFlags) {
  // Same parsing rules as the analysis commands: integers only, sane ranges.
  EXPECT_EQ(run_cli({"replicate", model_path_, "--replications", "0"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--replications", "2.5"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--horizon", "0"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--threads", "-1"}).code, 2);
  EXPECT_EQ(run_cli({"replicate", model_path_, "--threads", "1.5"}).code, 2);
  EXPECT_EQ(run_cli({"replicate"}).code, 2);  // missing model file
}

TEST_F(CliTest, ReplicateThreadsIsAStrictBoundedInteger) {
  // --threads parses as a strict integer in [0, 4096]: signs, fractions,
  // suffixes and absurd values are usage errors naming the flag (a
  // four-billion-thread request must not reach std::thread).
  for (const char* bad : {"-1", "-3", "1.5", "nope", "4abc", "1e2", "4097", "999999999",
                          "4294967296", ""}) {
    const Result r = run_cli({"replicate", model_path_, "--replications", "2", "--horizon",
                              "50", "--threads", bad});
    EXPECT_EQ(r.code, 2) << "--threads '" << bad << "'";
    EXPECT_NE(r.err.find("--threads"), std::string::npos) << bad << ": " << r.err;
  }
}

TEST_F(CliTest, NumericFlagsRejectTrailingJunk) {
  // A value that only starts with a number is a typo, not that number:
  // `--until 500abc` used to run to 500 and `--timeout 5s` meant 5.
  const std::string trace_path = make_trace_file();
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      {"--until", {"simulate", model_path_, "--until", "500abc"}},
      {"--timeout", {"simulate", model_path_, "--until", "10", "--timeout", "5s"}},
      {"--horizon", {"replicate", model_path_, "--horizon", "100x"}},
      {"--from", {"render", trace_path, "--signals", "Bus_busy", "--from", "1,5"}},
      {"--marker", {"render", trace_path, "--signals", "Bus_busy", "--marker", "O=2q"}},
  };
  for (const auto& [flag, argv] : cases) {
    const Result r = run_cli(argv);
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find(flag), std::string::npos) << flag << ": " << r.err;
  }
}

TEST_F(CliTest, CountFlagsAreStrictUnsignedIntegers) {
  // --steps and --columns are counts: a negative value used to be cast
  // from double to size_t (undefined behaviour), a fraction truncated.
  const std::string trace_path = make_trace_file();
  for (const char* bad : {"-1", "2.5", "3x", "1e3"}) {
    const Result steps = run_cli({"animate", trace_path, "--steps", bad});
    EXPECT_EQ(steps.code, 2) << "--steps " << bad;
    EXPECT_NE(steps.err.find("--steps"), std::string::npos) << steps.err;
    const Result columns =
        run_cli({"render", trace_path, "--signals", "Bus_busy", "--columns", bad});
    EXPECT_EQ(columns.code, 2) << "--columns " << bad;
    EXPECT_NE(columns.err.find("--columns"), std::string::npos) << columns.err;
  }
  EXPECT_EQ(run_cli({"animate", trace_path, "--steps", "2"}).code, 0);
  EXPECT_EQ(run_cli({"render", trace_path, "--signals", "Bus_busy", "--columns", "30"}).code,
            0);
}

TEST_F(CliTest, SimulatePrintsStatsByDefault) {
  const Result r = run_cli({"simulate", model_path_, "--until", "1000", "--seed", "3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("simulated to t=1000"), std::string::npos);
  EXPECT_NE(r.out.find("EVENT STATISTICS"), std::string::npos);
  EXPECT_NE(r.out.find("Bus_busy"), std::string::npos);
}

TEST_F(CliTest, SimulateTblOutput) {
  const Result r =
      run_cli({"simulate", model_path_, "--until", "100", "--seed", "3", "--tbl"});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find(".TS"), std::string::npos);
}

TEST_F(CliTest, SimulateWritesTraceFile) {
  const std::string trace_path = make_trace_file();
  std::ifstream in(trace_path);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "pnut-trace 1");
}

TEST_F(CliTest, StatReadsTraceBack) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"stat", trace_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("PLACE STATISTICS"), std::string::npos);
  EXPECT_NE(r.out.find("finish"), std::string::npos);
}

TEST_F(CliTest, SimulateWithKeepFilterShrinksTrace) {
  const std::string full_path = (dir_ / "full.trace").string();
  const std::string small_path = (dir_ / "small.trace").string();
  ASSERT_EQ(run_cli({"simulate", model_path_, "--until", "500", "--seed", "2", "--trace",
                     full_path})
                .code,
            0);
  ASSERT_EQ(run_cli({"simulate", model_path_, "--until", "500", "--seed", "2", "--trace",
                     small_path, "--keep", "Done"})
                .code,
            0);
  EXPECT_LT(std::filesystem::file_size(small_path), std::filesystem::file_size(full_path));
}

TEST_F(CliTest, QueryOnTraceExitCodeReflectsVerdict) {
  const std::string trace_path = make_trace_file();
  const Result good =
      run_cli({"query", trace_path, "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"});
  EXPECT_EQ(good.code, 0) << good.err;
  EXPECT_NE(good.out.find("holds"), std::string::npos);

  const Result bad = run_cli({"query", trace_path, "forall s in S [ Bus_busy(s) = 1 ]"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.out.find("fails"), std::string::npos);
}

TEST_F(CliTest, QueryOnReachabilityGraph) {
  const Result r = run_cli({"query", "--reach", model_path_,
                            "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("holds"), std::string::npos);
}

TEST_F(CliTest, ExplorationCommandsRejectThreads) {
  // analyze and query --reach explore on one thread; --threads is not in
  // their vocabulary, so it is an unknown-flag usage error naming itself.
  for (const char* threads : {"1", "4", "0"}) {
    const Result query = run_cli({"query", "--reach", model_path_,
                                  "exists s in S [ Bus_free(s) = 1 ]", "--threads", threads});
    EXPECT_EQ(query.code, 2) << "query --threads " << threads;
    EXPECT_EQ(query.out, "");
    EXPECT_NE(query.err.find("unknown flag --threads"), std::string::npos) << query.err;
    const Result analyze = run_cli({"analyze", model_path_, "--threads", threads});
    EXPECT_EQ(analyze.code, 2) << "analyze --threads " << threads;
    EXPECT_EQ(analyze.out, "");
    EXPECT_NE(analyze.err.find("unknown flag --threads"), std::string::npos) << analyze.err;
  }
}

TEST_F(CliTest, QuerySyntaxErrorIsUsageError) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"query", trace_path, "forall s in ["});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTest, RenderWaveforms) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"render", trace_path, "--signals",
                            "Bus_busy,Done,load=Bus_busy+Jobs", "--columns", "40",
                            "--marker", "O=20", "--marker", "X=60"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Bus_busy"), std::string::npos);
  EXPECT_NE(r.out.find("load"), std::string::npos);
  EXPECT_NE(r.out.find("O <-> X: 40"), std::string::npos);
}

TEST_F(CliTest, RenderUnknownSignalFails) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"render", trace_path, "--signals", "NoSuchThing"});
  EXPECT_EQ(r.code, 2);
}

TEST_F(CliTest, AnimateShowsTokenFlow) {
  const std::string trace_path = make_trace_file();
  const Result r = run_cli({"animate", trace_path, "--steps", "4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("==(1)==>"), std::string::npos);
  EXPECT_NE(r.out.find("t="), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsInvariantsAndReachability) {
  const Result r = run_cli({"analyze", model_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("place invariants"), std::string::npos);
  EXPECT_NE(r.out.find("Bus_free + Bus_busy = 1"), std::string::npos);
  EXPECT_NE(r.out.find("structurally bounded"), std::string::npos);
  EXPECT_NE(r.out.find("transition invariants"), std::string::npos);
  EXPECT_NE(r.out.find("reachability:"), std::string::npos);
  EXPECT_NE(r.out.find("place invariants verified over"), std::string::npos);
  EXPECT_NE(r.out.find("deadlock states: 0"), std::string::npos);
  EXPECT_NE(r.out.find("reversible: yes"), std::string::npos);
  EXPECT_NE(r.out.find("timed reachability:"), std::string::npos);
  EXPECT_NE(r.out.find("timed deadlocks: 0"), std::string::npos);
}

TEST_F(CliTest, AnalyzeSkipsTimedSectionForStochasticDelays) {
  const std::string stochastic_path = (dir_ / "stochastic.pn").string();
  std::ofstream(stochastic_path) << "place P init 1\ntrans t in P out P firing uniform 1 3\n";
  const Result r = run_cli({"analyze", stochastic_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("timed reachability: skipped"), std::string::npos);
}

TEST_F(CliTest, AnalyzeSkipsTimedSectionForDelaysTooLongForTheLayout) {
  // A wrapped 32-bit offset sum (heap overflow before) and a 100M-word
  // state (out of memory before): both skip with the reason and exit 0.
  const std::string wrap_path = (dir_ / "wrap.pn").string();
  std::ofstream(wrap_path) << "place p init 1\nplace q\nplace r init 1\nplace s\n"
                              "trans a in p out q firing 4294967290\n"
                              "trans b in r out s firing 20\n";
  Result r = run_cli({"analyze", wrap_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("reachability: 4 states"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("timed reachability: skipped (transition 'a' has firing time "
                       "4294967290: a timed state would be wider than 4096 words)\n"),
            std::string::npos)
      << r.out;

  const std::string long_path = (dir_ / "long.pn").string();
  std::ofstream(long_path) << "place p init 1\nplace q\ntrans a in p out q firing 100000000\n";
  r = run_cli({"analyze", long_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("timed reachability: skipped (transition 'a' has firing time "
                       "100000000: a timed state would be wider than 4096 words)\n"),
            std::string::npos)
      << r.out;
}

TEST_F(CliTest, SpillFlagsGiveIdenticalAnswersAndCleanUpSegments) {
  // A 1K residency budget on this model forces real spilling, the query
  // answer matches the in-RAM build exactly, and the uniquely named
  // segment subdirectory inside --spill-dir is gone when the command
  // returns — the spill dir itself is left alone.
  const std::string query = "forall s in S [ Bus_busy(s) + Bus_free(s) = 1 ]";
  const Result flat = run_cli({"query", "--reach", model_path_, query});
  ASSERT_EQ(flat.code, 0) << flat.err;
  const std::filesystem::path spill_root = dir_ / "segments";
  std::filesystem::create_directories(spill_root);
  const Result spilled = run_cli({"query", "--reach", model_path_, query,
                                  "--max-resident-bytes", "1K", "--spill-dir",
                                  spill_root.string()});
  EXPECT_EQ(spilled.code, 0) << spilled.err;
  EXPECT_EQ(spilled.out, flat.out);
  EXPECT_TRUE(std::filesystem::is_empty(spill_root));
}

TEST_F(CliTest, AnalyzeTakesSpillBudgetWithSuffixes) {
  const Result flat = run_cli({"analyze", model_path_});
  ASSERT_EQ(flat.code, 0) << flat.err;
  for (const char* budget : {"1024", "1K", "1M", "1G"}) {
    const Result spilled =
        run_cli({"analyze", model_path_, "--max-resident-bytes", budget});
    ASSERT_EQ(spilled.code, 0) << "--max-resident-bytes " << budget << ": "
                               << spilled.err;
    // Identical analysis modulo the storage/out-of-core reporting lines.
    EXPECT_NE(spilled.out.find("reachability:"), std::string::npos) << budget;
    EXPECT_EQ(spilled.out.find("TRUNCATED"), std::string::npos) << budget;
  }
  // The demo net is too small to fill a single segment; a 1716-state
  // token ring against a 1 KB budget genuinely spills, and the report
  // says so.
  const std::string ring_path = (dir_ / "ring.pn").string();
  {
    std::ofstream ring(ring_path);
    ring << "net ring\n";
    for (int i = 0; i < 8; ++i) {
      ring << "place P" << i << (i == 0 ? " init 6" : "") << '\n';
    }
    for (int i = 0; i < 8; ++i) {
      ring << "trans t" << i << " in P" << i << " out P" << (i + 1) % 8 << '\n';
    }
  }
  const Result engaged =
      run_cli({"analyze", ring_path, "--max-resident-bytes", "1024"});
  ASSERT_EQ(engaged.code, 0) << engaged.err;
  EXPECT_NE(engaged.out.find("out-of-core:"), std::string::npos);
}

TEST_F(CliTest, SpillFlagValidation) {
  // One rule for both commands: the budget must be a positive byte count
  // (optional K/M/G suffix), and --spill-dir alone is meaningless.
  const std::string query = "exists s in S [ Bus_free(s) = 1 ]";
  for (const char* bad : {"0", "-1", "abc", "1X", "K", "1.5M", "", "10KB"}) {
    const Result r = run_cli({"query", "--reach", model_path_, query,
                              "--max-resident-bytes", bad});
    EXPECT_EQ(r.code, 2) << "--max-resident-bytes '" << bad << "'";
    EXPECT_NE(r.err.find("--max-resident-bytes"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"analyze", model_path_, "--max-resident-bytes", bad}).code, 2)
        << "analyze --max-resident-bytes '" << bad << "'";
  }
  const Result orphan =
      run_cli({"analyze", model_path_, "--spill-dir", dir_.string()});
  EXPECT_EQ(orphan.code, 2);
  EXPECT_NE(orphan.err.find("--spill-dir"), std::string::npos);
  // A spill root that doesn't exist is a reported error, not a crash.
  const Result missing =
      run_cli({"query", "--reach", model_path_, query, "--max-resident-bytes", "1K",
               "--spill-dir", (dir_ / "no" / "such" / "dir").string()});
  EXPECT_EQ(missing.code, 2);
}

TEST_F(CliTest, FlagErrors) {
  EXPECT_EQ(run_cli({"simulate", model_path_, "--until"}).code, 2);
  EXPECT_EQ(run_cli({"simulate", model_path_, "--until", "abc"}).code, 2);
  EXPECT_EQ(run_cli({"render", make_trace_file()}).code, 2);  // missing --signals
  EXPECT_EQ(run_cli({"simulate"}).code, 2);                   // missing model
}

TEST_F(CliTest, SeedParsesFull64BitRange) {
  // Seeds are uint64 streams; parsing them through double would round
  // 2^53+1 to 2^53 and 2^64-1 out of range entirely. The report line
  // echoes the seed, so an exact match proves the exact parse.
  for (const char* seed : {"9007199254740993", "18446744073709551615"}) {
    const Result sim =
        run_cli({"simulate", model_path_, "--until", "50", "--seed", seed});
    ASSERT_EQ(sim.code, 0) << sim.err;
    EXPECT_NE(sim.out.find(std::string("seed ") + seed), std::string::npos) << seed;
  }
  // replicate prints "seeds S..S+N-1"; the base must survive exactly too.
  const Result rep = run_cli({"replicate", model_path_, "--replications", "2",
                              "--horizon", "100", "--seed", "9007199254740993"});
  ASSERT_EQ(rep.code, 0) << rep.err;
  EXPECT_NE(rep.out.find("seeds 9007199254740993..9007199254740994"),
            std::string::npos);
}

TEST_F(CliTest, SeedRejectsFractionSignAndOverflow) {
  // `--seed 1.5` used to silently truncate to 1; now every non-integer
  // form is a usage error naming the flag.
  for (const char* bad : {"1.5", "-1", "1e6", "18446744073709551616", "abc", ""}) {
    const Result sim =
        run_cli({"simulate", model_path_, "--until", "10", "--seed", bad});
    EXPECT_EQ(sim.code, 2) << "simulate --seed '" << bad << "'";
    EXPECT_NE(sim.err.find("--seed"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"replicate", model_path_, "--seed", bad}).code, 2)
        << "replicate --seed '" << bad << "'";
  }
}

TEST_F(CliTest, MaxStatesRejectsFractionAndSign) {
  const std::string query = "exists s in S [ Bus_free(s) = 1 ]";
  for (const char* bad : {"1.5", "-1", "1e5"}) {
    const Result q = run_cli({"query", "--reach", model_path_, query,
                              "--max-states", bad});
    EXPECT_EQ(q.code, 2) << "query --max-states '" << bad << "'";
    EXPECT_NE(q.err.find("--max-states"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"analyze", model_path_, "--max-states", bad}).code, 2)
        << "analyze --max-states '" << bad << "'";
  }
}

TEST_F(CliTest, UnknownFlagsAreUsageErrors) {
  // `--thread 4` or `--horizen 100` typos must fail loudly, not silently
  // run with defaults. The error lists the command's real vocabulary.
  const Result thread = run_cli({"simulate", model_path_, "--thread", "4"});
  EXPECT_EQ(thread.code, 2);
  EXPECT_NE(thread.err.find("unknown flag --thread"), std::string::npos);
  EXPECT_NE(thread.err.find("--seed"), std::string::npos);  // suggests the real set

  const Result horizen = run_cli({"replicate", model_path_, "--horizen", "100"});
  EXPECT_EQ(horizen.code, 2);
  EXPECT_NE(horizen.err.find("unknown flag --horizen"), std::string::npos);

  EXPECT_EQ(run_cli({"analyze", model_path_, "--frobnicate", "1"}).code, 2);
  EXPECT_EQ(run_cli({"query", "--reach", model_path_, "exists s in S [ 1 = 1 ]",
                     "--marker", "O=1"})
                .code,
            2);  // --marker belongs to render only

  // Flagless commands advertise that.
  const Result validate = run_cli({"validate", model_path_, "--verbose"});
  EXPECT_EQ(validate.code, 2);
  EXPECT_NE(validate.err.find("takes no flags"), std::string::npos);
}

TEST_F(CliTest, SpillBudgetOverflowIsRejectedNotWrapped) {
  // value * scale near SIZE_MAX used to wrap silently to a tiny budget —
  // spilling everything instead of failing. Now it is the same usage error
  // as any other malformed budget.
  const std::string query = "exists s in S [ Bus_free(s) = 1 ]";
  for (const char* bad :
       {"99999999999999999G", "18446744073709551615K", "18446744073709551615M"}) {
    const Result q = run_cli({"query", "--reach", model_path_, query,
                              "--max-resident-bytes", bad});
    EXPECT_EQ(q.code, 2) << "--max-resident-bytes '" << bad << "'";
    EXPECT_NE(q.err.find("--max-resident-bytes"), std::string::npos) << bad;
    EXPECT_EQ(run_cli({"analyze", model_path_, "--max-resident-bytes", bad}).code, 2)
        << "analyze --max-resident-bytes '" << bad << "'";
  }
  // The largest representable budgets still parse.
  const Result fits = run_cli({"analyze", model_path_, "--max-resident-bytes",
                               "17179869183G"});  // (2^34 - 1) GiB < 2^64
  EXPECT_EQ(fits.code, 0) << fits.err;
}

TEST_F(CliTest, NegativeHorizonsAreRejected) {
  // simulate used to accept --until -5 silently (zero events, "success").
  const Result sim = run_cli({"simulate", model_path_, "--until", "-5"});
  EXPECT_EQ(sim.code, 2);
  EXPECT_NE(sim.err.find("--until"), std::string::npos);
  const Result rep = run_cli({"replicate", model_path_, "--horizon", "-5"});
  EXPECT_EQ(rep.code, 2);
  EXPECT_NE(rep.err.find("--horizon"), std::string::npos);
  // t=0 stays valid for simulate: report the initial state and stop.
  EXPECT_EQ(run_cli({"simulate", model_path_, "--until", "0"}).code, 0);
}

TEST_F(CliTest, TimeoutFlagSemantics) {
  // A pre-expired deadline: simulate/replicate/query fail cleanly with exit
  // code 1 and no partial verdict...
  const Result sim = run_cli({"simulate", model_path_, "--until", "1000", "--timeout", "0"});
  EXPECT_EQ(sim.code, 1);
  EXPECT_NE(sim.err.find("deadline exceeded"), std::string::npos) << sim.err;
  const Result query =
      run_cli({"query", "--reach", model_path_, "forall s in S [ 1 = 1 ]",
               "--timeout", "0"});
  EXPECT_EQ(query.code, 1);
  EXPECT_NE(query.err.find("deadline exceeded"), std::string::npos) << query.err;
  // ...while analyze reports the deterministic truncated prefix, honestly
  // labeled, as a successful (exit 0) report.
  const Result analyze = run_cli({"analyze", model_path_, "--timeout", "0"});
  EXPECT_EQ(analyze.code, 0) << analyze.err;
  EXPECT_NE(analyze.out.find("STOPPED at deadline"), std::string::npos) << analyze.out;
  // Malformed values are usage errors.
  const Result bad = run_cli({"simulate", model_path_, "--timeout", "-3"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--timeout"), std::string::npos) << bad.err;
  const Result nan = run_cli({"simulate", model_path_, "--timeout", "banana"});
  EXPECT_EQ(nan.code, 2);
  // A generous timeout changes nothing about a fast command's output.
  const Result plain = run_cli({"simulate", model_path_, "--until", "100", "--seed", "3"});
  const Result timed =
      run_cli({"simulate", model_path_, "--until", "100", "--seed", "3",
               "--timeout", "3600"});
  EXPECT_EQ(timed.code, plain.code);
  EXPECT_EQ(timed.out, plain.out);
}

}  // namespace
}  // namespace pnut::cli
