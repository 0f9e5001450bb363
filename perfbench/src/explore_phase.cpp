// Exploration phase: verification by state-space construction.
//
// Timed steps cycle through five builds of the workload's two exploration
// models: the untimed model at 1 thread, at min(4, nproc) threads, and at
// 1 thread under a fixed resident budget so spilling engages; the timed
// model at 1 and min(4, nproc) threads.
//
//   pipeline  untimed: the Figure 4 interpreted pipeline (the bytecode data
//             path); timed: the shipped unified-cache model with its
//             memory timing as constants (hit 1, miss 5 cycles), the
//             timing check the paper's designer would run. Both are small,
//             so a step builds each several times. The seed does not
//             change these fixed models.
//   ring      untimed: a 24-place, 5-token stress ring; timed: a 15-place
//             race ring (about a tenth of a second each). The seed only
//             rotates and renames places, so every count is
//             seed-independent.
//
// The parallel and spilled builds must hash identical to the 1-thread
// build, and every build must match its frozen counts. After the timed
// loop (and after main() has read the peak RSS), the full-size instances
// of bench/reach_models.h (38x5 ring, 12x3 race ring) are built once on
// either workload and checked against the goldens there.
#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench/reach_models.h"
#include "phases.h"
#include "analysis/reachability.h"
#include "analysis/timed_reachability.h"
#include "petri/compiled_net.h"
#include "pipeline/interpreted.h"
#include "textio/pn_format.h"
#include "trace.h"

namespace perfbench {
namespace {

using pnut::CompiledNet;
using pnut::analysis::ReachabilityGraph;
using pnut::analysis::TimedReachabilityGraph;
using Golden = pnut::reach_models::Golden;

/// The ring workload's instances. The ring's counts follow from its shape:
/// every way to put 5 tokens on 24 places, C(28, 5) states, and one edge
/// per nonempty place, 24 * C(27, 4) edges. The race ring's were frozen
/// from the sequential timed builder.
constexpr std::size_t kRingPlaces = 24;
constexpr pnut::TokenCount kRingTokens = 5;
constexpr Golden kRing24x5{98'280, 421'200, 0};
constexpr std::size_t kRacePlaces = 15;
constexpr std::size_t kRaceSpread = 5;
constexpr Golden kRace15x5{63'985, 107'735, 0};
/// The pipeline workload's timed instance, frozen from the sequential timed
/// builder like the race ring's.
constexpr Golden kUnifiedTimed{7'493, 10'673, 0};

/// Per-workload spill set-up: a resident budget well under the graph's
/// size, in segments small enough for several to spill.
struct SpillConfig {
  std::size_t budget;
  std::size_t segment;
};
constexpr SpillConfig kRingSpill{std::size_t{4} << 20, std::size_t{512} << 10};
constexpr SpillConfig kPipelineSpill{std::size_t{512} << 10, std::size_t{64} << 10};
/// Builds per step: the pipeline's models take milliseconds, the ring's
/// about a tenth of a second.
constexpr std::size_t kPipelineBuildsPerStep = 10;
constexpr std::size_t kMinBuilds = 8;

/// The unified-cache model with its access_cycles(hit) delays as constants
/// (hit 1, miss 5 cycles, the shipped params): no expressions left, so the
/// timed builder accepts it.
std::string constant_timing(std::string source) {
  const auto replace_all = [&](const std::string& from, const std::string& to) {
    for (std::size_t at = source.find(from); at != std::string::npos;
         at = source.find(from, at + to.size())) {
      source.replace(at, from.size(), to);
    }
  };
  replace_all("enabling expr \"access_cycles(1)\"", "enabling 1");
  replace_all("enabling expr \"access_cycles(0)\"", "enabling 5");
  std::string out;
  std::istringstream lines(source);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("fn ", 0) == 0 || line.rfind("param ", 0) == 0) continue;
    out += line;
    out += '\n';
  }
  return out;
}

unsigned parallel_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

/// reach_models::stress_ring with places renamed and the token pile moved
/// to a seed-chosen place: the same graph up to relabeling.
pnut::Net seeded_stress_ring(std::size_t places, pnut::TokenCount tokens,
                             std::uint64_t seed) {
  pnut::Net net("stress_ring");
  const std::string prefix = name_prefix("q", seed % 100000);
  const std::size_t start = seed % places;
  std::vector<pnut::PlaceId> ps;
  for (std::size_t i = 0; i < places; ++i) {
    ps.push_back(net.add_place(prefix + std::to_string(i), i == start ? tokens : 0));
  }
  for (std::size_t i = 0; i < places; ++i) {
    const pnut::TransitionId t = net.add_transition(name_prefix("t", i));
    net.add_input(t, ps[i]);
    net.add_output(t, ps[(i + 1) % places]);
  }
  return net;
}

/// reach_models::timed_race_ring with its token pattern rotated by a
/// seed-chosen offset and places renamed.
pnut::Net seeded_timed_race_ring(std::size_t places, std::size_t spread,
                                 std::uint64_t seed) {
  pnut::Net net("timed_race_ring");
  const std::string prefix = name_prefix("q", seed % 100000);
  const std::size_t offset = seed % places;
  std::vector<pnut::PlaceId> ps;
  for (std::size_t i = 0; i < places; ++i) {
    const std::size_t base = (i + places - offset) % places;
    ps.push_back(net.add_place(prefix + std::to_string(i), base % spread == 0 ? 1 : 0));
  }
  for (std::size_t i = 0; i < places; ++i) {
    for (const std::size_t hop : {std::size_t{1}, std::size_t{2}}) {
      const pnut::TransitionId t =
          net.add_transition(name_prefix("t", i) + std::to_string(hop));
      net.add_input(t, ps[i]);
      net.add_output(t, ps[(i + hop) % places]);
      net.set_enabling_time(t, pnut::DelaySpec::constant(1));
      net.set_firing_time(t, pnut::DelaySpec::constant(static_cast<pnut::Time>(hop)));
    }
  }
  return net;
}

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) { h = (h ^ word) * 0x100000001b3ULL; }
};

/// Hash of every state's marking and every edge, through public accessors.
std::uint64_t graph_hash(const ReachabilityGraph& g) {
  Hasher hash;
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    for (const pnut::TokenCount tokens : g.tokens(s)) hash.add(tokens);
    for (const ReachabilityGraph::Edge& e : g.edges(s)) {
      hash.add(e.transition.value);
      hash.add(e.target);
    }
  }
  return hash.h;
}

std::uint64_t graph_hash(const TimedReachabilityGraph& g) {
  Hasher hash;
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    for (const std::uint32_t word : g.state_words(s)) hash.add(word);
    hash.add(g.earliest_time(s));
    for (const TimedReachabilityGraph::Edge& e : g.edges(s)) {
      hash.add(e.transition ? e.transition->value : 0xffffffffULL);
      hash.add(e.target);
    }
  }
  return hash.h;
}

std::size_t count_edges(const TimedReachabilityGraph& g) {
  std::size_t edges = 0;
  for (std::size_t s = 0; s < g.num_states(); ++s) edges += g.edges(s).size();
  return edges;
}

/// Samples of one kind of build.
struct Series {
  std::vector<double> build_s;
  std::size_t states = 0;
  std::size_t edges = 0;
  std::size_t memory_bytes = 0;
  std::size_t spilled_bytes = 0;
  std::size_t peak_resident_bytes = 0;
};

class ExplorePhase final : public Phase {
 public:
  double setup(const PhaseContext& ctx) override;
  void step(const PhaseContext& ctx, bool record) override;
  [[nodiscard]] bool enough() const override {
    return reach1_.build_s.size() >= kMinBuilds && reachN_.build_s.size() >= kMinBuilds &&
           spill_.build_s.size() >= kMinBuilds && timed1_.build_s.size() >= kMinBuilds &&
           timedN_.build_s.size() >= kMinBuilds;
  }
  void finish(const PhaseContext& ctx) override;

 private:
  std::uint64_t untimed(const PhaseContext& ctx, const std::shared_ptr<const CompiledNet>& net,
                        unsigned threads, bool spilled, const Golden& want, Series* series,
                        const char* what);
  std::uint64_t timed(const PhaseContext& ctx, const std::shared_ptr<const CompiledNet>& net,
                      unsigned threads, const Golden& want, Series* series, const char* what);
  void expect_hash(const PhaseContext& ctx, std::uint64_t& reference, std::uint64_t hash,
                   const char* what);

  unsigned threads_ = parallel_threads();
  std::size_t builds_per_step_ = 1;
  SpillConfig spill_config_{};
  std::shared_ptr<const CompiledNet> untimed_net_;
  std::shared_ptr<const CompiledNet> timed_net_;
  Golden untimed_golden_{};
  Golden timed_golden_{};
  std::shared_ptr<const CompiledNet> ring_golden_;
  std::shared_ptr<const CompiledNet> race_golden_;
  std::size_t steps_ = 0;
  std::uint64_t untimed_hash_ = 0;
  std::uint64_t timed_hash_ = 0;
  Series reach1_;
  Series reachN_;
  Series spill_;
  Series timed1_;
  Series timedN_;
};

double ExplorePhase::setup(const PhaseContext& ctx) {
  const std::uint64_t seed = mix(ctx.seed, 200);
  const pnut::Net ring_golden = seeded_stress_ring(38, 5, seed);
  const pnut::Net race_golden = seeded_timed_race_ring(12, 3, seed);
  std::string unified_source;
  if (ctx.workload == Workload::kPipeline) {
    std::ifstream in(ctx.root / "examples" / "models" / "ext_cache_unified.pn",
                     std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in) throw std::runtime_error("cannot read ext_cache_unified.pn");
    unified_source = constant_timing(text.str());
  }
  // Timed: building and compiling the nets, pinned.
  const CpuRotation pin;
  const auto t0 = Clock::now();
  if (ctx.workload == Workload::kPipeline) {
    builds_per_step_ = kPipelineBuildsPerStep;
    spill_config_ = kPipelineSpill;
    untimed_golden_ = pnut::reach_models::kFig4Interpreted;
    timed_golden_ = kUnifiedTimed;
    const pnut::Net fig4 = pnut::pipeline::build_interpreted_pipeline();
    pnut::textio::NetDocument unified;
    {
      trace::Span span("textio.parse_net");
      unified = pnut::textio::parse_net(unified_source);
    }
    trace::Span span("petri.CompiledNet.compile");
    untimed_net_ = CompiledNet::compile(fig4);
    timed_net_ = CompiledNet::compile(unified.net);
  } else {
    builds_per_step_ = 1;
    spill_config_ = kRingSpill;
    untimed_golden_ = kRing24x5;
    timed_golden_ = kRace15x5;
    const pnut::Net ring = seeded_stress_ring(kRingPlaces, kRingTokens, seed);
    const pnut::Net race = seeded_timed_race_ring(kRacePlaces, kRaceSpread, seed);
    trace::Span span("petri.CompiledNet.compile");
    untimed_net_ = CompiledNet::compile(ring);
    timed_net_ = CompiledNet::compile(race);
  }
  const double setup_s = seconds_since(t0);
  ring_golden_ = CompiledNet::compile(ring_golden);
  race_golden_ = CompiledNet::compile(race_golden);
  return setup_s;
}

std::uint64_t ExplorePhase::untimed(const PhaseContext& ctx,
                                    const std::shared_ptr<const CompiledNet>& net,
                                    unsigned threads, bool spilled, const Golden& want,
                                    Series* series, const char* what) {
  Report& report = *ctx.report;
  pnut::analysis::ReachOptions options;
  options.max_states = 1'000'000;
  options.threads = threads;
  if (spilled) {
    options.spill.max_resident_bytes = spill_config_.budget;
    options.spill.segment_bytes = spill_config_.segment;
    options.spill.dir = (ctx.work / "spill").string();
    std::filesystem::create_directories(options.spill.dir);
  }
  report.attempt("explore.reach");
  std::optional<CpuRotation> pin;  // the 1-thread builders start no threads
  if (threads == 1) pin.emplace();
  const auto t0 = Clock::now();
  std::unique_ptr<ReachabilityGraph> g;
  {
    trace::Span span("analysis.ReachabilityGraph");
    g = std::make_unique<ReachabilityGraph>(net, options);
  }
  const double build_s = seconds_since(t0);
  if (g->status() != pnut::analysis::ReachStatus::kComplete ||
      g->num_states() != want.states || g->num_edges() != want.edges ||
      g->deadlock_states().size() != want.deadlocks) {
    report.fail("explore.reach", std::string(what) + ": counts differ from the golden");
  }
  if (spilled && !g->spill_engaged()) report.fail("explore.reach", "spill did not engage");
  if (series != nullptr) {
    series->build_s.push_back(build_s);
    series->states = g->num_states();
    series->edges = g->num_edges();
    series->memory_bytes = g->memory_bytes();
    series->spilled_bytes = g->spilled_bytes();
    series->peak_resident_bytes = g->peak_resident_bytes();
  }
  return graph_hash(*g);
}

std::uint64_t ExplorePhase::timed(const PhaseContext& ctx,
                                  const std::shared_ptr<const CompiledNet>& net,
                                  unsigned threads, const Golden& want, Series* series,
                                  const char* what) {
  Report& report = *ctx.report;
  pnut::analysis::TimedReachOptions options;
  options.max_states = 1'000'000;
  options.max_time = 1'000'000;
  options.threads = threads;
  report.attempt("explore.timed");
  std::optional<CpuRotation> pin;
  if (threads == 1) pin.emplace();
  const auto t0 = Clock::now();
  std::unique_ptr<TimedReachabilityGraph> g;
  {
    trace::Span span("analysis.TimedReachabilityGraph");
    g = std::make_unique<TimedReachabilityGraph>(net, options);
  }
  const double build_s = seconds_since(t0);
  const std::size_t edges = count_edges(*g);
  if (g->status() != pnut::analysis::TimedReachStatus::kComplete ||
      g->num_states() != want.states || edges != want.edges ||
      g->deadlock_states().size() != want.deadlocks) {
    report.fail("explore.timed", std::string(what) + ": counts differ from the golden (" +
                                     std::to_string(g->num_states()) + " states, " +
                                     std::to_string(edges) + " edges)");
  }
  if (series != nullptr) {
    series->build_s.push_back(build_s);
    series->states = g->num_states();
    series->edges = edges;
    series->memory_bytes = g->memory_bytes();
  }
  return graph_hash(*g);
}

void ExplorePhase::expect_hash(const PhaseContext& ctx, std::uint64_t& reference,
                               std::uint64_t hash, const char* what) {
  if (reference == 0) {
    reference = hash;
  } else if (hash != reference) {
    ctx.report->fail("explore.check", std::string(what) + " differs from the 1-thread build");
  }
}

void ExplorePhase::step(const PhaseContext& ctx, bool record) {
  const auto keep = [&](Series& s) { return record ? &s : nullptr; };
  const std::size_t kind = steps_++ % 5;
  for (std::size_t i = 0; i < builds_per_step_; ++i) {
    switch (kind) {
      case 0:
        expect_hash(ctx, untimed_hash_,
                    untimed(ctx, untimed_net_, 1, false, untimed_golden_, keep(reach1_),
                            "untimed model"),
                    "untimed model");
        break;
      case 1:
        expect_hash(ctx, untimed_hash_,
                    untimed(ctx, untimed_net_, threads_, false, untimed_golden_, keep(reachN_),
                            "untimed model"),
                    "parallel untimed model");
        break;
      case 2:
        expect_hash(ctx, untimed_hash_,
                    untimed(ctx, untimed_net_, 1, true, untimed_golden_, keep(spill_),
                            "spilled untimed model"),
                    "spilled untimed model");
        break;
      case 3:
        expect_hash(ctx, timed_hash_,
                    timed(ctx, timed_net_, 1, timed_golden_, keep(timed1_), "timed model"),
                    "timed model");
        break;
      default:
        expect_hash(ctx, timed_hash_,
                    timed(ctx, timed_net_, threads_, timed_golden_, keep(timedN_),
                          "timed model"),
                    "parallel timed model");
        break;
    }
  }
}

void ExplorePhase::finish(const PhaseContext& ctx) {
  Report& report = *ctx.report;
  // Full-size instances against the frozen goldens, outside the timed loop.
  Series ring_golden;
  Series race_golden;
  untimed(ctx, ring_golden_, 1, false, pnut::reach_models::kStressRing38x5, &ring_golden,
          "stress ring 38x5");
  timed(ctx, race_golden_, 1, pnut::reach_models::kTimedRaceRing12x3, &race_golden,
        "timed race ring 12x3");

  const auto rate = [](const Series& s) {
    return static_cast<double>(s.states) / fastest_decile(s.build_s);
  };
  report.end_to_end["reach_states_per_s"] = {rate(reach1_), "1/s"};
  report.end_to_end["spill_states_per_s"] = {rate(spill_), "1/s"};
  report.end_to_end["timed_states_per_s"] = {rate(timed1_), "1/s"};
  // The parallel builds need all four vCPUs of a shared host at once, and
  // their rates swung by more than half from run to run under neighbour
  // load, so they are layer figures only (see perfbench/README.md).
  report.per_layer["analysis.reach.states_per_s.par"] = {rate(reachN_), "1/s"};
  report.per_layer["analysis.timed.states_per_s.par"] = {rate(timedN_), "1/s"};
  report.samples["reach_states_per_s"] = reach1_.build_s.size();
  report.samples["analysis.reach.states_per_s.par"] = reachN_.build_s.size();
  report.samples["spill_states_per_s"] = spill_.build_s.size();
  report.samples["timed_states_per_s"] = timed1_.build_s.size();
  report.samples["analysis.timed.states_per_s.par"] = timedN_.build_s.size();

  // Keys name the build, not the model: the models differ by workload.
  const auto reach_layer = [&](const std::string& key, const Series& s) {
    report.per_layer["analysis.reach.build_s." + key] = {fastest_decile(s.build_s), "s"};
    report.per_layer["analysis.reach.states." + key] = {static_cast<double>(s.states), "count"};
    report.per_layer["analysis.reach.edges." + key] = {static_cast<double>(s.edges), "count"};
    report.per_layer["analysis.reach.bytes_per_state." + key] = {
        static_cast<double>(s.memory_bytes) / static_cast<double>(s.states), "B"};
  };
  reach_layer("t1", reach1_);
  reach_layer("par", reachN_);
  report.per_layer["analysis.reach.bytes_per_state.ring_38x5"] = {
      static_cast<double>(ring_golden.memory_bytes) / static_cast<double>(ring_golden.states),
      "B"};
  const auto timed_layer = [&](const std::string& key, const Series& s) {
    report.per_layer["analysis.timed.build_s." + key] = {fastest_decile(s.build_s), "s"};
    report.per_layer["analysis.timed.states." + key] = {static_cast<double>(s.states), "count"};
    report.per_layer["analysis.timed.bytes_per_state." + key] = {
        static_cast<double>(s.memory_bytes) / static_cast<double>(s.states), "B"};
  };
  timed_layer("t1", timed1_);
  timed_layer("par", timedN_);
  report.per_layer["analysis.timed.bytes_per_state.race_12x3"] = {
      static_cast<double>(race_golden.memory_bytes) / static_cast<double>(race_golden.states),
      "B"};
  report.per_layer["analysis.reach.par_efficiency"] = {
      fastest_decile(reach1_.build_s) / fastest_decile(reachN_.build_s) / threads_, "ratio"};
  report.per_layer["analysis.timed.par_efficiency"] = {
      fastest_decile(timed1_.build_s) / fastest_decile(timedN_.build_s) / threads_, "ratio"};
  report.per_layer["analysis.spill.spilled_bytes"] = {static_cast<double>(spill_.spilled_bytes),
                                                      "B"};
  report.per_layer["analysis.spill.peak_resident_bytes"] = {
      static_cast<double>(spill_.peak_resident_bytes), "B"};
  report.per_layer["analysis.spill.build_s"] = {fastest_decile(spill_.build_s), "s"};
  report.per_layer["analysis.threads"] = {static_cast<double>(threads_), "count"};
}

}  // namespace

std::unique_ptr<Phase> make_explore_phase() { return std::make_unique<ExplorePhase>(); }

}  // namespace perfbench
