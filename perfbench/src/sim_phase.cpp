// Simulation phase: the paper's performance-evaluation loop.
//
// Scalar Simulator runs with a StatCollector sink over the workload's
// models, the same runs without a sink (to price the sink), and a
// single-threaded two-axis sweep with replications. Run seeds and the
// sweep's base seed derive from --seed.
//
//   pipeline  the shipped examples/models/*.pn processor models, whose
//             param/fn delays keep the expression VM on the hot path; the
//             sweep is memory latency x cache hit ratio on the unified
//             cache model (data patched per lane).
//   ring      generated race rings with no expressions: constant, uniform
//             and discrete delays and seeded conflict frequencies, so the
//             event loop runs without the VM; the sweep is hop-2 firing
//             delay x hop-1 share on a race ring (delays patched per lane).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "phases.h"
#include "expr/program.h"
#include "petri/compiled_net.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "stat/replication.h"
#include "stat/stat.h"
#include "textio/pn_format.h"
#include "trace.h"

namespace perfbench {
namespace {

using pnut::CompiledNet;
using pnut::RunStats;

constexpr std::size_t kReplications = 2;
constexpr pnut::Time kSweepHorizon = 10000;
const std::vector<double> kRatios = {0.5, 0.7, 0.8, 0.9, 0.95, 0.99};

// --- pipeline inputs ---------------------------------------------------------
const char* const kPipelineModels[] = {"pipeline_nocache", "ext_cache_dcache",
                                       "ext_cache_icache", "ext_cache_unified"};
constexpr pnut::Time kPipelineHorizon = 50000;
const std::vector<double> kMemories = {2, 5, 8, 12};
const std::vector<std::pair<std::string, std::string>> kCachePairs = {
    {"Start_prefetch_hit", "Start_prefetch_miss"},
    {"start_fetch_hit", "start_fetch_miss"},
    {"start_store_hit", "start_store_miss"}};

/// The paper's operating point (memory 5, hit ratio 0.9) at seed 1988:
/// completed Issue firings over 20000 cycles, the repository golden that
/// bench/bench_sweep.cpp also pins.
constexpr std::uint64_t kGoldenSeed = 1988;
constexpr pnut::Time kGoldenHorizon = 20000;
constexpr std::uint64_t kGoldenIssueEnds = 3317;

// --- ring inputs -------------------------------------------------------------
/// A race ring: `places` places, one token on every `spread`-th one (from a
/// seeded offset), and per place two conflicting transitions that move its
/// token one or two places on.
struct RaceRing {
  const char* name;
  std::size_t places;
  std::size_t spread;
  const char* hop1_firing;
  const char* hop2_firing;
};
const RaceRing kRingModels[] = {
    {"race_16x4", 16, 4, "uniform 1 3", "2"},
    {"race_30x3", 30, 3, "1", "discrete 1:0.5 2:0.3 5:0.2"},
    {"race_12x2", 12, 2, "uniform 1 4", "uniform 2 5"},
    {"race_24x6", 24, 6, "discrete 1:0.7 3:0.3", "3"}};
/// The sweep's ring; its hop-2 firing delay is the patched axis.
const RaceRing kRingSweep{"race_20x4", 20, 4, "uniform 1 3", "2"};
constexpr pnut::Time kRingHorizon = 40000;
const std::vector<double> kHop2Delays = {1, 2, 3, 4};

/// Sweep lanes checked against scalar runs: the operating cell's first
/// replication (memory 5 / hop-2 delay 2 at ratio 0.9), then seeded picks.
constexpr std::size_t kSampledLanes = 3;
constexpr std::size_t kOperatingCell = 1 * 6 + 3;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string hop_name(const std::string& prefix, std::size_t i, int hop) {
  return prefix + "t" + std::to_string(i) + (hop == 1 ? "a" : "b");
}

/// The .pn text of a race ring; names carry `prefix`.
std::string race_ring_source(const RaceRing& ring, const std::string& prefix,
                             std::size_t offset, double hop1_share) {
  std::ostringstream text;
  text << "net " << ring.name << '\n';
  for (std::size_t i = 0; i < ring.places; ++i) {
    text << "place " << prefix << i;
    if ((i + ring.places - offset) % ring.spread == 0) text << " init 1";
    text << '\n';
  }
  char share[32];
  char rest[32];
  std::snprintf(share, sizeof(share), "%.3f", hop1_share);
  std::snprintf(rest, sizeof(rest), "%.3f", 1 - hop1_share);
  for (std::size_t i = 0; i < ring.places; ++i) {
    for (const int hop : {1, 2}) {
      text << "trans " << hop_name(prefix, i, hop) << " in " << prefix << i << " out "
           << prefix << (i + static_cast<std::size_t>(hop)) % ring.places << " enabling 1 firing "
           << (hop == 1 ? ring.hop1_firing : ring.hop2_firing) << " freq "
           << (hop == 1 ? share : rest) << '\n';
    }
  }
  return text.str();
}

bool same_stats(const RunStats& a, const RunStats& b) {
  if (a.run_number != b.run_number || a.initial_clock != b.initial_clock ||
      a.length != b.length || a.events_started != b.events_started ||
      a.events_finished != b.events_finished ||
      a.transitions.size() != b.transitions.size() || a.places.size() != b.places.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.transitions.size(); ++i) {
    const auto& x = a.transitions[i];
    const auto& y = b.transitions[i];
    if (x.name != y.name || x.min_concurrent != y.min_concurrent ||
        x.max_concurrent != y.max_concurrent || x.avg_concurrent != y.avg_concurrent ||
        x.stddev_concurrent != y.stddev_concurrent || x.starts != y.starts ||
        x.ends != y.ends || x.throughput != y.throughput) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.places.size(); ++i) {
    const auto& x = a.places[i];
    const auto& y = b.places[i];
    if (x.name != y.name || x.min_tokens != y.min_tokens || x.max_tokens != y.max_tokens ||
        x.avg_tokens != y.avg_tokens || x.stddev_tokens != y.stddev_tokens) {
      return false;
    }
  }
  return true;
}

/// Time-averaged tokens on places plus tokens held by firing transitions
/// (every arc of a ring has weight 1): constant in a ring.
double tokens_in_ring(const RunStats& stats) {
  double tokens = 0;
  for (const auto& p : stats.places) tokens += p.avg_tokens;
  for (const auto& t : stats.transitions) tokens += t.avg_concurrent;
  return tokens;
}

/// One scalar run with a StatCollector, as the sweep's oracle.
RunStats scalar_stats(const pnut::Net& net, std::uint64_t seed, int run_number,
                      pnut::Time horizon) {
  pnut::StatCollector collector;
  collector.set_run_number(run_number);
  pnut::Simulator sim(CompiledNet::compile(net));
  sim.set_sink(&collector);
  sim.reset(seed);
  sim.run_until(horizon);
  sim.finish();
  return collector.stats();
}

struct ScalarSample {
  double with_sink_s = 0;
  double without_sink_s = 0;
  std::uint64_t events = 0;
};

class SimPhase final : public Phase {
 public:
  double setup(const PhaseContext& ctx) override;
  void step(const PhaseContext& ctx, bool record) override;
  [[nodiscard]] bool enough() const override {
    return !scalar_.empty() && scalar_.front().size() >= kMinRounds &&
           sweep_s_.size() >= kMinRounds;
  }
  void finish(const PhaseContext& ctx) override;

 private:
  static constexpr std::size_t kMinRounds = 10;
  struct Model {
    std::string name;
    std::string source;
    pnut::textio::NetDocument doc;
    std::shared_ptr<const CompiledNet> compiled;
    std::uint64_t seed = 0;
    std::size_t tokens = 0;  ///< ring models: tokens the ring conserves
  };

  void scalar_round(const PhaseContext& ctx, bool record);
  void sweep_round(const PhaseContext& ctx, bool record);
  /// The sweep model rebuilt at one grid point: what a patched sweep lane
  /// must reproduce bit for bit.
  [[nodiscard]] pnut::Net grid_point_net(double first, double ratio) const;

  Workload workload_ = Workload::kPipeline;
  /// The scalar models, then (ring) the sweep model; the pipeline sweep
  /// runs on the last scalar model.
  std::vector<Model> models_;
  std::size_t scalar_models_ = 0;
  std::string ring_prefix_;    ///< ring workload: the sweep model's name prefix
  pnut::Time horizon_ = 0;
  std::size_t steps_ = 0;
  // Samples, one per recorded round.
  std::vector<std::vector<ScalarSample>> scalar_;
  std::uint64_t round_events_ = 0;  ///< all models, one run each
  std::vector<double> sweep_s_;
  std::vector<double> summarize_s_;
  std::uint64_t sweep_events_ = 0;
  pnut::SweepResult last_sweep_;
};

double SimPhase::setup(const PhaseContext& ctx) {
  workload_ = ctx.workload;
  std::vector<Model> models;
  if (workload_ == Workload::kPipeline) {
    horizon_ = kPipelineHorizon;
    for (std::size_t i = 0; i < std::size(kPipelineModels); ++i) {
      Model m;
      m.name = kPipelineModels[i];
      m.source = read_file(ctx.root / "examples" / "models" / (m.name + ".pn"));
      models.push_back(std::move(m));
    }
  } else {
    horizon_ = kRingHorizon;
    Rng rng(mix(ctx.seed, 150));
    std::vector<RaceRing> rings(std::begin(kRingModels), std::end(kRingModels));
    rings.push_back(kRingSweep);
    for (const RaceRing& ring : rings) {
      Model m;
      m.name = ring.name;
      const std::string prefix = name_prefix("r", rng.below(100000));
      const double share = 0.3 + 0.4 * static_cast<double>(rng.below(1001)) / 1000;
      m.source = race_ring_source(ring, prefix, rng.below(ring.places), share);
      m.tokens = (ring.places + ring.spread - 1) / ring.spread;
      ring_prefix_ = prefix;
      models.push_back(std::move(m));
    }
  }
  for (std::size_t i = 0; i < models.size(); ++i) models[i].seed = mix(ctx.seed, 100 + i);

  // Timed: parse and both compiles, pinned like every single-threaded step.
  const CpuRotation pin;
  double parse_s = 0;
  double program_s = 0;
  double compile_s = 0;
  double bytes = 0;
  for (Model& m : models) {
    bytes += static_cast<double>(m.source.size());
    auto t0 = Clock::now();
    {
      trace::Span span("textio.parse_net");
      m.doc = pnut::textio::parse_net(m.source);
    }
    parse_s += seconds_since(t0);
    t0 = Clock::now();
    {
      trace::Span span("expr.NetProgram.compile");
      if (pnut::expr::NetProgram::compile(m.doc.net) == nullptr) {
        throw std::runtime_error(m.name + ": expressions do not compile to bytecode");
      }
    }
    program_s += seconds_since(t0);
    t0 = Clock::now();
    {
      trace::Span span("petri.CompiledNet.compile");
      m.compiled = CompiledNet::compile(m.doc.net);
    }
    compile_s += seconds_since(t0);
  }
  ctx.report->setup_samples["textio.parse_us"].push_back(parse_s * 1e6);
  ctx.report->setup_samples["textio.bytes"].push_back(bytes);
  ctx.report->setup_samples["expr.compile_us"].push_back(program_s * 1e6);
  ctx.report->setup_samples["petri.compile_us"].push_back(compile_s * 1e6);
  models_ = std::move(models);
  scalar_models_ = workload_ == Workload::kPipeline ? models_.size() : models_.size() - 1;
  scalar_.assign(scalar_models_, {});
  return parse_s + program_s + compile_s;
}

pnut::Net SimPhase::grid_point_net(double first, double ratio) const {
  pnut::Net net = models_.back().doc.net;
  if (workload_ == Workload::kPipeline) {
    net.initial_data().set("memory_cycles", static_cast<std::int64_t>(first));
    for (const auto& [hit, miss] : kCachePairs) {
      net.set_frequency(net.transition_named(hit), ratio);
      net.set_frequency(net.transition_named(miss), 1 - ratio);
    }
  } else {
    for (std::size_t i = 0; i < kRingSweep.places; ++i) {
      const pnut::TransitionId hop1 = net.transition_named(hop_name(ring_prefix_, i, 1));
      const pnut::TransitionId hop2 = net.transition_named(hop_name(ring_prefix_, i, 2));
      net.set_firing_time(hop2, pnut::DelaySpec::constant(static_cast<pnut::Time>(first)));
      net.set_frequency(hop1, ratio);
      net.set_frequency(hop2, 1 - ratio);
    }
  }
  return net;
}

void SimPhase::step(const PhaseContext& ctx, bool record) {
  if (steps_++ % 2 == 0) {
    scalar_round(ctx, record);
  } else {
    sweep_round(ctx, record);
  }
}

void SimPhase::scalar_round(const PhaseContext& ctx, bool record) {
  Report& report = *ctx.report;
  std::uint64_t round_events = 0;
  std::vector<ScalarSample> samples;
  for (std::size_t i = 0; i < scalar_models_; ++i) {
    const Model& m = models_[i];
    const CpuRotation pin;  // both runs of a model on the same CPU
    ScalarSample sample;
    report.attempt("sim.scalar", 2);
    {
      pnut::StatCollector collector;
      pnut::Simulator sim(m.compiled);
      sim.set_sink(&collector);
      sim.reset(m.seed);
      const auto t0 = Clock::now();
      {
        trace::Span span("sim.Simulator.run_until");
        sim.run_until(horizon_);
        sim.finish();
      }
      sample.with_sink_s = seconds_since(t0);
      sample.events = sim.total_firing_starts();
      if (collector.stats().events_started != sample.events) {
        report.fail("sim.scalar", m.name + ": StatCollector event count differs");
      }
      if (m.tokens != 0 && std::abs(tokens_in_ring(collector.stats()) -
                                    static_cast<double>(m.tokens)) > 1e-6) {
        report.fail("sim.scalar", m.name + ": time-averaged token count is not conserved");
      }
    }
    {
      pnut::Simulator sim(m.compiled);
      sim.reset(m.seed);
      const auto t0 = Clock::now();
      {
        trace::Span span("sim.Simulator.run_until");
        sim.run_until(horizon_);
        sim.finish();
      }
      sample.without_sink_s = seconds_since(t0);
      if (sim.total_firing_starts() != sample.events) {
        report.fail("sim.scalar", m.name + ": a sink changed the trajectory");
      }
    }
    round_events += sample.events;
    samples.push_back(sample);
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!scalar_[i].empty() && scalar_[i].front().events != samples[i].events) {
      report.fail("sim.scalar", models_[i].name + ": same seed, different event count");
    }
  }
  if (!record) return;
  for (std::size_t i = 0; i < samples.size(); ++i) scalar_[i].push_back(samples[i]);
  round_events_ = round_events;
}

void SimPhase::sweep_round(const PhaseContext& ctx, bool record) {
  Report& report = *ctx.report;
  // Patched per lane, never recompiled: the sweep's two axes.
  std::vector<pnut::SweepAxis> axes;
  if (workload_ == Workload::kPipeline) {
    axes = {pnut::SweepAxis::custom(
                "memory", kMemories,
                [](pnut::BatchSimulator& batch, std::size_t lane, double value) {
                  batch.patch_initial_scalar(lane, "memory_cycles",
                                             static_cast<std::int64_t>(value));
                }),
            pnut::SweepAxis::frequency_split("hit_ratio", kCachePairs, kRatios)};
  } else {
    std::vector<std::string> hop2;
    std::vector<std::pair<std::string, std::string>> pairs;
    for (std::size_t i = 0; i < kRingSweep.places; ++i) {
      hop2.push_back(hop_name(ring_prefix_, i, 2));
      pairs.emplace_back(hop_name(ring_prefix_, i, 1), hop2.back());
    }
    axes = {pnut::SweepAxis::firing_constant("hop2_firing", hop2, kHop2Delays),
            pnut::SweepAxis::frequency_split("hop1_share", pairs, kRatios)};
  }
  pnut::SweepOptions options;
  options.replications = kReplications;
  options.base_seed = ctx.seed;
  options.threads = 1;
  const pnut::MetricSpec first_throughput{
      "throughput", [](const RunStats& s) { return s.transitions.front().throughput; }};

  report.attempt("sim.sweep");
  const CpuRotation pin;  // threads = 1: the sweep starts no threads
  auto t0 = Clock::now();
  {
    trace::Span span("sim.run_sweep");
    last_sweep_ = pnut::run_sweep(models_.back().compiled, axes, kSweepHorizon, {}, options);
  }
  const double sweep_s = seconds_since(t0);
  t0 = Clock::now();
  {
    trace::Span span("stat.summarize_metric");
    for (pnut::SweepCell& cell : last_sweep_.cells) {
      cell.metrics.push_back(pnut::summarize_metric(first_throughput, cell.runs));
    }
  }
  const double summarize_s = seconds_since(t0);
  if (!record) return;
  sweep_s_.push_back(sweep_s);
  summarize_s_.push_back(summarize_s);
  sweep_events_ = 0;
  for (const pnut::SweepCell& cell : last_sweep_.cells) {
    for (const RunStats& run : cell.runs) sweep_events_ += run.events_started;
  }
}

void SimPhase::finish(const PhaseContext& ctx) {
  Report& report = *ctx.report;
  const std::size_t trajectories = last_sweep_.cells.size() * kReplications;

  // --- checks, outside the timed loop ----------------------------------------
  // Sampled sweep lanes against scalar runs of the same (seed, grid point).
  Rng pick(mix(ctx.seed, 7));
  for (std::size_t k = 0; k < kSampledLanes; ++k) {
    const std::size_t cell_index = k == 0 ? kOperatingCell : pick.below(last_sweep_.cells.size());
    const std::size_t rep = k == 0 ? 0 : pick.below(kReplications);
    const pnut::SweepCell& cell = last_sweep_.cells[cell_index];
    report.attempt("sim.check");
    const RunStats oracle =
        scalar_stats(grid_point_net(cell.coordinates[0], cell.coordinates[1]), ctx.seed + rep,
                     static_cast<int>(rep + 1), kSweepHorizon);
    if (!same_stats(oracle, cell.runs[rep])) {
      report.fail("sim.check", "sweep lane (" + std::to_string(cell.coordinates[0]) + ", " +
                                   std::to_string(cell.coordinates[1]) + ", rep " +
                                   std::to_string(rep) + ") differs from the scalar Simulator");
    }
  }
  if (workload_ == Workload::kPipeline) {
    // The paper's operating point at the golden seed, whatever --seed is.
    report.attempt("sim.check");
    const RunStats golden = scalar_stats(grid_point_net(5, 0.9), kGoldenSeed, 1, kGoldenHorizon);
    const std::uint64_t issue_ends = golden.transition("Issue").ends;
    if (issue_ends != kGoldenIssueEnds) {
      report.fail("sim.check", "operating point Issue ends " + std::to_string(issue_ends) +
                                   ", golden " + std::to_string(kGoldenIssueEnds));
    }
  }

  // --- metrics -----------------------------------------------------------------
  std::vector<double> sweep_total_s;
  for (std::size_t i = 0; i < sweep_s_.size(); ++i) {
    sweep_total_s.push_back(sweep_s_[i] + summarize_s_[i]);
  }
  // One fastest-decile time per model; the sink's price is the difference
  // between the same seeded runs with and without it.
  double fast_round_s = 0;
  double fast_plain_s = 0;
  for (const auto& runs : scalar_) {
    std::vector<double> run_s;
    std::vector<double> plain_s;
    for (const ScalarSample& s : runs) {
      run_s.push_back(s.with_sink_s);
      plain_s.push_back(s.without_sink_s);
    }
    fast_round_s += fastest_decile(run_s);
    fast_plain_s += fastest_decile(plain_s);
  }
  report.end_to_end["sim_events_per_s"] = {static_cast<double>(round_events_) / fast_round_s,
                                           "1/s"};
  report.end_to_end["sweep_trajectories_per_s"] = {
      static_cast<double>(trajectories) / fastest_decile(sweep_total_s), "1/s"};
  report.samples["sim_events_per_s"] = scalar_.front().size();
  report.samples["sweep_trajectories_per_s"] = sweep_total_s.size();

  // Per model, by position: the workloads' models differ, the names do not.
  for (std::size_t i = 0; i < scalar_.size(); ++i) {
    std::vector<double> run_s;
    for (const ScalarSample& s : scalar_[i]) run_s.push_back(s.with_sink_s);
    const double events = static_cast<double>(scalar_[i].front().events);
    const std::string key = "model" + std::to_string(i);
    report.per_layer["sim.scalar.run_s." + key] = {fastest_decile(run_s), "s"};
    report.per_layer["sim.scalar.events." + key] = {events, "count"};
    report.per_layer["sim.scalar.ns_per_event." + key] = {
        fastest_decile(run_s) / events * 1e9, "ns"};
  }
  report.per_layer["stat.sink_ns_per_event"] = {
      (fast_round_s - fast_plain_s) / static_cast<double>(round_events_) * 1e9, "ns"};
  report.per_layer["sim.batch.run_s"] = {fastest_decile(sweep_s_), "s"};
  report.per_layer["sim.batch.lanes"] = {static_cast<double>(trajectories), "count"};
  report.per_layer["sim.batch.ns_per_event"] = {
      fastest_decile(sweep_s_) / static_cast<double>(sweep_events_) * 1e9, "ns"};
  report.per_layer["stat.summarize_us"] = {fastest_decile(summarize_s_) * 1e6, "us"};
}

}  // namespace

std::unique_ptr<Phase> make_sim_phase() { return std::make_unique<SimPhase>(); }

}  // namespace perfbench
