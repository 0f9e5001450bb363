// perfbench: one seeded benchmark run of pnut.
//
//   perfbench --workload pipeline|ring --seed N --seconds T
//             --trace 0|1 --root CHECKOUT --work DIR [--trace-out FILE]
//
// Every workload runs the three phases (simulation, exploration, serving)
// for an equal share of the T measured seconds, so every end-to-end metric
// is reported on every workload; the workload chooses the inputs each phase
// measures (common.h). Set-up (input generation, parse/compile, warming
// the serve hot set) is repeated; the fastest decile of its deterministic
// part is reported as setup_s. Outputs are checked after the timed loop; a
// mismatch is a failed operation and makes the exit code nonzero.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same pass
// with span recording on, prints the per-layer metrics, writes the spans to
// --trace-out, and reports the tracing overhead as the measured cost of one
// span times the number of spans, as a share of the pass's wall time.
//
// The last line of stdout is the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "phases.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  Workload kind = Workload::kPipeline;
  std::uint64_t seed = 1988;
  double seconds = 45;
  bool trace = false;
  std::filesystem::path root = ".";
  std::filesystem::path work;
  std::string trace_out;
};

bool parse_workload(const std::string& name, Workload& out) {
  if (name == "pipeline") out = Workload::kPipeline;
  else if (name == "ring") out = Workload::kRing;
  else return false;
  return true;
}

std::vector<std::unique_ptr<Phase>> make_phases() {
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(make_sim_phase());
  phases.push_back(make_explore_phase());
  phases.push_back(make_serve_phase());
  return phases;
}

constexpr int kSetupRepetitions = 20;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Pass {
  Report report;
  std::vector<trace::SpanRecord> spans;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One pass over the workload: timed set-ups, one warm-up step per phase,
/// then the interleaved measured steps, then each phase's checks and
/// metrics.
void run_pass(const Options& opt, bool traced, Pass& pass) {
  trace::set_enabled(traced);
  pass.start_ns = trace::now_ns();
  PhaseContext ctx;
  ctx.workload = opt.kind;
  ctx.seed = opt.seed;
  ctx.root = opt.root;
  ctx.work = opt.work;
  ctx.report = &pass.report;
  std::filesystem::create_directories(ctx.work);

  std::vector<std::unique_ptr<Phase>> phases = make_phases();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    trace::Span span("bench.setup");
    double timed_s = 0;
    for (const auto& phase : phases) timed_s += phase->setup(ctx);
    setup_s.push_back(timed_s);
  }
  pass.report.end_to_end["setup_s"] = {fastest_decile(setup_s), "s"};
  pass.report.samples["setup_s"] = setup_s.size();
  for (const auto& [name, values] : pass.report.setup_samples) {
    pass.report.per_layer[name] = {fastest_decile(values), name == "textio.bytes" ? "B" : "us"};
  }

  for (const auto& phase : phases) {
    trace::Span span("bench.warmup");
    phase->step(ctx, false);
  }
  // Next step goes to the phase with the least time spent so far; once the
  // time is up, only phases still short of their minimum samples run, for
  // at most 20 s more, so a slow host stays inside the run's time limit.
  std::vector<double> spent(phases.size(), 0.0);
  const auto start = Clock::now();
  while (true) {
    const double elapsed = seconds_since(start);
    if (elapsed > opt.seconds + 20) break;
    std::size_t next = phases.size();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      if (elapsed >= opt.seconds && phases[i]->enough()) continue;
      if (next == phases.size() || spent[i] < spent[next]) next = i;
    }
    if (next == phases.size()) break;
    trace::Span span("bench.step");
    const auto t0 = Clock::now();
    phases[next]->step(ctx, true);
    spent[next] += seconds_since(t0);
  }
  // The workload's own peak, before the checks build their oracles and
  // full-size golden graphs.
  pass.report.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  for (const auto& phase : phases) {
    trace::Span span("bench.finish");
    phase->finish(ctx);
  }
  pass.end_ns = trace::now_ns();
  trace::set_enabled(false);
  pass.spans = trace::collect();
}

/// Append `metrics` as a JSON object; returns how many values were not
/// finite (written as 0 and counted as failures by the caller).
std::uint64_t json_metrics(std::string& out, const std::map<std::string, Metric>& metrics) {
  std::uint64_t bad = 0;
  out += "{";
  for (const auto& [name, m] : metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      std::printf("FAILED metric %s is not finite\n", name.c_str());
      ++bad;
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (out.size() == 1 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}";
  return bad;
}

/// Per-layer metrics of the traced pass, plus what only its spans can
/// tell: tracing overhead, unattributed wall time, self time per layer.
std::map<std::string, Metric> traced_metrics(Pass& traced, const std::string& trace_out) {
  std::map<std::string, Metric> metrics = traced.report.per_layer;
  const double wall_ns = static_cast<double>(traced.end_ns - traced.start_ns);
  const double span_ns = trace::span_cost_ns();
  metrics["trace.span_cost_ns"] = {span_ns, "ns"};
  metrics["trace.overhead_share"] = {
      span_ns * static_cast<double>(traced.spans.size()) / wall_ns, "ratio"};
  metrics["trace.unattributed_share"] = {
      trace::unattributed_share(traced.spans, traced.start_ns, traced.end_ns), "ratio"};
  const std::vector<trace::LayerTime> layers = trace::self_times(traced.spans);
  double total_self = 0;
  for (const trace::LayerTime& l : layers) total_self += l.self_s;
  std::printf("layer self time (traced pass, %zu spans)\n", traced.spans.size());
  for (const trace::LayerTime& l : layers) {
    std::printf("  %-10s %10.4f s  %6.2f%%  %zu spans\n", l.layer.c_str(), l.self_s,
                100 * l.self_s / total_self, l.spans);
    metrics["self_share." + l.layer] = {l.self_s / total_self, "ratio"};
  }
  if (!trace_out.empty()) {
    if (trace::write_jsonl(trace_out, traced.spans)) {
      std::printf("spans written to %s\n", trace_out.c_str());
    } else {
      traced.report.attempt("bench");
      traced.report.fail("bench", "cannot write " + trace_out);
    }
  }
  return metrics;
}

int run(const Options& opt) {
  Pass pass;
  run_pass(opt, opt.trace, pass);
  const std::map<std::string, Metric> metrics =
      opt.trace ? traced_metrics(pass, opt.trace_out) : pass.report.end_to_end;
  const std::vector<const Report*> reports = {&pass.report};

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Report* r : reports) {
    for (const auto& [op_class, n] : r->ops()) {
      attempted += n.attempted;
      failed += n.failed;
      std::printf("ops %-16s attempted %8llu  failed %llu\n", op_class.c_str(),
                  static_cast<unsigned long long>(n.attempted),
                  static_cast<unsigned long long>(n.failed));
    }
    for (const std::string& why : r->failures()) std::printf("FAILED %s\n", why.c_str());
    for (const auto& [name, n] : r->samples) {
      std::printf("samples %-28s %zu\n", name.c_str(), n);
    }
  }
  std::string json;
  failed += json_metrics(json, metrics);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool usage_error = argc % 2 == 0;  // flags come in pairs
  for (int i = 1; !usage_error && i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--root") opt.root = value;
    else if (flag == "--work") opt.work = value;
    else if (flag == "--trace-out") opt.trace_out = value;
    else usage_error = true;
  }
  if (usage_error || !perfbench::parse_workload(opt.workload, opt.kind) || opt.work.empty() ||
      !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds T --trace 0|1 "
                 "--root DIR --work DIR [--trace-out FILE]\n");
    return 2;
  }
  std::printf("perfbench build: compiler %s, build type %s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
