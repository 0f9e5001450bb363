// The three measurement phases. Every workload runs all three, so every
// end-to-end metric is reported on every workload; the workload chooses the
// inputs each phase measures (see common.h), and each phase gets an equal
// share of the run.
//
// main() drives a phase in four steps:
//   setup   input generation, parse and compile, and for serving, warming
//           the hot set; repeated, and returns the seconds of its
//           deterministic part (parse, compile, warm calls; no file writes
//           or server start-up), which main() reports as setup_s;
//   step    one short unit of measured work (one simulator round, one graph
//           build, one serving burst). main() interleaves the steps of all
//           phases across the run, so slow drift of the host spreads over
//           every metric instead of landing on one;
//   enough  whether every metric of the phase has its minimum sample count;
//   finish  output checks outside the timed loop, then the metrics.
#pragma once

#include <memory>

#include "common.h"

namespace perfbench {

class Phase {
 public:
  virtual ~Phase() = default;
  [[nodiscard]] virtual double setup(const PhaseContext& ctx) = 0;
  /// `record` false runs the step as a warm-up and keeps no samples.
  virtual void step(const PhaseContext& ctx, bool record) = 0;
  [[nodiscard]] virtual bool enough() const = 0;
  virtual void finish(const PhaseContext& ctx) = 0;
};

std::unique_ptr<Phase> make_sim_phase();
std::unique_ptr<Phase> make_explore_phase();
std::unique_ptr<Phase> make_serve_phase();

}  // namespace perfbench
