// Shared vocabulary of the perfbench phases: clocks, seeded randomness,
// order statistics, and the Report every phase fills in.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the one mixing function every generated input is derived
/// from, so a (seed, salt) pair always names the same input.
inline std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return mix(state_++, 0x5eed); }
  /// Uniform in [0, n), up to a negligible modulo bias.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// `letter`, `n`, then '_': the prefix of a generated place name.
inline std::string name_prefix(const char* letter, std::uint64_t n) {
  std::string prefix(letter);
  prefix += std::to_string(n);
  prefix += '_';
  return prefix;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The time estimate for repeated identical work: the fastest decile of
/// its step times. The host this benchmark was tuned on is a 4-vCPU VM
/// sharing its cores with other tenants; at any moment some vCPUs run the
/// same code up to 2x slower than others, for stretches of seconds, so how
/// much of a run lands on slow vCPUs moves a run's median by 10-40%. The
/// fast end of the distribution, sampled across every vCPU (CpuRotation),
/// tracks the program's own cost.
inline double fastest_decile(std::vector<double> values) { return percentile(values, 0.1); }

/// Pins the calling thread to one CPU for the object's lifetime, the next
/// CPU of the process's affinity mask each time, then restores the mask.
/// Single-threaded measured work runs under one, so its samples come from
/// every vCPU and one slow vCPU cannot set a whole run's figure. Only for
/// code that starts no threads: a thread started under it would inherit
/// the one-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count < 2) return;
    static std::atomic<unsigned> next{0};
    const int target = static_cast<int>(next.fetch_add(1) % static_cast<unsigned>(count));
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) && seen++ == target) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CpuRotation() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything one workload run measured and checked. Phases on several
/// threads record operations, so those entry points lock.
class Report {
 public:
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Sample count behind each timing metric (stated next to the result).
  std::map<std::string, std::size_t> samples;
  /// Per-layer set-up costs, one value per set-up repetition; main() turns
  /// each into a median per_layer metric.
  std::map<std::string, std::vector<double>> setup_samples;

  void attempt(const std::string& op_class, std::uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    ops_[op_class].attempted += n;
  }
  /// A failed operation: nonzero code, refusal, or a check mismatch.
  void fail(const std::string& op_class, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++ops_[op_class].failed;
    if (failures_.size() < 20) failures_.push_back(op_class + ": " + why);
  }
  [[nodiscard]] std::map<std::string, OpCount> ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }
  [[nodiscard]] std::vector<std::string> failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpCount> ops_;
  std::vector<std::string> failures_;
};

/// The benchmark's workloads. Both run every phase; they differ in the
/// inputs, so the same metric measures different code on each:
///   kPipeline  the paper's processor models (examples/models/*.pn and the
///              Figure 4 interpreted pipeline): data, param/fn delays and
///              the expression VM on every hot path;
///   kRing      generated token rings with no data or expressions: the bare
///              token game, state store and, for serving, large graphs.
enum class Workload { kPipeline, kRing };

/// What every phase gets: the workload, its inputs' seed, where the
/// shipped models live, where it may write, and the report it fills.
struct PhaseContext {
  Workload workload = Workload::kPipeline;
  std::uint64_t seed = 0;
  std::filesystem::path root;  ///< repository checkout (examples/models)
  std::filesystem::path work;  ///< work directory inside the checkout
  Report* report = nullptr;
};

}  // namespace perfbench
