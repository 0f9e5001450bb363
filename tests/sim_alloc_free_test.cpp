// The scalar event loop performs no heap allocation in steady state.
//
// This binary replaces the global operator new with a counting one, warms a
// Simulator up (its event queue, ready set, trace event and VM scratch grow
// to their high-water capacity), then asserts that a further run_until —
// with a StatCollector attached, so every Start/End/Atomic delta is built
// and delivered — allocates nothing, with or without a TraceFilter (the
// `simulate --keep` path) between the simulator and the collector. It lives
// in its own binary because the replacement is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "../bench/reach_models.h"
#include "analysis/timed_reachability.h"
#include "sim/simulator.h"
#include "stat/stat.h"
#include "textio/pn_format.h"
#include "trace/filter.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pnut {
namespace {

constexpr Time kWarmUp = 20'000;
constexpr Time kMeasured = 20'000;

/// Allocations made by run_until over [kWarmUp, kWarmUp + kMeasured] after
/// a warm-up run to kWarmUp; also returns the events processed there. With
/// `keep_place`, a TraceFilter keeping that place feeds the collector.
std::uint64_t steady_state_allocations(const Net& net, std::uint64_t seed,
                                       std::uint64_t* starts_measured,
                                       const char* keep_place = nullptr) {
  StatCollector stats;
  TraceFilter filter(net, stats);
  Simulator sim(net);
  if (keep_place != nullptr) {
    filter.keep_place(keep_place);
    sim.set_sink(&filter);
  } else {
    sim.set_sink(&stats);
  }
  sim.reset(seed);
  sim.run_until(kWarmUp);
  const std::uint64_t starts_before = sim.total_firing_starts();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sim.run_until(kWarmUp + kMeasured);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  *starts_measured = sim.total_firing_starts() - starts_before;
  sim.finish();
  if (keep_place == nullptr) {
    EXPECT_EQ(stats.stats().events_started, sim.total_firing_starts());
  } else {
    EXPECT_GT(filter.kept_events(), 0U);
    EXPECT_GT(filter.dropped_events(), 0U);
  }
  return allocations;
}

Net shipped_model(const std::string& name) {
  std::ifstream in(std::string(PNUT_MODELS_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return textio::parse_net(text.str()).net;
}

TEST(SimAllocFree, CounterSeesAllocations) {
  // Guard against a replacement the toolchain silently bypassed.
  const std::uint64_t before = g_allocations.load();
  void* block = ::operator new(64);
  ::operator delete(block);
  EXPECT_EQ(g_allocations.load() - before, 1U);
}

TEST(SimAllocFree, RaceRingSteadyStateIsAllocationFree) {
  // Two same-delay competitors per place: a conflict draw on every token
  // move, firings in flight, enabling timers going stale.
  std::uint64_t starts = 0;
  const std::uint64_t allocations =
      steady_state_allocations(reach_models::timed_race_ring(12, 3), 5, &starts);
  EXPECT_GT(starts, 10'000U);
  EXPECT_EQ(allocations, 0U) << "over " << starts << " firings";
}

TEST(SimAllocFree, ShippedUnifiedCacheModelSteadyStateIsAllocationFree) {
  // Computed enabling delays through a document-level fn and params: the
  // bytecode path.
  const Net net = shipped_model("ext_cache_unified.pn");
  std::uint64_t starts = 0;
  const std::uint64_t allocations = steady_state_allocations(net, 3, &starts);
  EXPECT_GT(starts, 10'000U);
  EXPECT_EQ(allocations, 0U) << "over " << starts << " firings";
}

TEST(SimAllocFree, FilteredRunIsAllocationFree) {
  // `simulate --trace F --keep Bus_busy`: the filter settles relevance per
  // transition up front and projects kept events into one reused event.
  const Net net = shipped_model("ext_cache_unified.pn");
  std::uint64_t starts = 0;
  const std::uint64_t allocations = steady_state_allocations(net, 3, &starts, "Bus_busy");
  EXPECT_GT(starts, 10'000U);
  EXPECT_EQ(allocations, 0U) << "over " << starts << " firings";
}

TEST(TimedExploreAllocations, AllocatesPerBufferGrowthNotPerState) {
  // The timed builder expands each state in place on its interned words:
  // allocations come from growing the arena, the intern table, the edge
  // pool and the schedule, not from states or successors.
  const Net net = reach_models::timed_race_ring(9, 3);  // 12,876 states
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const analysis::TimedReachabilityGraph graph(net);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(graph.status(), analysis::TimedReachStatus::kComplete);
  EXPECT_GT(graph.num_states(), 2'000U);
  EXPECT_LT(allocations, graph.num_states() / 10)
      << allocations << " allocations over " << graph.num_states() << " states";
}

}  // namespace
}  // namespace pnut
