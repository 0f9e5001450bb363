// The scalar event loop performs no heap allocation in steady state.
//
// This binary replaces the global operator new with a counting one, warms a
// Simulator up (its event queue, ready set, trace event and VM scratch grow
// to their high-water capacity), then asserts that a further run_until —
// with a StatCollector attached, so every Start/End/Atomic delta is built
// and delivered — allocates nothing. It lives in its own binary because the
// replacement is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "../bench/reach_models.h"
#include "sim/simulator.h"
#include "stat/stat.h"
#include "textio/pn_format.h"

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
/// a warm-up run to kWarmUp; also returns the events processed there.
std::uint64_t steady_state_allocations(const Net& net, std::uint64_t seed,
                                       std::uint64_t* starts_measured) {
  StatCollector stats;
  Simulator sim(net);
  sim.set_sink(&stats);
  sim.reset(seed);
  sim.run_until(kWarmUp);
  const std::uint64_t starts_before = sim.total_firing_starts();

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  sim.run_until(kWarmUp + kMeasured);
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  *starts_measured = sim.total_firing_starts() - starts_before;
  sim.finish();
  EXPECT_EQ(stats.stats().events_started, sim.total_firing_starts());
  return allocations;
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
  std::ifstream in(std::string(PNUT_MODELS_DIR) + "/ext_cache_unified.pn");
  std::stringstream text;
  text << in.rdbuf();
  const Net net = textio::parse_net(text.str()).net;
  std::uint64_t starts = 0;
  const std::uint64_t allocations = steady_state_allocations(net, 3, &starts);
  EXPECT_GT(starts, 10'000U);
  EXPECT_EQ(allocations, 0U) << "over " << starts << " firings";
}

}  // namespace
}  // namespace pnut
