#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

/// Buffers outlive their threads: the registry owns them, each thread keeps
/// a raw pointer to its own.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

struct ThreadState {
  std::vector<SpanRecord>* buffer = nullptr;
  std::uint32_t thread = 0;
  std::uint64_t current = 0;  ///< innermost open span on this thread
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    state.buffer = r.buffers.back().get();
    state.thread = g_next_thread.fetch_add(1);
  }
  return state;
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length of the union of intervals, clipped to [lo, hi].
std::int64_t union_length(std::vector<Interval> intervals, std::int64_t lo,
                          std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (auto [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<SpanRecord> collect() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : r.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

Span::Span(const char* name, std::uint64_t request) {
  if (!enabled()) return;
  ThreadState& state = thread_state();
  active_ = true;
  saved_parent_ = state.current;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = state.current;
  record_.request = request;
  record_.thread = state.thread;
  state.current = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  ThreadState& state = thread_state();
  state.current = saved_parent_;
  state.buffer->push_back(record_);
}

double span_cost_ns() {
  constexpr int kBatch = 20000;
  const bool was_enabled = enabled();
  set_enabled(true);
  ThreadState& state = thread_state();
  std::vector<std::int64_t> batch_ns;
  for (int b = 0; b < 7; ++b) {
    const std::size_t kept = state.buffer->size();
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) {
      const Span span("bench.span_cost");
    }
    batch_ns.push_back(now_ns() - t0);
    state.buffer->resize(kept);
  }
  set_enabled(was_enabled);
  std::sort(batch_ns.begin(), batch_ns.end());
  return static_cast<double>(batch_ns[batch_ns.size() / 2]) / kBatch;
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  std::string layer = dot == nullptr ? std::string(name) : std::string(name, dot);
  return layer == "bench" ? std::string() : layer;
}

std::vector<LayerTime> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerTime> by_layer;
  for (const SpanRecord& s : spans) {
    const std::string layer = layer_of(s.name);
    if (layer.empty()) continue;
    std::int64_t self = s.end_ns - s.start_ns;
    const auto it = children.find(s.id);
    if (it != children.end()) self -= union_length(it->second, s.start_ns, s.end_ns);
    LayerTime& entry = by_layer[layer];
    entry.layer = layer;
    entry.self_s += static_cast<double>(self) * 1e-9;
    ++entry.spans;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, entry] : by_layer) out.push_back(entry);
  return out;
}

double unattributed_share(const std::vector<SpanRecord>& spans, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (end_ns <= start_ns) return 0;
  std::vector<Interval> layer_spans;
  for (const SpanRecord& s : spans) {
    if (!layer_of(s.name).empty()) layer_spans.emplace_back(s.start_ns, s.end_ns);
  }
  const std::int64_t covered = union_length(std::move(layer_spans), start_ns, end_ns);
  return 1.0 - static_cast<double>(covered) / static_cast<double>(end_ns - start_ns);
}

bool write_jsonl(const std::string& path, const std::vector<SpanRecord>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"thread\":%u}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
