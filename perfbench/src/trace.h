// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a layer of the program in a
// Span named "<layer>.<call>" (layer = textio, expr, petri, sim, stat,
// analysis, cli or serve); its own bookkeeping uses the "bench." prefix and
// counts as no layer. Spans record start, end, the enclosing span on the
// same thread and a request id, stay in per-thread buffers while the run
// lasts, and are collected once at the end. With tracing off a Span is one
// relaxed load and a branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0: no enclosing span
  std::uint64_t request = 0;  ///< 0: not part of a served request
  std::uint32_t thread = 0;
};

void set_enabled(bool on);
[[nodiscard]] bool enabled();

/// Nanoseconds on the steady clock, as stored in SpanRecord.
[[nodiscard]] std::int64_t now_ns();

/// Every span recorded so far, from every thread, and clear the buffers.
/// Call only while no thread is recording.
[[nodiscard]] std::vector<SpanRecord> collect();

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  SpanRecord record_;
};

/// What one span costs the calling thread when tracing is on: the median
/// over batches of empty spans. Leaves the recorded spans as they were.
[[nodiscard]] double span_cost_ns();

/// The layer a span name belongs to ("" for bench bookkeeping).
[[nodiscard]] std::string layer_of(const char* name);

struct LayerTime {
  std::string layer;
  double self_s = 0;
  std::size_t spans = 0;
};

/// Self time per layer: each span's duration minus the part of it that
/// its child spans cover.
[[nodiscard]] std::vector<LayerTime> self_times(const std::vector<SpanRecord>& spans);

/// Share of [start_ns, end_ns] that no layer span on any thread covers.
[[nodiscard]] double unattributed_share(const std::vector<SpanRecord>& spans,
                                        std::int64_t start_ns, std::int64_t end_ns);

/// Write spans as JSON lines.
bool write_jsonl(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench::trace
