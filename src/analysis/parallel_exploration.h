// Parallel state-space exploration on the StateStore core.
//
// The sequential reachability builder expands one frontier state at a time;
// at million-state scale the expansion work (enablement tests over the CSR
// arc spans, token deltas, interning) is embarrassingly parallel *per
// state* — what is not parallel is the thing every consumer depends on: the
// state numbering. Deadlock sets, place bounds, edge lists, query-engine
// state indices and the truncation point are all expressed in state ids, so
// a parallel explorer that numbers states by interleaving order would give
// a different (if isomorphic) graph on every run.
//
// This engine keeps the parallelism and discards the nondeterminism by
// splitting every BFS level into two phases:
//
//   EXPAND (parallel) — the current level's states (a contiguous canonical
//   id range: canonical ids *are* BFS discovery order) are chopped into
//   batches handed to worker threads by an atomic cursor. Each worker
//   copies its parent state out of the canonical arena (the intern contract
//   — see StateStore::intern — forbids holding arena spans while interning),
//   enumerates firings exactly like the sequential builder, and interns
//   each successor into one of S hash-sharded StateStores (shard =
//   high bits of the state hash, one striped mutex per shard). The shard
//   slot a successor lands in is interleaving-dependent — but it is only a
//   *provisional* identity, stable for the rest of the run and never
//   visible outside the engine. Edges are recorded per batch as flat
//   (transition, shard, slot) segments in expansion order.
//
//   SEAL (sequential, cheap) — replays the batch segments in canonical
//   parent order, edge order within each parent. The first time a
//   provisional (shard, slot) appears it gets the next canonical id —
//   exactly the id the sequential FIFO builder would have assigned, because
//   sequential BFS discovery order is precisely "parents ascending, edges
//   in firing order". The sealed state's words are appended to the
//   canonical StateStore (which the next level's workers read), edges are
//   stitched into the one flat EdgeCsr pool, and the sequential builder's
//   stop rules (max_states truncation, place-bound overflow) are applied at
//   the same event positions they would fire sequentially. Array lookups
//   only — no hashing, no net evaluation — so Amdahl stays friendly.
//
// The result is byte-identical to the sequential builder for every thread
// count: same state numbering, same edge pool order, same status, same
// truncated prefix when limits hit. The differential harness
// (tests/analysis_parallel_equivalence_test.cpp) pins this on the golden
// models and on randomized nets.
//
// Interpreted nets: a state's data lives as schema-encoded slot words
// after its marking (expr/program.h freezes the variable universe up front),
// so a provisional state is its full [marking | data words] vector and the
// seal copies it verbatim — interpreted and plain nets share one seal.
#pragma once

#include <memory>
#include <vector>

#include "analysis/exploration.h"
#include "analysis/reachability.h"
#include "analysis/state_store.h"
#include "expr/program.h"
#include "petri/compiled_net.h"

namespace pnut::analysis {

/// Everything ReachabilityGraph needs to adopt a finished exploration.
struct ParallelReachResult {
  StateStore store;                      ///< canonical: state i = BFS discovery i
  EdgeCsr<ReachabilityGraph::Edge> edges;  ///< canonical flat pool
  ReachStatus status = ReachStatus::kComplete;
  /// States [0, num_expanded) were fully expanded — the same prefix the
  /// sequential builder expands (BFS expansion order is canonical id
  /// order). Later states are truncation leftovers with empty or partial
  /// edge rows; graph queries must not read those rows as deadlocks.
  std::size_t num_expanded = 0;
  /// Spill accounting for the (destroyed-with-the-explorer) shard stores:
  /// their summed peak resident bytes and whether any of them spilled.
  std::size_t aux_peak_bytes = 0;
  bool aux_spill_engaged = false;
};

/// Explore with `threads` workers (>= 2; callers resolve 0/1 themselves).
/// Byte-identical to the sequential builder for any thread count.
///
/// `program` is the net's compiled expression bytecode (null for a plain
/// net; required whenever the net has hooks): predicates and actions run on
/// the VM against per-worker slot frames.
///
/// Bytecode is immutable and each worker evaluates with its own scratch, so
/// concurrent expansion needs no locking around model callbacks.
ParallelReachResult explore_reachability_parallel(
    const std::shared_ptr<const CompiledNet>& net, const ReachOptions& options,
    unsigned threads, const std::shared_ptr<const expr::NetProgram>& program);

}  // namespace pnut::analysis
