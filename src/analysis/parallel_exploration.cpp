#include "analysis/parallel_exploration.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/parallel_support.h"
#include "petri/rng.h"

namespace pnut::analysis {

namespace {

constexpr std::uint32_t kUnassigned = UINT32_MAX;

ReachStatus stop_status(StopToken::Reason reason) {
  return reason == StopToken::Reason::kDeadline ? ReachStatus::kTimeout
                                                : ReachStatus::kCancelled;
}

/// One provisional-edge record produced by a worker: the fired transition
/// and the successor's provisional identity (shard, slot). Slots are
/// interleaving-dependent; the seal pass translates them to canonical ids.
struct Item {
  std::uint32_t transition;
  std::uint32_t shard;
  std::uint32_t slot;
};

/// First batch-local sighting of a state minted this level:
/// the only places the sequential seal walk has to look at. Its words are
/// captured next to it (Batch::fresh_words) while they are hot in the
/// worker's scratch, so sealing copies linearly instead of chasing shard
/// arenas.
struct Candidate {
  std::uint32_t slot;
  std::uint32_t shard;
  std::uint32_t item_in_batch;
};

/// A hash shard of the provisional state set: its own arena + intern table
/// behind its own mutex (striped locking — two workers contend only when
/// their successors hash to the same shard).
struct Shard {
  std::mutex mutex;
  StateStore store;
  std::vector<std::uint32_t> canonical;  ///< slot -> canonical id (seal only)
};

using detail::SlotSet;
using detail::WorkerPool;

/// One batch of consecutive parents and the flat edge segment its worker
/// produced — the "per-worker EdgeCsr segment" that the seal pass stitches
/// into the single canonical pool.
struct Batch {
  std::uint32_t first_parent = 0;
  std::uint32_t num_parents = 0;
  std::vector<Item> items;                 ///< all parents' edges, in order
  std::vector<std::uint32_t> item_count;   ///< per parent
  std::vector<std::uint8_t> over;          ///< per parent: place bound blew here
  std::vector<Candidate> candidates;       ///< fresh-state sightings
  std::vector<std::uint32_t> fresh_words;  ///< candidate words, back-to-back
  /// A model callback (predicate/action) threw while expanding parent
  /// `error_parent`; the parent's partial output was rolled back. The seal
  /// rethrows it if and only if its walk reaches that parent — a stop rule
  /// firing canonically earlier wins, exactly as it would sequentially.
  std::exception_ptr error;
  std::uint32_t error_parent = 0;
};

/// Reused per-worker buffers: no allocation per expanded state.
struct WorkerScratch {
  std::vector<std::uint32_t> words;     ///< provisional state under construction
  std::vector<std::uint64_t> seen_ids;  ///< successor dedup per action firing
  SlotSet seen_slots;                   ///< candidate filter
  DataFrame parent_frame;               ///< decoded parent data (nets with actions)
  DataFrame cand_frame;                 ///< per-sample action target
  expr::VmScratch vm;
};

class ParallelExplorer {
 public:
  ParallelExplorer(std::shared_ptr<const CompiledNet> net, const ReachOptions& options,
                   unsigned threads, std::shared_ptr<const expr::NetProgram> program)
      : net_(std::move(net)),
        options_(options),
        threads_(threads),
        num_places_(net_->num_places()),
        track_data_(net_->net_has_actions()),
        program_(std::move(program)),
        width_(num_places_ + (track_data_ ? program_->schema().encoded_words() : 0)) {
    // Shard count: a few shards per worker keeps striped-lock contention
    // low; power of two so the pick is a mask over the hash's top bits
    // (the intern tables consume the low bits).
    num_shards_ = 8;
    while (num_shards_ < static_cast<std::size_t>(threads_) * 4 && num_shards_ < 128) {
      num_shards_ *= 2;
    }
    shards_ = std::vector<Shard>(num_shards_);
    for (Shard& s : shards_) s.store = StateStore(width_);

    if (options_.spill.max_resident_bytes != 0) {
      // Budget split: 3/8 canonical arena (wired in bootstrap), 3/8 across
      // the provisional shards, 2/8 edge pool. Shards have no frontier to
      // protect — every access is mutex-guarded, so any sealed segment may
      // spill and fault back in on a probe (rare: the cached-hash filter
      // rejects almost every mismatching probe without touching words).
      spill_dir_ = std::make_shared<detail::SpillDir>(options_.spill.dir);
      const std::size_t budget = options_.spill.max_resident_bytes;
      const std::size_t shard_budget = std::max<std::size_t>(budget * 3 / 8 / num_shards_, 1);
      // A shard's open tail segment is always heap-resident, so its segment
      // size must stay well under the per-shard budget — otherwise S shards
      // hold S full-size tails and the budget is fiction.
      const std::size_t shard_segment_bytes =
          detail::segment_bytes_for(options_.spill.segment_bytes, shard_budget);
      for (std::size_t i = 0; i < num_shards_; ++i) {
        shards_[i].store.enable_spill(spill_dir_, "shard" + std::to_string(i) + ".seg",
                                      shard_segment_bytes, shard_budget,
                                      /*spill_sealed_tail=*/true);
      }
      edges_.enable_spill(spill_dir_, "edges.seg",
                          detail::segment_bytes_for(options_.spill.segment_bytes, budget / 4),
                          budget / 4);
    }
  }

  ParallelReachResult run() {
    bootstrap();
    std::vector<Batch> batches;
    std::uint32_t expanded_end = 0;
    while (expanded_end < canonical_.size()) {
      const std::uint32_t level_begin = expanded_end;
      const auto level_end = static_cast<std::uint32_t>(canonical_.size());
      expand_level(level_begin, level_end, batches);
      expanded_end = level_end;
      // The level is fully expanded: its states (and everything before
      // them) are sealed. The seal only appends at >= level_end, and the
      // next expand reads only [level_end, ...), so segments below this
      // floor can spill without any lock-free reader ever faulting.
      canonical_.set_spill_floor(level_end);
      if (!seal(batches, level_begin)) break;  // a stop rule fired: keep the prefix
      num_expanded_ = level_end;  // the whole level sealed cleanly
    }
    edges_.finalize(canonical_.size());

    ParallelReachResult result;
    result.store = std::move(canonical_);
    result.edges = std::move(edges_);
    result.status = status_;
    result.num_expanded = num_expanded_;
    for (const Shard& s : shards_) {
      result.aux_peak_bytes += s.store.peak_resident_bytes();
      result.aux_spill_engaged |= s.store.spill_engaged();
    }
    return result;
  }

 private:
  // --- bootstrap -------------------------------------------------------------

  void configure_canonical_spill() {
    if (!spill_dir_) return;
    const std::size_t budget = options_.spill.max_resident_bytes * 3 / 8;
    canonical_.enable_spill(spill_dir_, "canonical.seg",
                            detail::segment_bytes_for(options_.spill.segment_bytes, budget),
                            budget);
  }

  void bootstrap() {
    // Provisional and canonical words coincide: the marking followed by
    // the schema-encoded frame, width frozen up front.
    canonical_ = StateStore(width_);
    configure_canonical_spill();
    std::vector<std::uint32_t> initial_words(width_);
    const Marking initial = Marking::initial(net_->net());
    std::memcpy(initial_words.data(), initial.tokens().data(),
                num_places_ * sizeof(std::uint32_t));
    if (track_data_) {
      program_->schema().encode(program_->initial_frame(),
                                initial_words.data() + num_places_);
    }
    canonical_.intern(initial_words);
    // The provisional twin, so successors that return to the initial state
    // dedup against it.
    const std::uint64_t h = hash_words(initial_words.data(), width_);
    Shard& shard = shards_[shard_of(h)];
    const auto r = shard.store.intern(initial_words, h);
    shard.canonical.resize(shard.store.size(), kUnassigned);
    shard.canonical[r.index] = 0;
  }

  // --- expand (parallel) -----------------------------------------------------

  [[nodiscard]] std::size_t shard_of(std::uint64_t hash) const {
    return (hash >> 57) & (num_shards_ - 1);
  }

  void expand_level(std::uint32_t begin, std::uint32_t end, std::vector<Batch>& batches) {
    const std::uint32_t count = end - begin;
    const std::uint32_t batch_size =
        std::clamp<std::uint32_t>(count / (threads_ * 4), 16, 1024);
    const std::uint32_t num_batches = (count + batch_size - 1) / batch_size;
    // Reuse the batch buffers across levels: clear() keeps the vectors'
    // capacity, so steady-state expansion allocates nothing.
    batches.resize(num_batches);
    for (std::uint32_t b = 0; b < num_batches; ++b) {
      batches[b].first_parent = begin + b * batch_size;
      batches[b].num_parents = std::min(batch_size, end - batches[b].first_parent);
      batches[b].items.clear();
      batches[b].candidates.clear();
      batches[b].fresh_words.clear();
    }

    if (worker_scratch_.empty()) {
      worker_scratch_.resize(threads_);
      for (WorkerScratch& scratch : worker_scratch_) scratch.words.resize(width_);
    }
    if (num_batches <= 1) {
      for (Batch& batch : batches) expand_batch(batch, worker_scratch_[0]);
      return;
    }

    if (!pool_) pool_.emplace(threads_);
    std::atomic<std::uint32_t> cursor{0};
    pool_->dispatch([&](unsigned worker) {
      WorkerScratch& scratch = worker_scratch_[worker];
      while (true) {
        const std::uint32_t b = cursor.fetch_add(1);
        if (b >= num_batches) return;
        try {
          expand_batch(batches[b], scratch);
        } catch (...) {  // allocation failure in batch setup
          batches[b].error = std::current_exception();
          batches[b].error_parent = 0;
        }
      }
    });
  }

  /// Expand one batch. A throwing model callback rolls the failing
  /// parent's partial output back and parks the exception on the batch —
  /// never escapes the worker. The seal decides whether it is ever
  /// surfaced (see Batch::error).
  void expand_batch(Batch& batch, WorkerScratch& scratch) {
    batch.item_count.assign(batch.num_parents, 0);
    batch.over.assign(batch.num_parents, 0);
    batch.error = nullptr;
    scratch.seen_slots.begin_batch();
    for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
      const std::size_t items_before = batch.items.size();
      const std::size_t cands_before = batch.candidates.size();
      const std::size_t words_before = batch.fresh_words.size();
      try {
        expand_parent(batch.first_parent + i, i, batch, scratch);
      } catch (...) {
        batch.items.resize(items_before);
        batch.candidates.resize(cands_before);
        batch.fresh_words.resize(words_before);
        batch.item_count[i] = 0;
        batch.error = std::current_exception();
        batch.error_parent = i;
        return;
      }
    }
  }

  /// Predicate test on the expand path, on the worker's decoded frame.
  [[nodiscard]] bool predicate_holds(TransitionId t, WorkerScratch& scratch) const {
    const expr::Code* code = program_ != nullptr ? program_->predicate(t) : nullptr;
    if (code == nullptr) return true;
    const DataFrame& frame = track_data_ ? scratch.parent_frame : program_->initial_frame();
    return expr::vm_eval(*code, frame, nullptr, scratch.vm) != 0;
  }

  /// One parent, mirroring the sequential expansion loop firing for firing.
  /// Reads only sealed data (the canonical arena, frozen during the expand
  /// phase); writes only the batch and the shards.
  void expand_parent(std::uint32_t p, std::uint32_t slot_in_batch, Batch& batch,
                     WorkerScratch& scratch) {
    // Copy, per the intern contract: the canonical span itself stays valid
    // during expansion, but the provisional words must be mutable anyway.
    const auto parent = canonical_.state(p);
    std::copy_n(parent.begin(), width_, scratch.words.begin());
    if (track_data_) {
      program_->schema().decode(scratch.words.data() + num_places_, scratch.parent_frame);
    }
    const std::span<const TokenCount> tokens(scratch.words.data(), num_places_);

    const auto items_before = static_cast<std::uint32_t>(batch.items.size());
    for (std::uint32_t ti = 0; ti < net_->num_transitions(); ++ti) {
      const TransitionId t(ti);
      if (!net_->tokens_available(tokens, t)) continue;
      if (!predicate_holds(t, scratch)) continue;
      if (options_.respect_capacities &&
          detail::overflows_capacity(*net_, tokens, t)) {
        continue;
      }

      for (const Arc& a : net_->inputs(t)) scratch.words[a.place.value] -= a.weight;
      for (const Arc& a : net_->outputs(t)) scratch.words[a.place.value] += a.weight;

      // Same boundedness rule as the sequential builder, including the
      // whole-marking check when expanding the initial state.
      bool over = false;
      if (p == 0) {
        for (std::size_t i = 0; i < num_places_; ++i) {
          over |= scratch.words[i] > options_.place_bound;
        }
      } else {
        for (const Arc& a : net_->outputs(t)) {
          over |= scratch.words[a.place.value] > options_.place_bound;
        }
      }
      if (over) {
        // Sequentially this stops the whole exploration with no edge for
        // the over firing; here it ends this parent's segment, and the
        // seal pass stops the world when (if) it reaches this position.
        batch.over[slot_in_batch] = 1;
        for (const Arc& a : net_->outputs(t)) scratch.words[a.place.value] -= a.weight;
        for (const Arc& a : net_->inputs(t)) scratch.words[a.place.value] += a.weight;
        break;
      }

      if (!net_->has_action(t)) {
        intern_successor(scratch, ti, batch);
      } else {
        // Stochastic action: same sample sequence as the sequential
        // builder (seeds are a pure function of the canonical parent id),
        // deduplicated on the successor's interned identity — injective
        // over the encoded words, so the kept set and its order match the
        // sequential encoded-key dedup exactly.
        scratch.seen_ids.clear();
        const std::size_t samples = std::max<std::size_t>(options_.irand_fanout_limit, 1);
        for (std::size_t k = 0; k < samples; ++k) {
          scratch.cand_frame.assign(scratch.parent_frame);
          Rng rng(detail::action_sample_seed(p, ti, k));
          expr::vm_exec(*program_->action(t), scratch.cand_frame, &rng, scratch.vm);
          program_->schema().encode(scratch.cand_frame,
                                    scratch.words.data() + num_places_);
          const auto [shard, slot] = intern_provisional(scratch.words);
          const std::uint64_t id = (static_cast<std::uint64_t>(shard) << 32) | slot;
          if (std::find(scratch.seen_ids.begin(), scratch.seen_ids.end(), id) ==
              scratch.seen_ids.end()) {
            scratch.seen_ids.push_back(id);
            record_item(scratch, ti, shard, slot, batch);
          }
        }
        // Restore the parent's data words for the next transition.
        program_->schema().encode(scratch.parent_frame,
                                  scratch.words.data() + num_places_);
      }

      for (const Arc& a : net_->outputs(t)) scratch.words[a.place.value] -= a.weight;
      for (const Arc& a : net_->inputs(t)) scratch.words[a.place.value] += a.weight;
    }
    batch.item_count[slot_in_batch] =
        static_cast<std::uint32_t>(batch.items.size()) - items_before;
  }

  /// Intern scratch words into their hash shard; provisional identity only.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> intern_provisional(
      const std::vector<std::uint32_t>& words) {
    const std::uint64_t h = hash_words(words.data(), width_);
    const auto shard_idx = static_cast<std::uint32_t>(shard_of(h));
    Shard& shard = shards_[shard_idx];
    std::uint32_t slot;
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      slot = shard.store.intern(words, h).index;
    }
    return {shard_idx, slot};
  }

  /// Record one edge to a provisional successor, capturing the candidate
  /// for the seal when this is its first batch-local sighting. Slots
  /// >= the sealed-prefix size were minted this level; `shard.canonical`
  /// is only resized at seal, so its size is stable through expansion.
  void record_item(WorkerScratch& scratch, std::uint32_t ti, std::uint32_t shard_idx,
                   std::uint32_t slot, Batch& batch) {
    batch.items.push_back(Item{ti, shard_idx, slot});
    if (slot >= shards_[shard_idx].canonical.size() &&
        scratch.seen_slots.insert((static_cast<std::uint64_t>(shard_idx) << 32) | slot)) {
      batch.candidates.push_back(
          Candidate{slot, shard_idx, static_cast<std::uint32_t>(batch.items.size() - 1)});
      batch.fresh_words.insert(batch.fresh_words.end(), scratch.words.begin(),
                               scratch.words.end());
    }
  }

  void intern_successor(WorkerScratch& scratch, std::uint32_t ti, Batch& batch) {
    const auto [shard_idx, slot] = intern_provisional(scratch.words);
    record_item(scratch, ti, shard_idx, slot, batch);
  }

  // --- seal ------------------------------------------------------------------
  //
  // Replays the level in sequential discovery order. Phase A walks only the
  // candidate lists (fresh-state sightings, a small fraction of all edges)
  // in canonical order, assigning ids and appending captured words to the
  // canonical arena; the stop rules fire at exactly the sequential
  // positions, falling back to fill_edges_prefix for the truncated edge
  // prefix. Phase B bulk-opens the level's CSR rows and translates the edge
  // segments to canonical ids on the worker pool.

  bool seal(std::vector<Batch>& batches, std::uint32_t level_begin) {
    for (Shard& s : shards_) s.canonical.resize(s.store.size(), kUnassigned);

    // Phase A: ordered discovery over the candidate lists.
    for (std::size_t b = 0; b < batches.size(); ++b) {
      Batch& batch = batches[b];
      std::size_t cand = 0;
      std::uint32_t item_end = 0;
      for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
        // Canonical-position stop poll, at the exact point the sequential
        // builder polls (before expanding this parent — so before any
        // exception its expansion would raise). item_end still excludes
        // parent i, so the prefix fill leaves its row opened and empty.
        if ((batch.first_parent + i) % kStopCheckStride == 0) {
          if (const StopToken::Reason r = options_.stop.poll();
              r != StopToken::Reason::kNone) {
            status_ = stop_status(r);
            num_expanded_ = batch.first_parent + i;
            fill_edges_prefix(batches, b, i, item_end);
            return false;
          }
        }
        // The walk reached a parent whose expansion threw: the sequential
        // builder would have hit the same exception here (every earlier
        // parent sealed cleanly, no stop rule fired first) — surface it.
        if (batch.error && i == batch.error_parent) {
          std::rethrow_exception(batch.error);
        }
        item_end += batch.item_count[i];
        while (cand < batch.candidates.size() &&
               batch.candidates[cand].item_in_batch < item_end) {
          const Candidate& c = batch.candidates[cand];
          std::uint32_t& cid = shards_[c.shard].canonical[c.slot];
          if (cid == kUnassigned) {
            cid = canonical_.append_unchecked(
                {batch.fresh_words.data() + cand * width_, width_});
            if (canonical_.size() > options_.max_states) {
              status_ = ReachStatus::kTruncated;
              num_expanded_ = batch.first_parent + i;  // parent i stops mid-row
              fill_edges_prefix(batches, b, i, c.item_in_batch + 1);
              return false;
            }
          }
          ++cand;
        }
        if (batch.over[i] != 0) {
          status_ = ReachStatus::kUnbounded;
          num_expanded_ = batch.first_parent + i;
          fill_edges_prefix(batches, b, i, item_end);
          return false;
        }
      }
    }

    // Phase B: open the level's rows in one bulk append, then translate
    // the per-batch segments into them in parallel.
    row_counts_.clear();
    for (const Batch& batch : batches) {
      row_counts_.insert(row_counts_.end(), batch.item_count.begin(),
                         batch.item_count.end());
    }
    edges_.append_rows(level_begin, row_counts_);
    translate_edges(batches);
    return true;
  }

  void translate_edges(const std::vector<Batch>& batches) {
    // Each batch fills its own parents' freshly opened rows via
    // mutable_row: disjoint heap-resident regions (append_rows keeps the
    // level above the spill floor), so batches translate concurrently.
    std::size_t total = 0;
    for (const Batch& batch : batches) total += batch.items.size();
    const auto translate_one = [&](std::size_t b) {
      const Batch& batch = batches[b];
      const Item* item = batch.items.data();
      for (std::uint32_t i = 0; i < batch.num_parents; ++i) {
        for (ReachabilityGraph::Edge& e : edges_.mutable_row(batch.first_parent + i)) {
          e = ReachabilityGraph::Edge{TransitionId(item->transition),
                                      shards_[item->shard].canonical[item->slot]};
          ++item;
        }
      }
    };
    if (batches.size() <= 1 || total < 8192) {
      for (std::size_t b = 0; b < batches.size(); ++b) translate_one(b);
      return;
    }
    if (!pool_) pool_.emplace(threads_);
    std::atomic<std::size_t> cursor{0};
    pool_->dispatch([&](unsigned) {
      while (true) {
        const std::size_t b = cursor.fetch_add(1);
        if (b >= batches.size()) return;
        translate_one(b);
      }
    });
  }

  /// Stop-rule fallback: sequentially emit the exact edge prefix the
  /// sequential builder had produced when it stopped — batches before
  /// `b_stop` in full, then parents up to `parent_stop_rel`, with items of
  /// batch `b_stop` cut at `item_limit` (exclusive).
  void fill_edges_prefix(const std::vector<Batch>& batches, std::size_t b_stop,
                         std::uint32_t parent_stop_rel, std::uint32_t item_limit) {
    for (std::size_t b = 0; b <= b_stop; ++b) {
      const Batch& batch = batches[b];
      const Item* item = batch.items.data();
      std::uint32_t idx = 0;
      const std::uint32_t parents = b == b_stop ? parent_stop_rel + 1 : batch.num_parents;
      for (std::uint32_t i = 0; i < parents; ++i) {
        edges_.begin_source(batch.first_parent + i);
        for (std::uint32_t k = 0; k < batch.item_count[i]; ++k, ++idx, ++item) {
          if (b == b_stop && idx >= item_limit) return;
          edges_.add({TransitionId(item->transition),
                      shards_[item->shard].canonical[item->slot]});
        }
      }
    }
  }

  // --- members ---------------------------------------------------------------

  std::shared_ptr<const CompiledNet> net_;
  ReachOptions options_;
  unsigned threads_;
  std::size_t num_places_;
  bool track_data_;  ///< data words join the state (net_has_actions())
  std::shared_ptr<const expr::NetProgram> program_;  ///< null for plain nets
  std::size_t width_;  ///< state words: marking + encoded data

  std::size_t num_shards_ = 0;
  std::vector<Shard> shards_;

  StateStore canonical_;
  EdgeCsr<ReachabilityGraph::Edge> edges_;
  std::vector<std::uint32_t> row_counts_;   ///< reused per level
  std::shared_ptr<detail::SpillDir> spill_dir_;  ///< set iff spilling enabled
  std::vector<WorkerScratch> worker_scratch_;  ///< persistent across levels
  std::optional<WorkerPool> pool_;          ///< lazily spawned, reused per level
  ReachStatus status_ = ReachStatus::kComplete;
  std::size_t num_expanded_ = 0;  ///< fully-expanded prefix (see header)
};

}  // namespace

ParallelReachResult explore_reachability_parallel(
    const std::shared_ptr<const CompiledNet>& net, const ReachOptions& options,
    unsigned threads, const std::shared_ptr<const expr::NetProgram>& program) {
  if (!net) throw std::invalid_argument("explore_reachability_parallel: null CompiledNet");
  if (threads < 2) {
    throw std::invalid_argument("explore_reachability_parallel: needs >= 2 threads");
  }
  return ParallelExplorer(net, options, threads, program).run();
}

}  // namespace pnut::analysis
