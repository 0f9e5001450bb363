#include "analysis/reachability.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pnut::analysis {

using detail::overflows_capacity;

namespace {

ReachStatus stop_status(StopToken::Reason reason) {
  return reason == StopToken::Reason::kDeadline ? ReachStatus::kTimeout
                                                : ReachStatus::kCancelled;
}

}  // namespace

detail::DataWords::DataWords(const expr::NetProgram& program, std::size_t num_transitions)
    : position_(program.schema().num_values(), kConstant),
      schema_scalars_(program.schema().num_scalars()) {
  for (std::uint32_t t = 0; t < num_transitions; ++t) {
    // Mark every written slot; the pass below numbers them in slot order.
    for (const std::uint32_t s : program.action_facts(TransitionId(t)).writes) position_[s] = 0;
  }
  std::size_t scalars = 0;
  for (std::uint32_t s = 0; s < position_.size(); ++s) {
    if (position_[s] == kConstant) continue;
    position_[s] = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(s);
    scalars += s < schema_scalars_ ? 1 : 0;
  }
  mask_words_ = (scalars + 31) / 32;
}

ReachabilityGraph::ReachabilityGraph(const Net& net, ReachOptions options)
    : ReachabilityGraph(CompiledNet::compile(net), options) {}

ReachabilityGraph::ReachabilityGraph(std::shared_ptr<const CompiledNet> net,
                                     ReachOptions options)
    : net_(std::move(net)) {
  if (!net_) throw std::invalid_argument("ReachabilityGraph: null CompiledNet");
  explore(options);
}

void ReachabilityGraph::configure_spill(const ReachOptions& options) {
  if (options.spill.max_resident_bytes == 0) return;
  auto dir = std::make_shared<detail::SpillDir>(options.spill.dir);
  const std::size_t budget = options.spill.max_resident_bytes;
  store_.enable_spill(dir, "states.seg",
                      detail::segment_bytes_for(options.spill.segment_bytes, budget * 2 / 3),
                      budget * 2 / 3);
  edges_.enable_spill(std::move(dir), "edges.seg",
                      detail::segment_bytes_for(options.spill.segment_bytes, budget / 3),
                      budget / 3);
}

void ReachabilityGraph::explore(const ReachOptions& options) {
  respect_capacities_ = options.respect_capacities;
  // Every hook runs as bytecode; a net whose hooks do not all compile is
  // rejected up front, before any storage (or spill directory) exists.
  if (net_->net_has_hooks()) {
    std::string error;
    program_ = expr::NetProgram::compile(net_->net(), &error);
    if (program_ == nullptr) throw std::invalid_argument("reachability: " + error);
    data_ = detail::DataWords(*program_, net_->num_transitions());
    query_frame_ = program_->initial_frame();
  }

  const std::size_t num_places = net_->num_places();
  const std::size_t data_words = data_.words();
  const std::size_t width = num_places + data_words;
  store_ = StateStore(width);
  configure_spill(options);

  // The expansion loop works in place on one scratch word vector: the
  // parent state's words are copied in once, each firing's token delta is
  // applied, interned, and undone — no Marking, key string, or successor
  // vector is allocated per edge.
  std::vector<std::uint32_t> scratch(width);
  std::uint32_t* const tail = scratch.data() + num_places;
  // What predicates read and actions start from: the initial data with the
  // parent's data tail overlaid. `candidate` equals `parent` between
  // firings — each sample resets the action's write set.
  DataFrame parent = program_ != nullptr ? program_->initial_frame() : DataFrame{};
  DataFrame candidate = parent;
  expr::VmScratch vm;

  // Without a data tail the data state is constant, so each predicate has
  // one truth value per run: memoize it at its first evaluation (the only
  // one that could raise an error, so memoizing moves no failure).
  std::vector<std::int8_t> pred_memo;
  if (data_words == 0) pred_memo.assign(net_->num_transitions(), -1);
  const auto predicate_holds = [&](TransitionId t) {
    const expr::Code* code = program_ != nullptr ? program_->predicate(t) : nullptr;
    if (code == nullptr) return true;
    if (data_words == 0) {
      std::int8_t& memo = pred_memo[t.value];
      if (memo < 0) memo = expr::vm_eval(*code, parent, nullptr, vm) != 0 ? 1 : 0;
      return memo != 0;
    }
    return expr::vm_eval(*code, parent, nullptr, vm) != 0;
  };

  {
    const Marking initial = Marking::initial(net_->net());
    std::memcpy(scratch.data(), initial.tokens().data(),
                num_places * sizeof(std::uint32_t));
    if (program_ != nullptr) data_.encode(program_->initial_frame(), tail);
    store_.intern(scratch);
  }

  Frontier frontier;
  frontier.push_back(0);

  // Reused outcome-dedup buffer: per distinct outcome of the action being
  // sampled, a (present, value) pair per written slot, first occurrence
  // kept.
  std::vector<std::int64_t> outcomes;

  num_expanded_ = drive_frontier_bfs(frontier, edges_, [&](std::uint32_t state) {
    // Canonical-position stop poll: expansion order is canonical id order,
    // so a stop here always lands on the same state.
    if (state % kStopCheckStride == 0) {
      if (const StopToken::Reason r = options.stop.poll(); r != StopToken::Reason::kNone) {
        status_ = stop_status(r);
        return false;
      }
    }
    // States before the BFS cursor are sealed; their segments may spill.
    store_.set_spill_floor(state);
    // Copies: interning may grow the arena while we expand.
    std::copy(store_.state(state).begin(), store_.state(state).end(), scratch.begin());
    data_.decode(tail, parent);
    data_.decode(tail, candidate);
    const std::span<const TokenCount> tokens(scratch.data(), num_places);

    // Intern the successor in scratch; false stops the build.
    const auto add_successor = [&](TransitionId t) {
      const auto interned = store_.intern(scratch);
      edges_.add(Edge{t, interned.index});
      if (interned.inserted) {
        if (store_.size() > options.max_states) {
          status_ = ReachStatus::kTruncated;
          return false;
        }
        frontier.push_back(interned.index);
      }
      return true;
    };

    for (std::uint32_t ti = 0; ti < net_->num_transitions(); ++ti) {
      const TransitionId t(ti);
      if (!net_->tokens_available(tokens, t)) continue;
      if (!predicate_holds(t)) continue;
      if (options.respect_capacities && overflows_capacity(*net_, tokens, t)) continue;

      // Fire in place (enablement guarantees no underflow); undone below.
      for (const Arc& a : net_->inputs(t)) scratch[a.place.value] -= a.weight;
      for (const Arc& a : net_->outputs(t)) scratch[a.place.value] += a.weight;

      // Boundedness: only output places can newly exceed the bound — every
      // interned state already passed this check — except when expanding
      // the initial state, whose marking is the model's to declare.
      bool over = false;
      if (state == 0) {
        for (std::size_t i = 0; i < num_places; ++i) over |= scratch[i] > options.place_bound;
      } else {
        for (const Arc& a : net_->outputs(t)) {
          over |= scratch[a.place.value] > options.place_bound;
        }
      }
      if (over) {
        status_ = ReachStatus::kUnbounded;
        return false;
      }

      if (!net_->has_action(t)) {
        // Unchanged data: the parent's data tail is still in scratch.
        if (!add_successor(t)) return false;
      } else {
        // Run the action once, or sample it if it draws (see header).
        const auto& facts = program_->action_facts(t);
        const std::span<const std::uint32_t> writes = facts.writes;
        const std::size_t row = 2 * writes.size();
        const std::size_t num_scalars = program_->schema().num_scalars();
        const std::size_t samples =
            facts.draws ? std::max<std::size_t>(options.irand_fanout_limit, 1) : 1;
        std::size_t num_outcomes = 0;
        for (std::size_t k = 0; k < samples; ++k) {
          Rng rng(detail::action_sample_seed(state, ti, k));
          expr::vm_exec(*program_->action(t), candidate, &rng, vm);
          outcomes.resize(std::max(outcomes.size(), (num_outcomes + 1) * row));
          std::int64_t* out = outcomes.data() + num_outcomes * row;
          for (std::size_t j = 0; j < writes.size(); ++j) {
            const std::uint32_t s = writes[j];
            const bool present = s >= num_scalars || candidate.present[s] != 0;
            out[2 * j] = present ? 1 : 0;
            out[2 * j + 1] = present ? candidate.values[s] : 0;
            candidate.values[s] = parent.values[s];
            if (s < num_scalars) candidate.present[s] = parent.present[s];
          }
          bool seen = false;
          for (std::size_t i = 0; i < num_outcomes && !seen; ++i) {
            seen = std::equal(out, out + row, outcomes.data() + i * row);
          }
          if (!seen) ++num_outcomes;
        }

        for (std::size_t i = 0; i < num_outcomes; ++i) {
          const std::int64_t* out = outcomes.data() + i * row;
          for (std::size_t j = 0; j < writes.size(); ++j) {
            data_.put(tail, writes[j], out[2 * j] != 0, out[2 * j + 1]);
          }
          if (!add_successor(t)) return false;
        }
        // Restore the parent's data tail for the next transition.
        std::memcpy(tail, store_.state(state).data() + num_places,
                    data_words * sizeof(std::uint32_t));
      }

      // Undo the firing.
      for (const Arc& a : net_->outputs(t)) scratch[a.place.value] -= a.weight;
      for (const Arc& a : net_->inputs(t)) scratch[a.place.value] += a.weight;
    }
    return true;
  });

  edges_.finalize(store_.size());
}

std::int64_t ReachabilityGraph::transition_activity(std::size_t state, TransitionId t) const {
  const auto tokens = this->tokens(state);
  if (!net_->tokens_available(tokens, t)) return 0;
  if (const expr::Code* predicate = program_ != nullptr ? program_->predicate(t) : nullptr) {
    // The shared frame/scratch are the only mutable state on this const
    // path; serialize them so cached graphs take concurrent queries.
    std::lock_guard<std::mutex> lock(query_mutex_);
    data_.decode(store_.state(state).data() + net_->num_places(), query_frame_);
    if (expr::vm_eval(*predicate, query_frame_, nullptr, query_scratch_) == 0) return 0;
  }
  if (respect_capacities_ && overflows_capacity(*net_, tokens, t)) return 0;
  return 1;
}

std::optional<std::int64_t> ReachabilityGraph::variable(std::size_t state,
                                                        std::string_view name) const {
  if (program_ != nullptr) {
    const auto slot = program_->schema().scalar_slot(name);
    if (!slot) return std::nullopt;
    return data_.scalar(store_.state(state).data() + net_->num_places(), *slot,
                        program_->initial_frame());
  }
  const DataContext& d = net_->net().initial_data();
  if (d.has(name)) return d.get(name);
  return std::nullopt;
}

std::vector<std::size_t> ReachabilityGraph::successors(std::size_t state) const {
  const auto out = edges_.out(state);
  std::vector<std::size_t> result;
  result.reserve(out.size());
  for (const Edge& e : out) result.push_back(e.target);
  return result;
}

void ReachabilityGraph::for_each_successor(
    std::size_t state, const std::function<void(std::size_t)>& fn) const {
  for (const Edge& e : edges_.out(state)) fn(e.target);
}

std::size_t ReachabilityGraph::memory_bytes() const {
  return store_.memory_bytes() + edges_.memory_bytes();
}

std::vector<std::size_t> ReachabilityGraph::deadlock_states() const {
  std::vector<std::size_t> out;
  // Only the expanded prefix: a frontier leftover's empty row says
  // "unexplored", not "stuck".
  for (std::size_t s = 0; s < num_expanded_; ++s) {
    if (edges_.out_degree(s) == 0) out.push_back(s);
  }
  return out;
}

TokenCount ReachabilityGraph::place_bound(PlaceId p) const {
  // Streaming arena scan: ascending ids fault each spilled segment once.
  TokenCount bound = 0;
  store_.for_each_state(0, store_.size(),
                        [&](std::size_t, std::span<const std::uint32_t> words) {
                          bound = std::max(bound, static_cast<TokenCount>(words[p.value]));
                        });
  return bound;
}

std::vector<TransitionId> ReachabilityGraph::dead_transitions() const {
  std::vector<bool> fired(net_->num_transitions(), false);
  // One streaming pass over the edge rows in source (= pool) order.
  edges_.for_each_row([&](std::size_t, std::span<const Edge> row) {
    for (const Edge& e : row) fired[e.transition.value] = true;
  });
  std::vector<TransitionId> out;
  for (std::uint32_t i = 0; i < fired.size(); ++i) {
    if (!fired[i]) out.push_back(TransitionId(i));
  }
  return out;
}

bool ReachabilityGraph::is_reversible() const {
  // Backward BFS from state 0 over a counting-sorted reverse CSR.
  const std::size_t n = store_.size();
  std::vector<std::uint32_t> in_off(n + 1, 0);
  // Two streaming passes over the edge rows (count, then fill): the
  // backward BFS below runs entirely on the reverse CSR, so a spilled edge
  // pool is faulted in exactly twice, in order, and never held resident.
  edges_.for_each_row([&](std::size_t, std::span<const Edge> row) {
    for (const Edge& e : row) ++in_off[e.target + 1];
  });
  for (std::size_t i = 1; i <= n; ++i) in_off[i] += in_off[i - 1];
  std::vector<std::uint32_t> pred(edges_.num_edges());
  {
    std::vector<std::uint32_t> cursor(in_off.begin(), in_off.end() - 1);
    for (std::size_t s = 0; s < n; ++s) {
      for (const Edge& e : edges_.out(s)) {
        pred[cursor[e.target]++] = static_cast<std::uint32_t>(s);
      }
    }
  }

  std::vector<std::uint8_t> can_reach_initial(n, 0);
  std::vector<std::uint32_t> stack{0};
  can_reach_initial[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const std::uint32_t s = stack.back();
    stack.pop_back();
    for (std::uint32_t i = in_off[s]; i < in_off[s + 1]; ++i) {
      const std::uint32_t p = pred[i];
      if (!can_reach_initial[p]) {
        can_reach_initial[p] = 1;
        ++reached;
        stack.push_back(p);
      }
    }
  }
  if (reached == n) return true;
  // Truncation honesty: only expanded states count against reversibility —
  // a frontier leftover's onward edges are unknown, so its failure to
  // reach the initial state within the prefix proves nothing.
  for (std::size_t s = 0; s < num_expanded_; ++s) {
    if (!can_reach_initial[s]) return false;
  }
  return true;
}

}  // namespace pnut::analysis
