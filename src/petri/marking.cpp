#include "petri/marking.h"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace pnut {

Marking Marking::initial(const Net& net) {
  Marking m(net.num_places());
  for (std::size_t i = 0; i < net.num_places(); ++i) {
    m.tokens_[i] = net.place(PlaceId(static_cast<std::uint32_t>(i))).initial_tokens;
  }
  return m;
}

void Marking::add(PlaceId p, TokenCount n) { add_tokens(tokens_.at(p.value), p, n); }

void Marking::remove(PlaceId p, TokenCount n) {
  TokenCount& slot = tokens_.at(p.value);
  if (slot < n) {
    throw std::underflow_error("Marking::remove: removing " + std::to_string(n) +
                               " tokens from place " + std::to_string(p.value) +
                               " which holds only " + std::to_string(slot));
  }
  slot -= n;
}

std::uint64_t Marking::total() const {
  std::uint64_t sum = 0;
  for (TokenCount t : tokens_) sum += t;
  return sum;
}

std::string Marking::to_string(const Net& net) const {
  std::ostringstream out;
  bool first = true;
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i] == 0) continue;
    if (!first) out << ' ';
    out << net.place(PlaceId(static_cast<std::uint32_t>(i))).name << '=' << tokens_[i];
    first = false;
  }
  if (first) out << "(empty)";
  return out.str();
}

std::size_t MarkingHash::operator()(const Marking& m) const noexcept {
  return static_cast<std::size_t>(hash_words(m.tokens().data(), m.tokens().size()));
}

bool tokens_available(const Net& net, const Marking& m, TransitionId t) {
  const Transition& tr = net.transition(t);
  for (const Arc& a : tr.inputs) {
    if (m[a.place] < a.weight) return false;
  }
  for (const Arc& a : tr.inhibitors) {
    if (m[a.place] >= a.weight) return false;
  }
  return true;
}

bool is_enabled(const Net& net, const Marking& m, TransitionId t, const DataContext& data) {
  if (!tokens_available(net, m, t)) return false;
  const Transition& tr = net.transition(t);
  if (tr.predicate && !tr.predicate(data)) return false;
  return true;
}

TokenCount enabling_degree(const Net& net, const Marking& m, TransitionId t) {
  const Transition& tr = net.transition(t);
  for (const Arc& a : tr.inhibitors) {
    if (m[a.place] >= a.weight) return 0;
  }
  TokenCount degree = std::numeric_limits<TokenCount>::max();
  bool has_input = false;
  for (const Arc& a : tr.inputs) {
    has_input = true;
    degree = std::min(degree, m[a.place] / a.weight);
  }
  // A source transition (no inputs) is enabled but its degree is
  // conventionally 1: nothing bounds it, and unbounded concurrent firing is
  // never what a model means.
  return has_input ? degree : 1;
}

std::vector<TransitionId> enabled_transitions(const Net& net, const Marking& m,
                                              const DataContext& data) {
  std::vector<TransitionId> out;
  for (std::size_t i = 0; i < net.num_transitions(); ++i) {
    const TransitionId t(static_cast<std::uint32_t>(i));
    if (is_enabled(net, m, t, data)) out.push_back(t);
  }
  return out;
}

}  // namespace pnut
