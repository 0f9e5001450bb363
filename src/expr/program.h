// Whole-net expression compilation: ASTs -> bytecode, names -> slots.
//
// NetProgram::compile scans every hook attached to a Net — predicates,
// actions, computed firing/enabling delays — and, when all of them were
// built from expression source (expr/compile.h), produces the net's
// runtime program:
//
//   * a frozen DataSchema covering the complete variable universe (initial
//     data plus every scalar any action can create — assignment targets
//     are syntactic, so the universe is statically known and the state
//     encoding never has to widen mid-run);
//   * the initial DataFrame;
//   * per-transition bytecode (expr/vm.h) for each attached expression;
//   * per-action facts (ActionFacts) read off the compiled instruction
//     stream, user fn bodies included: does it draw, what can it write.
//
// Compilation is semantics-preserving down to error behaviour: names that
// can never resolve lower to throw instructions that raise the AST
// evaluator's EvalError at *evaluation* time, in the same order (arguments
// first) the AST evaluator would. Two things are rejected at compile time,
// where compile returns nullptr: a hook whose AST cannot be recovered (a
// hand-written C++ lambda) and a builtin arity mistake (which the AST
// evaluator only raises when the call runs). The simulators then keep the
// DataContext/AST path; the reachability builders reject the net.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "expr/vm.h"
#include "petri/data_frame.h"
#include "petri/net.h"

namespace pnut::expr {

/// Compile one expression AST against a schema. Throws CompileError (a
/// std::runtime_error) on builtin arity mistakes — the checks mirror
/// CallNode::eval's, just shifted to compile time.
class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[nodiscard]] Code compile_expression(const Node& ast, const DataSchema& schema);

/// Compile an action program (a statement sequence) into one code block.
[[nodiscard]] Code compile_program(const Program& program, const DataSchema& schema);

/// The bytecode runtime form of a whole net's expressions. Immutable after
/// compile; one shared_ptr is safely shared by any number of simulators,
/// exploration workers and query evaluators at once.
class NetProgram {
 public:
  /// Returns nullptr if any attached predicate/action/computed delay did
  /// not come from expr::compile_* (no AST to recover), or if an
  /// expression fails to compile (e.g. a builtin arity error — the AST
  /// evaluator raises it at evaluation time instead, so the simulators'
  /// AST path still runs models whose broken expression never fires).
  static std::shared_ptr<const NetProgram> compile(const Net& net);

  /// As above, but on failure fills `*error` with a one-line reason naming
  /// the transition and hook (`pnut check` reports it, the reachability
  /// builders throw it; the simulators use the silent overload and fall
  /// back to the AST path).
  static std::shared_ptr<const NetProgram> compile(const Net& net,
                                                   std::string* error);

  [[nodiscard]] const DataSchema& schema() const { return schema_; }
  [[nodiscard]] const DataFrame& initial_frame() const { return initial_frame_; }

  [[nodiscard]] const Code* predicate(TransitionId t) const {
    return opt(predicates_[t.value]);
  }
  [[nodiscard]] const Code* action(TransitionId t) const {
    return opt(actions_[t.value]);
  }
  /// What an action can do to a frame, from a scan of its Code::instrs.
  /// Exploration runs a draw-free action once per firing and stores per
  /// state only the slots some action writes.
  struct ActionFacts {
    bool draws = false;  ///< contains a kIrand (outcome depends on the rng)
    /// Value slots the action can write, ascending and unique: kStoreSlot's
    /// scalar slots plus the whole entry range of each kStoreTable's table.
    std::vector<std::uint32_t> writes;
  };
  /// Facts of t's action; empty (no draw, no writes) when t has none.
  [[nodiscard]] const ActionFacts& action_facts(TransitionId t) const {
    return action_facts_[t.value];
  }

  [[nodiscard]] const Code* firing_delay(TransitionId t) const {
    return opt(firing_delays_[t.value]);
  }
  [[nodiscard]] const Code* enabling_delay(TransitionId t) const {
    return opt(enabling_delays_[t.value]);
  }

 private:
  static const Code* opt(const std::optional<Code>& c) {
    return c ? &*c : nullptr;
  }

  DataSchema schema_;
  DataFrame initial_frame_;
  std::vector<std::optional<Code>> predicates_;
  std::vector<std::optional<Code>> actions_;
  std::vector<ActionFacts> action_facts_;
  std::vector<std::optional<Code>> firing_delays_;
  std::vector<std::optional<Code>> enabling_delays_;
};

}  // namespace pnut::expr
