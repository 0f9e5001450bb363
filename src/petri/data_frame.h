// Slot-addressed data state for interpreted nets: the runtime twin of
// DataContext, the way CompiledNet is the runtime twin of Net.
//
// A DataContext is the *description/boundary* form of an interpreted net's
// variables: string-keyed ordered maps, convenient to construct, diff and
// dump, and able to grow any name at any time. Executing against it costs a
// map lookup per variable touch and a tree of heap nodes per snapshot —
// which is exactly what the expression bytecode VM (src/expr/vm.h) and the
// exploration engines must not pay per state.
//
// DataSchema freezes the complete name universe of a net — every scalar and
// table the model can ever hold. That universe is statically known: it is
// the union of the initial data and the assignment targets of the attached
// action programs (assignment targets are syntactic, and actions cannot
// create tables). Each scalar gets a dense value slot; each table gets a
// contiguous run of entry slots. A DataFrame is then one flat int64 array
// indexed by those slots plus a per-scalar presence byte ("absent" and
// "= 0" are different states, exactly as in DataContext) — copyable with
// two memcpys, no allocation, no hashing.
//
// Frames never enter a state store in this form: the reachability builder
// keeps per state only the slots an action can write (its own word codec,
// analysis/reachability.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "petri/data_context.h"

namespace pnut {

/// Flat value storage addressed by DataSchema slots.
struct DataFrame {
  std::vector<std::int64_t> values;  ///< scalar slots, then table entries
  std::vector<std::uint8_t> present; ///< one byte per scalar slot

  /// Flat copy (the simulators' before-firing snapshot); keeps capacity.
  void assign(const DataFrame& other) {
    values.assign(other.values.begin(), other.values.end());
    present.assign(other.present.begin(), other.present.end());
  }

  friend bool operator==(const DataFrame&, const DataFrame&) = default;
};

/// Frozen name->slot layout; see file comment. Immutable once built.
class DataSchema {
 public:
  /// Upper bound on total value slots (scalars + table entries). Kept well
  /// under 2^32 so the uint32 slot indices, the 2-words-per-slot state
  /// words and the mmap'd spill segment offsets can never overflow; build()
  /// throws std::invalid_argument instead of wrapping.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 28;
  struct Table {
    std::string name;
    std::uint32_t base = 0;  ///< first entry's index into DataFrame::values
    std::uint32_t size = 0;  ///< number of entries
  };

  DataSchema() = default;

  /// Freeze the layout for `initial` plus `created_scalars` (scalar names
  /// actions may assign that the initial data does not define). Scalars
  /// and tables are laid out in name order, so the slot order is
  /// independent of discovery order.
  static DataSchema build(const DataContext& initial,
                          std::span<const std::string> created_scalars);

  [[nodiscard]] std::size_t num_scalars() const { return scalar_names_.size(); }
  [[nodiscard]] std::size_t num_values() const { return num_values_; }
  [[nodiscard]] const std::vector<std::string>& scalar_names() const {
    return scalar_names_;
  }
  [[nodiscard]] const std::vector<Table>& tables() const { return tables_; }

  /// Value-slot index of a scalar; nullopt if the name can never exist.
  [[nodiscard]] std::optional<std::uint32_t> scalar_slot(std::string_view name) const;
  /// Index into tables(); nullopt if no such table.
  [[nodiscard]] std::optional<std::uint32_t> table_index(std::string_view name) const;

  // --- frame <-> DataContext (boundary conversions) -------------------------

  /// Frame holding `data`'s values; schema scalars `data` lacks are absent.
  /// `data` must be covered by the schema (it is, by construction, for the
  /// net's initial data).
  [[nodiscard]] DataFrame make_frame(const DataContext& data) const;

  /// Materialize the description form (trace dumps, data() accessors,
  /// to_string): present scalars and all tables.
  [[nodiscard]] DataContext to_context(const DataFrame& frame) const;

 private:
  std::vector<std::string> scalar_names_;  ///< sorted; slot i = index i
  std::vector<Table> tables_;              ///< sorted by name
  std::size_t num_values_ = 0;
};

}  // namespace pnut
