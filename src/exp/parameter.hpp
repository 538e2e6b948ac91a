// The parameter table of the machine and the measure table of its answer.
//
// `config_fields()` has one row per settable core::MmsConfig field: its
// name, the paper's symbol as an alias, its `latol` flag and help line,
// its kind, and a getter and setter through double. Every surface that
// names a field derives from it, so no surface can miss one:
//  - every row is a scenario `base` key and a field of the solve-cache
//    key (SolveCache::config_key);
//  - the number and integer rows are sweep axes and parameter columns,
//    by name or alias, for scenarios and for `latol sweep --param`;
//  - the rows with a flag are the `latol` machine flags, and `latol help`
//    lists them with their help lines.
// `measures()` has one row per double member of core::MmsPerformance:
// the name that output columns and the solve-cache file use for it.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "core/mms_config.hpp"
#include "core/mms_model.hpp"

namespace latol::exp {

/// How a field's value is spelled, parsed and stored.
enum class FieldKind {
  kNumber,   ///< a double
  kInteger,  ///< an int
  kBool,     ///< true/false; its flag takes no value and sets true
  kChoice,   ///< one of ConfigField::choices, stored as the enum's index
};

/// One settable MmsConfig field.
struct ConfigField {
  const char* name;     ///< scenario key, axis and column name, key field
  const char* alias;    ///< the paper's symbol (n_t), or nullptr
  const char* flag;     ///< `latol` flag (--threads), or nullptr
  const char* metavar;  ///< the flag's value in help (N), or nullptr
  /// Help text of the flag ('\n' starts a continuation line); nullptr on
  /// a choice row, whose help lists its value names.
  const char* help;
  FieldKind kind;
  std::span<const char* const> choices;  ///< value names by enum index
  double (*get)(const core::MmsConfig&);
  void (*set)(core::MmsConfig&, double);

  /// True for the number and integer rows: the sweep axes.
  [[nodiscard]] bool is_axis() const {
    return kind == FieldKind::kNumber || kind == FieldKind::kInteger;
  }
};

/// Every settable MmsConfig field, in the order `latol help` lists them.
[[nodiscard]] std::span<const ConfigField> config_fields();

/// The row named `name` (aliases are not names), or nullptr.
[[nodiscard]] const ConfigField* find_field(std::string_view name);

/// The axis row named `name` or aliased `name`, or nullptr.
[[nodiscard]] const ConfigField* find_axis(std::string_view name);

/// As find_axis, but throws InvalidArgument listing the axes.
[[nodiscard]] const ConfigField& axis_field(std::string_view name);

/// A choice row's value names joined by '|' ("geometric|uniform").
[[nodiscard]] std::string choice_names(const ConfigField& field);

/// The enum index of `value` among a choice row's names. Throws
/// InvalidArgument "unknown <row> `value` (a|b|...)" for any other value.
[[nodiscard]] double choice_value(const ConfigField& field,
                                  std::string_view value);

/// Append the row's value in `config` to `out` as scenario JSON spells
/// it: a shortest round-trip number, true/false, or a choice name.
void append_value(std::string& out, const ConfigField& field,
                  const core::MmsConfig& config);

/// One double member of MmsPerformance.
struct Measure {
  const char* name;  ///< output column and solve-cache file key
  double core::MmsPerformance::*member;
};

/// Every double member of MmsPerformance.
[[nodiscard]] std::span<const Measure> measures();

/// The measure named `name`, or nullptr.
[[nodiscard]] const Measure* find_measure(std::string_view name);

}  // namespace latol::exp
