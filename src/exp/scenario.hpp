// Declarative experiment scenarios (see DESIGN.md §8 for the JSON
// schema).
//
// A scenario file describes one batch experiment: an MMS base
// configuration, parameter axes whose cross-product forms the evaluation
// grid (an axis is a value list, a from/to/steps range, or a zipped group
// of parameters varied together — how Table 3 holds n_t x R constant),
// the outputs wanted per grid point (tolerance indices, metric columns,
// optional simulator validation), and solver options. Every hand-coded
// fig*/table* bench is expressible as such a file; `scenarios/` ships the
// ones that reproduce the paper byte-for-byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/mms_config.hpp"
#include "core/mms_model.hpp"
#include "core/tolerance.hpp"
#include "exp/parameter.hpp"
#include "io/json.hpp"
#include "qn/mva_approx.hpp"

namespace latol::exp {

/// One parameter varied along an axis.
struct AxisComponent {
  const ConfigField* field = nullptr;  ///< an axis row of config_fields()
  std::vector<double> values;  ///< explicit list, or an expanded range
};

/// One grid axis. A single component is the common case; multiple
/// components of equal length are "zipped" — varied in lockstep, like the
/// (n_t, R) splits of a fixed work budget.
struct Axis {
  std::vector<AxisComponent> components;

  /// Number of grid steps along this axis.
  [[nodiscard]] std::size_t size() const {
    return components.empty() ? 0 : components.front().values.size();
  }
};

/// Optional per-point simulator validation.
struct ValidationSpec {
  std::string engine = "des";  ///< "des" | "petri"
  double sim_time = 20000.0;
  std::uint64_t seed = 1;  ///< point i simulates with seed `seed + i`
  /// Grid-point indices to simulate; empty = every point.
  std::vector<std::size_t> points;
};

/// A parsed scenario.
struct Scenario {
  std::string name;
  std::string description;
  core::MmsConfig base = core::MmsConfig::paper_defaults();
  std::vector<Axis> axes;  ///< first axis outermost in grid order

  // --- requested outputs ---
  bool network_tolerance = false;
  bool memory_tolerance = false;
  core::IdealMethod network_method = core::IdealMethod::kModifyWorkload;
  /// Result columns (CSV order / JSON row keys). Empty selects the
  /// default set: axis parameters, then the headline metrics.
  std::vector<std::string> columns;
  std::optional<ValidationSpec> validation;

  // --- solver options ---
  qn::AmvaOptions amva{};
  /// Analytical machinery for every grid point: "amva" (default),
  /// "linearizer", or "fesc" (hierarchical decomposition — symmetric
  /// configs only; see core/hierarchical.hpp).
  core::SolveMethod method = core::SolveMethod::kAmva;
  std::size_t workers = 0;  ///< 0 = hardware concurrency
  /// Chain lattice-neighbor warm-start hints along the fastest-varying
  /// axis (qn/hints.hpp, DESIGN.md §15.1); every run of the scenario
  /// honors it.
  bool warm_start = false;

  /// FNV-1a hash of the canonical (compact) source document; identifies
  /// the scenario content in manifests and caches.
  std::uint64_t source_hash = 0;

  /// The columns actually emitted (explicit list, or the default set).
  [[nodiscard]] std::vector<std::string> output_columns() const;
};

/// Stable FNV-1a content hash of a JSON document (over its compact dump,
/// so formatting differences do not change the hash).
[[nodiscard]] std::uint64_t content_hash(const io::Json& doc);

/// Build a Scenario from a parsed JSON document. Strict: unknown keys,
/// wrong types, unknown parameter/column names, and ragged zip axes are
/// all InvalidArgument with a message naming the offending key.
[[nodiscard]] Scenario scenario_from_json(const io::Json& doc);

/// Parse `path` and build the scenario; JSON syntax errors carry
/// line/column diagnostics.
[[nodiscard]] Scenario load_scenario(const std::string& path);

/// Number of points in the axes' cross-product (1 for a scenario without
/// axes: the base configuration alone).
[[nodiscard]] std::size_t grid_size(const Scenario& s);

/// The configuration at grid position `index`. Grid order is the axes'
/// cross-product with the first axis outermost and the last fastest; it
/// is deterministic and documented, so later scenarios and cached runs
/// may rely on it. O(#axes) per call, so a million-point sweep never
/// holds the whole grid in memory. Requires index < grid_size(s).
[[nodiscard]] core::MmsConfig config_at(const Scenario& s,
                                        std::size_t index);

/// The `steps` evenly spaced points from `from` to `to` (`from` alone
/// when steps is 1): the values of a range axis, and of `latol sweep`.
[[nodiscard]] std::vector<double> range_values(double from, double to,
                                               int steps);

/// True when `column` is a valid output column name: an axis row by name
/// or alias, a measure, or one of the other metric columns (DESIGN.md §8).
[[nodiscard]] bool is_known_column(const std::string& column);

}  // namespace latol::exp
