// The tolerance index — the paper's contribution (§4).
//
//   tol_subsystem = U_p(system) / U_p(ideal system)
//
// where the ideal system replaces the subsystem under study with a
// zero-delay one. The paper discusses two analytically feasible ways to
// obtain the ideal system's performance and prefers the workload
// modification for the network because it also applies to measurements on
// real machines:
//
//  - kZeroDelay:      set S = 0 (network) or L = 0 (memory);
//  - kModifyWorkload: set p_remote = 0 (network only).
//
// With kModifyWorkload the index may exceed 1 on large machines with good
// locality (§7): the finite-delay network pipelines remote accesses and
// relieves memory contention relative to the all-local ideal.
#pragma once

#include "core/mms_config.hpp"
#include "core/mms_model.hpp"
#include "qn/mva_approx.hpp"

namespace latol::core {

/// Subsystem whose latency tolerance is being quantified.
enum class Subsystem { kNetwork, kMemory };

/// How the ideal system's performance is obtained (§4).
enum class IdealMethod {
  kZeroDelay,       // zero-delay subsystem, access pattern unchanged
  kModifyWorkload,  // p_remote = 0; network only, the paper's preference
};

/// The paper's operating zones for a tolerance index.
enum class ToleranceZone {
  kTolerated,           // tol >= 0.8
  kPartiallyTolerated,  // 0.5 <= tol < 0.8
  kNotTolerated,        // tol < 0.5
};

/// Classify an index value into the paper's zones.
[[nodiscard]] ToleranceZone classify_tolerance(double index);

/// Human-readable zone name ("tolerated", ...).
[[nodiscard]] const char* zone_name(ToleranceZone zone);

/// A tolerance-index computation: the index plus both underlying analyses.
struct ToleranceResult {
  double index = 0.0;
  MmsPerformance actual;
  MmsPerformance ideal;
  [[nodiscard]] ToleranceZone zone() const { return classify_tolerance(index); }
};

/// Default ideal-system method per subsystem: the paper prefers workload
/// modification for the network; memory has no workload analogue, so it
/// uses the zero-delay subsystem.
[[nodiscard]] IdealMethod default_method(Subsystem subsystem);

/// The configuration of the ideal system for (config, subsystem, method).
/// Throws InvalidArgument for the unsupported (kMemory, kModifyWorkload)
/// combination.
[[nodiscard]] MmsConfig ideal_config(const MmsConfig& config,
                                     Subsystem subsystem, IdealMethod method);

/// Compute the tolerance index of `subsystem` for `config`, whose
/// actual system `actual` is already solved (analyze(config, options)):
/// only the ideal system is solved here, so callers that index several
/// subsystems solve the actual system once.
[[nodiscard]] ToleranceResult tolerance_index(
    const MmsConfig& config, const MmsPerformance& actual,
    Subsystem subsystem, IdealMethod method,
    const qn::AmvaOptions& options = {});

/// Compute the tolerance index of `subsystem` for `config`.
[[nodiscard]] ToleranceResult tolerance_index(
    const MmsConfig& config, Subsystem subsystem,
    IdealMethod method, const qn::AmvaOptions& options = {});

/// Overload using the subsystem's default method.
[[nodiscard]] ToleranceResult tolerance_index(
    const MmsConfig& config, Subsystem subsystem,
    const qn::AmvaOptions& options = {});

}  // namespace latol::core
