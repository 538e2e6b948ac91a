// The paper's closed queueing network model of the MMS (§2, Fig. 2) and
// the performance measures derived from its solution (Eqs. 1-3).
//
// Each processing element contributes four stations — processor, memory,
// inbound switch, outbound switch — and each processor's resident threads
// form one closed class of population n_t. A class-i cycle is:
//
//   P_i --(1-p_remote)--> M_i --> P_i
//   P_i --(p_remote)----> O_i -> I.. -> I_j -> M_j -> O_j -> I.. -> I_i -> P_i
//
// Visit ratios follow the remote-access distribution and dimension-order
// torus routing (em/eo/ei in the paper's notation).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/mms_config.hpp"
#include "qn/mva_approx.hpp"
#include "qn/network.hpp"
#include "qn/open/open_network.hpp"
#include "qn/robust.hpp"
#include "qn/solution.hpp"
#include "topo/topology.hpp"
#include "topo/traffic.hpp"

namespace latol::core {

/// Station indices for one processing element within the CQN.
struct PeStations {
  std::size_t processor;
  std::size_t memory;
  std::size_t inbound;
  std::size_t outbound;
};

/// Builds the CQN for an MmsConfig and maps nodes to station indices.
class MmsModel {
 public:
  /// Validates `config` and precomputes topology + traffic pattern.
  explicit MmsModel(const MmsConfig& config);

  [[nodiscard]] const MmsConfig& config() const { return config_; }
  [[nodiscard]] const topo::Topology& topology() const { return *topology_; }

  /// Remote-access distribution; only meaningful when p_remote > 0 and
  /// num_nodes >= 2 (it is still constructed for any machine with at
  /// least two nodes).
  [[nodiscard]] const topo::RemoteAccessDistribution& traffic() const;

  /// Average remote hop distance d_avg (0 when the machine has one node).
  [[nodiscard]] double average_distance() const;

  /// Station indices of processing element `node`.
  [[nodiscard]] static PeStations stations(int node);

  /// Class-`i` visit ratios over the 4P stations (the paper's em/eo/ei
  /// rules). One row of build_network(), exposed separately so the
  /// hierarchical solver can price a single class in O(P x d_avg) instead
  /// of materializing all P classes.
  [[nodiscard]] std::vector<double> class_visits(int i) const;

  /// Construct the full multi-class closed network (4P stations, P
  /// classes, populations n_t each) with the paper's visit ratios.
  [[nodiscard]] qn::ClosedNetwork build_network() const;

  /// Construct the open companion network for open_arrival_rate > 0: one
  /// open class per node, each a Poisson stream of one-way remote memory
  /// requests (source outbound -> inbound hops -> destination memory ->
  /// sink) at the configured rate, destinations drawn from the same
  /// remote-access distribution as thread traffic. Same stations as
  /// build_network(), so the two compose in qn::solve_mixed. Requires a
  /// machine with at least two nodes.
  [[nodiscard]] qn::OpenNetwork build_open_network() const;

 private:
  MmsConfig config_;
  std::unique_ptr<topo::Topology> topology_;
  // The traffic distribution holds a reference to *topology_, so the
  // model is non-copyable by design.
  std::unique_ptr<topo::RemoteAccessDistribution> traffic_;
};

/// Headline performance measures as seen from node 0 (class 0, its
/// processor and memory). They describe the whole machine only under
/// SPMD symmetry (vertex-transitive topology, no hotspot); on a mesh or
/// with a hotspot they are node 0's view alone (ROADMAP item 2).
struct MmsPerformance {
  double processor_utilization = 0;  ///< U_p = lambda * R (Eq. 3)
  double access_rate = 0;            ///< lambda_i: memory accesses per time unit
  double message_rate = 0;           ///< lambda_net = lambda * p_remote (Eq. 2)
  double network_latency = 0;        ///< S_obs: observed one-way latency (Eq. 1)
  double memory_latency = 0;         ///< L_obs: observed memory latency
  double memory_utilization = 0;     ///< per-port utilization of a memory module
  double switch_utilization = 0;     ///< max utilization over all switches
  double average_distance = 0;       ///< d_avg of the remote pattern
  /// Mean end-to-end latency of one background open request sourced at
  /// this node (mixed open/closed solve, DESIGN.md §12); 0 for a purely
  /// closed config.
  double open_latency = 0;
  /// Max per-server utilization any station owes to open traffic alone
  /// (the mixed solve's stability margin; the solver refuses >= 1). 0 for
  /// a purely closed config.
  double open_utilization = 0;
  long solver_iterations = 0;        ///< solver iterations used
  bool converged = true;             ///< solver convergence flag
  qn::SolverKind solver = qn::SolverKind::kAmva;  ///< producer of the numbers
  bool degraded = false;  ///< a fallback solver answered, not the requested one
  double residual = 0;    ///< Schweitzer fixed-point residual of the solution
  double littles_law_error = 0;   ///< qn::InvariantReport — N = X*R per class
  double flow_balance_error = 0;  ///< qn::InvariantReport — visit-ratio gaps
  /// Per-iteration convergence deltas of the accepted solve; populated only
  /// when AmvaOptions::record_trace was set (DESIGN.md §9), possibly capped
  /// at obs::ConvergenceTrace::kDefaultCapacity entries.
  std::vector<double> residual_history;
};

/// Which analytical machinery answers an analyze() call.
///
/// The paper's algorithm (its Fig. 3) is Bard-Schweitzer AMVA, which our
/// own validation shows underestimates U_p by ~3% at the defaults — the
/// same "model predictions are slightly lower than the simulations" bias
/// the paper reports. Linearizer closes that gap (matches long
/// simulations to <0.1%) at ~(P+1)x3 the cost. The hierarchical FESC
/// decomposition trades a few percent of accuracy for solves that scale
/// to machines far beyond the multi-class solvers (DESIGN.md §12.5).
enum class SolveMethod {
  kAmva,          ///< Bard–Schweitzer AMVA through the robust chain
  kLinearizer,    ///< Linearizer-first robust chain
  kHierarchical,  ///< FESC decomposition (core/hierarchical.hpp)
};

/// Stable lowercase identifier ("amva", "linearizer", "fesc") used in
/// scenario files and cache keys.
[[nodiscard]] const char* solve_method_name(SolveMethod method);

/// Knobs for the analyze() overload with solver selection.
struct AnalysisOptions {
  qn::AmvaOptions amva{};
  SolveMethod method = SolveMethod::kAmva;
  /// Warm-start hints forwarded to the AMVA/Linearizer links of the
  /// robust chain (qn/hints.hpp, DESIGN.md §15). Ignored by the
  /// hierarchical method (FESC is not an iterative MVA). Not owned; must
  /// outlive the call. nullptr keeps the plain kernels, bit-identical to
  /// earlier releases.
  const qn::SolveHints* hints = nullptr;
  /// When non-null, receives the raw accepted closed-network solution —
  /// the sweep engine chains it into the next lattice point's hint.
  /// Left empty by the hierarchical method (it never materializes a
  /// full multi-class solution).
  qn::MvaSolution* solution_out = nullptr;
};

/// Solve the model through qn::robust_solve (AMVA first, degrading through
/// Linearizer -> exact MVA -> asymptotic bounds on failure) and derive the
/// paper's measures (for class 0; all classes are statistically identical
/// under the SPMD assumption). A degraded answer is flagged in
/// MmsPerformance::degraded/solver; throws qn::SolverError only when even
/// the full fallback chain produced nothing.
[[nodiscard]] MmsPerformance analyze(const MmsConfig& config,
                                     const qn::AmvaOptions& options = {});

/// Full-control variant: solve with an explicit fallback chain and hand
/// back the complete SolveReport (per-attempt diagnostics, residual, wall
/// time) alongside the derived measures.
struct RobustAnalysis {
  MmsPerformance perf;
  qn::SolveReport report;
};
/// Solve `config` through the qn::robust_solve fallback chain and return
/// the performance measures with the full per-attempt report.
[[nodiscard]] RobustAnalysis analyze_robust(const MmsConfig& config,
                                            const qn::RobustOptions& options = {});

/// Overload with solver selection.
[[nodiscard]] MmsPerformance analyze(const MmsConfig& config,
                                     const AnalysisOptions& options);

/// As `analyze`, but also hands back the network and the raw solution for
/// callers that need station-level detail (tests, benches).
struct DetailedAnalysis {
  MmsPerformance perf;
  qn::ClosedNetwork network;
  qn::MvaSolution solution;
};
/// Solve `config` with AMVA and return the measures together with the
/// network and raw solution.
[[nodiscard]] DetailedAnalysis analyze_detailed(
    const MmsConfig& config, const qn::AmvaOptions& options = {});

/// Extract MmsPerformance from an already-computed solution of the network
/// built by MmsModel::build_network(), from the viewpoint of the threads
/// resident on `node` (class index == node index). Under the paper's SPMD
/// symmetry every node reports the same numbers; with a traffic hotspot
/// they differ per node.
[[nodiscard]] MmsPerformance extract_performance(const MmsModel& model,
                                                 const qn::ClosedNetwork& net,
                                                 const qn::MvaSolution& sol,
                                                 int node = 0);

/// Solve once and report every node's performance (for asymmetric
/// workloads such as hotspot traffic).
[[nodiscard]] std::vector<MmsPerformance> analyze_per_node(
    const MmsConfig& config, const qn::AmvaOptions& options = {});

}  // namespace latol::core
