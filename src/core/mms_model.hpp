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
#include <cstdint>
#include <memory>
#include <string_view>
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
  /// Validates `config` and builds the topology. The traffic pattern is
  /// not precomputed: its rows are built when first read, so class 0's
  /// reduced solve touches row 0 alone. Reading fills rows, so a model is
  /// not shared across threads.
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

/// Node orbits of a symmetry group of the model's full network: node
/// permutations that carry every class row onto another class's row.
struct NodeOrbits {
  /// Orbit of each node, numbered in order of the orbits' smallest nodes,
  /// so node 0's orbit is 0.
  std::vector<std::uint32_t> of;
  /// Smallest node of each orbit: the class that represents it.
  std::vector<std::size_t> rep;
  /// Node count of each orbit.
  std::vector<long> size;
  /// The group's non-identity elements, as node permutations (empty for
  /// the trivial group and for the unlisted translations of class 0's
  /// reduction).
  std::vector<std::vector<std::size_t>> elements;
  /// Order of the group.
  std::size_t group = 1;
};

/// The point group of a mesh or a torus with a hotspot (DESIGN.md §2.3):
/// of the seven non-identity elements of D4 about the mesh centre, or
/// about the hotspot on a torus, the ones that carry every class row of
/// the full network onto its image within 1e-12 relative, and the node
/// orbits they generate. The trivial group, one orbit per node, when none
/// does, p_remote = 0, or the machine is neither.
[[nodiscard]] NodeOrbits point_group_orbits(const MmsModel& model);

/// Headline performance measures as seen from node 0 (class 0, its
/// processor and memory). They describe the whole machine only under
/// SPMD symmetry (vertex-transitive topology, no hotspot); on a mesh or
/// with a hotspot they are node 0's view alone (ROADMAP item 1), though
/// a symmetry-group reduction computes them.
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

/// Inverse of solve_method_name; throws InvalidArgument "unknown solver
/// `name` (amva|linearizer|fesc)" for any other name.
[[nodiscard]] SolveMethod parse_solve_method(std::string_view name);

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
  /// When non-null, receives the raw accepted closed-network solution (of
  /// class 0's reduction when one applied) — the sweep engine chains it
  /// into the next lattice point's hint.
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
///
/// With an AMVA-first chain and no open arrivals the kernel iterates one
/// class per symmetry orbit of nodes (DESIGN.md §2.3): node 0's processor
/// and memory when p_remote = 0; class 0's row with one station orbit per
/// PE type on a torus, ring or hypercube without a hotspot; and one class
/// per orbit of point_group_orbits() on a mesh or a torus with a hotspot.
/// A trivial group solves the full network; a failed reduced AMVA
/// re-solves it through the rest of the chain.
[[nodiscard]] MmsPerformance analyze(const MmsConfig& config,
                                     const qn::AmvaOptions& options = {});

/// Full-control variant: solve with an explicit fallback chain and hand
/// back the complete SolveReport (per-attempt diagnostics, residual, wall
/// time) alongside the derived measures. The report's solution is of the
/// network that answered: class 0's reduction when one applied.
struct RobustAnalysis {
  MmsPerformance perf;
  qn::SolveReport report;
};
/// Solve `config` through the qn::robust_solve fallback chain, reduced as
/// `analyze` is, and return the measures with the full per-attempt report.
[[nodiscard]] RobustAnalysis analyze_robust(const MmsConfig& config,
                                            const qn::RobustOptions& options = {});

/// Overload with solver selection.
[[nodiscard]] MmsPerformance analyze(const MmsConfig& config,
                                     const AnalysisOptions& options);

/// As `analyze_robust`, but always on the full P-class network, handed
/// back with the report for callers that need station-level detail.
struct DetailedAnalysis {
  MmsPerformance perf;
  qn::ClosedNetwork network;
  qn::SolveReport report;  ///< report.solution is `network`'s solution
};
/// Solve MmsModel::build_network() for `config` through the fallback chain
/// and return the measures together with the network and the report.
[[nodiscard]] DetailedAnalysis analyze_detailed(
    const MmsConfig& config, const qn::RobustOptions& options = {});

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
