// Configuration of the multithreaded multiprocessor system (MMS).
//
// One struct carries the paper's workload parameters (n_t, R, C, p_remote,
// access pattern) and architectural parameters (L, S, k) — Table 1 of the
// paper. `paper_defaults()` returns the reconstructed default setting
// (see DESIGN.md §3 for how each OCR-damaged value was pinned down).
#pragma once

#include "topo/traffic.hpp"

namespace latol::core {

/// Full parameterization of the analyzed machine + workload.
struct MmsConfig {
  // --- architecture ---
  /// Interconnect family. The paper's machine is the 2-D torus; the mesh,
  /// ring, and hypercube are supported for topology studies.
  topo::TopologyKind topology = topo::TopologyKind::kTorus2D;
  /// Size parameter: nodes per dimension (torus/mesh), node count (ring),
  /// or dimension (hypercube, 2^k nodes).
  int k = 4;
  double memory_latency = 10;  ///< L: memory access time, no queueing
  double switch_delay = 10;    ///< S: per-switch routing time

  /// §7 extensions the paper suggests but does not evaluate:
  /// parallel ports per memory module ("multiporting/pipelining the
  /// memory can be of help")...
  int memory_ports = 1;
  /// ...and pipelined (wormhole-style) switches that never serialize
  /// traffic, modeled as pure-delay stations.
  bool pipelined_switches = false;

  // --- workload ---
  int threads_per_processor = 8;  ///< n_t
  double runlength = 10;          ///< R: mean thread runlength
  double context_switch = 0;      ///< C: context switch overhead
  double p_remote = 0.2;          ///< probability an access is remote
  topo::TrafficConfig traffic{};  ///< remote destination distribution

  /// Background open traffic (DESIGN.md §12): each node additionally
  /// sources a Poisson stream of one-way remote memory requests at this
  /// rate (requests per time unit per node), drawn from the same remote
  /// destination distribution as thread accesses — so hotspot configs
  /// concentrate the burst. 0 (the default, and the paper's machine)
  /// means a purely closed system; > 0 engages the mixed open/closed
  /// solver and the simulator's Poisson sources.
  double open_arrival_rate = 0;

  /// Reconstruction ablation (see DESIGN.md §2.2): the paper's text gives
  /// only `eo_{i,j} = em_{i,j}`, which omits the *request's* pass through
  /// the source node's outbound switch; the paper's own Eq. 5 narrative
  /// ("2S time units to get on/off the IN") implies it is counted. We
  /// count it by default; setting this false reproduces the literal
  /// eo = em reading for the ablation bench.
  bool count_source_outbound = true;

  /// Number of processing elements (depends on the topology family).
  [[nodiscard]] int num_processors() const;

  /// Throws InvalidArgument on out-of-range parameters (negative delays,
  /// probabilities outside [0,1], remote accesses on a 1-node machine, a
  /// hotspot node off the machine...).
  void validate() const;

  /// The paper's Table 1 defaults, which are the member initializers
  /// above: k=4, n_t=8, R=10, p_remote=0.2, p_sw=0.5 (geometric,
  /// d_avg=1.733), L=10, S=10, C=0.
  [[nodiscard]] static MmsConfig paper_defaults();
};

}  // namespace latol::core
