// Shared helpers for the reproduction benches.
//
// Every `fig*`/`table*` binary reproduces one table or figure from the
// paper: it prints the same rows/series the paper reports and, when run
// with `--csv <dir>`, also writes plot-ready CSV files. Binaries take no
// required arguments and finish in seconds so `for b in build/bench/*; do
// $b; done` regenerates the whole evaluation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/latol.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "qn/robust.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace latol::bench {

/// Optional CSV output directory parsed from argv ("--csv <dir>").
class CsvSink {
 public:
  CsvSink(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--csv") dir_ = argv[i + 1];
    }
  }

  [[nodiscard]] bool enabled() const { return dir_.has_value(); }

  /// Open `<dir>/<name>.csv` with the given header, or null when disabled.
  [[nodiscard]] std::unique_ptr<util::CsvWriter> open(
      const std::string& name, const std::vector<std::string>& header) const {
    if (!dir_) return nullptr;
    return std::make_unique<util::CsvWriter>(*dir_ + "/" + name + ".csv",
                                             header);
  }

 private:
  std::optional<std::string> dir_;
};

/// Print the experiment banner plus the Table-1 default parameters the
/// run is based on, so every bench output is self-describing.
inline void print_header(const std::string& experiment,
                         const std::string& summary) {
  util::print_banner(std::cout, experiment);
  std::cout << summary << '\n';
  const core::MmsConfig d = core::MmsConfig::paper_defaults();
  std::cout << "Base parameters (paper Table 1): k=" << d.k
            << " (P=" << d.num_processors() << "), n_t="
            << d.threads_per_processor << ", R=" << d.runlength
            << ", C=" << d.context_switch << ", p_remote=" << d.p_remote
            << ", p_sw=" << d.traffic.p_sw << ", L=" << d.memory_latency
            << ", S=" << d.switch_delay << "\n\n";
}

/// Shorthand used across benches.
inline std::string zone_tag(double tol) {
  return core::zone_name(core::classify_tolerance(tol));
}

/// Marker appended next to a reported number that did not come from a
/// clean, converged solve of the requested solver; empty when clean.
inline std::string convergence_marker(const core::MmsPerformance& perf) {
  if (!perf.converged) return " [not converged]";
  if (perf.degraded)
    return std::string(" [degraded: ") + qn::solver_kind_name(perf.solver) +
           "]";
  return "";
}

/// Print one `[not converged]`/`[solve failed]` line per unhealthy sweep
/// grid point and return how many there were (0 = all results clean). Every
/// reproduction bench calls this after its tables so a diverged point can
/// never silently pose as a paper result.
inline int report_sweep_health(const std::vector<core::SweepResult>& results,
                               const std::string& context) {
  int unhealthy = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SweepResult& r = results[i];
    if (r.healthy() && !r.ideal_degraded) continue;
    ++unhealthy;
    if (r.error) {
      std::cout << "[solve failed] " << context << " point " << i << ": "
                << *r.error << '\n';
    } else if (r.ideal_degraded && r.healthy()) {
      std::cout << "[not converged] " << context << " point " << i
                << ": ideal-system solve degraded\n";
    } else {
      std::cout << "[not converged] " << context << " point " << i
                << ": answered by " << qn::solver_kind_name(r.perf.solver)
                << (r.perf.converged ? "" : ", iteration budget exhausted")
                << '\n';
    }
  }
  return unhealthy;
}

/// CSV cell values for the `solver` / `converged` columns every sweep CSV
/// carries (a failed point reports solver "error"). `converged` derives
/// from the shared qn::solve_converged predicate, the same one behind the
/// run-manifest counts — the bench CSVs and the scenario engine cannot
/// disagree about health.
inline std::string csv_solver(const core::SweepResult& r) {
  return r.error ? "error" : qn::solver_kind_name(r.perf.solver);
}
inline std::string csv_converged(const core::SweepResult& r) {
  return qn::solve_converged(r.error.has_value(), r.perf.converged) ? "1"
                                                                    : "0";
}
inline std::string csv_solver(const core::MmsPerformance& perf) {
  return qn::solver_kind_name(perf.solver);
}
inline std::string csv_converged(const core::MmsPerformance& perf) {
  return qn::solve_converged(false, perf.converged) ? "1" : "0";
}

/// Format a double the way CsvWriter's numeric overload does, for rows
/// that mix numbers with the solver/converged string cells.
inline std::string csv_num(double v) { return util::csv_number(v); }

/// The hooks one solve fires, by kind.
struct HookCount {
  std::uint64_t obs = 0;    ///< registry and trace-sink hooks
  std::uint64_t trace = 0;  ///< the solver's per-iteration trace branch
  [[nodiscard]] double total() const {
    return static_cast<double>(obs + trace);
  }
};

/// Count the hooks one solve of `cfg` fires, with a registry and a trace
/// sink installed: counter increments (a counter's value, an upper bound
/// on its add calls), one per gauge, timer and histogram observations,
/// span and instant events, plus one trace-pointer branch per iteration.
inline HookCount hooks_per_solve(const core::MmsConfig& cfg) {
  obs::Registry registry;
  obs::TraceSink sink;
  obs::Registry* const previous = obs::set_default_registry(&registry);
  obs::TraceSink* const previous_sink = obs::set_default_trace_sink(&sink);
  const core::MmsPerformance perf = core::analyze(cfg);
  obs::set_default_trace_sink(previous_sink);
  obs::set_default_registry(previous);
  const obs::Snapshot snapshot = registry.snapshot();
  HookCount n;
  n.obs = sink.event_count() + snapshot.gauges.size();
  for (const auto& c : snapshot.counters) n.obs += c.value;
  for (const auto& t : snapshot.timers) n.obs += t.count;
  for (const auto& h : snapshot.histograms) n.obs += h.count;
  n.trace = static_cast<std::uint64_t>(perf.solver_iterations);
  return n;
}

/// Guard for the DESIGN.md §9 overhead policy: with no registry installed
/// every obs hook is one load + predicted branch, and a default solve must
/// not pay more than ~1% for the instrumentation sprinkled through it.
/// Measures both sides min-of-interleaved-trials (robust against CPU
/// frequency drift), prices a solve at the hooks it actually fires
/// (hooks_per_solve), and compares. Returns 0 when within the 1% policy,
/// still 0 (with a loud warning) up to 10x the policy, and 1 only beyond
/// that — a hard failure means the disabled fast path grew a lock or an
/// allocation, not that the machine was noisy.
inline int check_disabled_instrumentation_overhead() {
  using Clock = std::chrono::steady_clock;
  const core::MmsConfig cfg = core::MmsConfig::paper_defaults();
  const HookCount hooks = hooks_per_solve(cfg);
  obs::Registry* const previous = obs::set_default_registry(nullptr);
  constexpr int kTrials = 5;
  constexpr int kHookBatch = 200000;
  double solve_seconds = std::numeric_limits<double>::infinity();
  double batch_seconds = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < kTrials; ++trial) {
    auto t0 = Clock::now();
    const core::MmsPerformance perf = core::analyze(cfg);
    auto t1 = Clock::now();
    // Consume the result so the solve cannot be elided.
    if (!(perf.processor_utilization >= 0.0)) std::abort();
    solve_seconds =
        std::min(solve_seconds,
                 std::chrono::duration<double>(t1 - t0).count());
    t0 = Clock::now();
    for (int i = 0; i < kHookBatch; ++i) {
      obs::count("bench.overhead.probe");
      // Defeat hoisting of the null-registry load out of the loop; the
      // measured cost must include the per-hook branch.
      asm volatile("" ::: "memory");
    }
    t1 = Clock::now();
    batch_seconds =
        std::min(batch_seconds,
                 std::chrono::duration<double>(t1 - t0).count());
  }
  obs::set_default_registry(previous);
  const double per_hook = batch_seconds / kHookBatch;
  const double share = per_hook * hooks.total() / solve_seconds;
  std::cout << "disabled-instrumentation overhead: " << per_hook * 1e9
            << " ns/hook x " << hooks.total() << " hooks (" << hooks.obs
            << " obs, " << hooks.trace
            << " trace branches) counted in a default solve of "
            << solve_seconds * 1e6 << " us = " << share * 100.0
            << "% (policy: <1%)\n";
  if (share > 0.10) {
    std::cout << "FAIL: disabled instrumentation is not near-free — the "
                 "null-registry fast path regressed\n";
    return 1;
  }
  if (share > 0.01) {
    std::cout << "warning: disabled-instrumentation overhead exceeds the "
                 "1% policy (noisy machine, or fast-path regression)\n";
  }
  return 0;
}

}  // namespace latol::bench
