#include "core/sweep.hpp"

#include <exception>
#include <string>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace latol::core {

std::vector<SweepResult> sweep(std::span<const MmsConfig> grid,
                               const SweepOptions& options) {
  std::vector<SweepResult> results(grid.size());
  util::parallel_for(
      grid.size(),
      [&](std::size_t i) {
        SweepResult& r = results[i];
        try {
          const MmsConfig& cfg = grid[i];
          // One actual solve, shared by both indices.
          if (options.network_tolerance) {
            const ToleranceResult t = tolerance_index(
                cfg, Subsystem::kNetwork, options.network_method, options.amva);
            r.perf = t.actual;
            r.tol_network = t.index;
            r.ideal_degraded |= t.ideal.degraded || !t.ideal.converged;
          } else {
            r.perf = analyze(cfg, options.amva);
          }
          if (options.memory_tolerance) {
            const ToleranceResult t =
                tolerance_index(cfg, r.perf, Subsystem::kMemory,
                                default_method(Subsystem::kMemory),
                                options.amva);
            r.tol_memory = t.index;
            r.ideal_degraded |= t.ideal.degraded || !t.ideal.converged;
          }
        } catch (const qn::SolverError& e) {
          r.error = e.what();
          r.error_code = e.code();
        } catch (const InvalidArgument& e) {
          r.error = e.what();
          r.error_code = qn::SolverErrorCode::kInvalidNetwork;
        } catch (const std::exception& e) {
          r.error = e.what();
        }
      },
      options.workers);
  return results;
}

}  // namespace latol::core
