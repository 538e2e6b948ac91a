#include "core/thread_partition.hpp"

#include "util/error.hpp"

namespace latol::core {

std::vector<PartitionPoint> evaluate_partitions(
    const MmsConfig& base, double work, const std::vector<int>& thread_counts,
    IdealMethod network_method, const qn::AmvaOptions& options) {
  LATOL_REQUIRE(work > 0.0, "work budget " << work);
  LATOL_REQUIRE(!thread_counts.empty(), "no thread counts to evaluate");

  std::vector<PartitionPoint> out;
  out.reserve(thread_counts.size());
  for (const int n_t : thread_counts) {
    LATOL_REQUIRE(n_t >= 1, "thread count " << n_t);
    MmsConfig cfg = base;
    cfg.threads_per_processor = n_t;
    cfg.runlength = work / static_cast<double>(n_t);

    PartitionPoint pt;
    pt.n_t = n_t;
    pt.runlength = cfg.runlength;
    const ToleranceResult net = tolerance_index(cfg, Subsystem::kNetwork,
                                                network_method, options);
    pt.perf = net.actual;  // shared by both indices
    const ToleranceResult mem =
        tolerance_index(cfg, pt.perf, Subsystem::kMemory,
                        default_method(Subsystem::kMemory), options);
    pt.tol_network = net.index;
    pt.tol_memory = mem.index;
    out.push_back(pt);
  }
  return out;
}

PartitionPoint best_partition(const std::vector<PartitionPoint>& points) {
  LATOL_REQUIRE(!points.empty(), "no partition points");
  const PartitionPoint* best = &points.front();
  for (const PartitionPoint& pt : points) {
    const double u = pt.perf.processor_utilization;
    const double bu = best->perf.processor_utilization;
    if (u > bu + 1e-12 || (std::abs(u - bu) <= 1e-12 && pt.n_t < best->n_t)) {
      best = &pt;
    }
  }
  return *best;
}

}  // namespace latol::core
