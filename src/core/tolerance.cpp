#include "core/tolerance.hpp"

#include "util/error.hpp"

namespace latol::core {

ToleranceZone classify_tolerance(double index) {
  if (index >= 0.8) return ToleranceZone::kTolerated;
  if (index >= 0.5) return ToleranceZone::kPartiallyTolerated;
  return ToleranceZone::kNotTolerated;
}

const char* zone_name(ToleranceZone zone) {
  switch (zone) {
    case ToleranceZone::kTolerated:
      return "tolerated";
    case ToleranceZone::kPartiallyTolerated:
      return "partially tolerated";
    case ToleranceZone::kNotTolerated:
      return "not tolerated";
  }
  return "?";
}

IdealMethod default_method(Subsystem subsystem) {
  return subsystem == Subsystem::kNetwork ? IdealMethod::kModifyWorkload
                                          : IdealMethod::kZeroDelay;
}

MmsConfig ideal_config(const MmsConfig& config, Subsystem subsystem,
                       IdealMethod method) {
  MmsConfig ideal = config;
  switch (subsystem) {
    case Subsystem::kNetwork:
      if (method == IdealMethod::kZeroDelay) {
        ideal.switch_delay = 0.0;
      } else {
        ideal.p_remote = 0.0;
      }
      break;
    case Subsystem::kMemory:
      LATOL_REQUIRE(method == IdealMethod::kZeroDelay,
                    "memory tolerance has no workload-modification ideal "
                    "(every thread must access memory)");
      ideal.memory_latency = 0.0;
      break;
  }
  return ideal;
}

ToleranceResult tolerance_index(const MmsConfig& config,
                                const MmsPerformance& actual,
                                Subsystem subsystem, IdealMethod method,
                                const qn::AmvaOptions& options) {
  ToleranceResult result;
  result.actual = actual;
  result.ideal = analyze(ideal_config(config, subsystem, method), options);
  LATOL_REQUIRE(result.ideal.processor_utilization > 0.0,
                "ideal system has zero processor utilization");
  result.index =
      result.actual.processor_utilization / result.ideal.processor_utilization;
  return result;
}

ToleranceResult tolerance_index(const MmsConfig& config, Subsystem subsystem,
                                IdealMethod method,
                                const qn::AmvaOptions& options) {
  return tolerance_index(config, analyze(config, options), subsystem, method,
                         options);
}

ToleranceResult tolerance_index(const MmsConfig& config, Subsystem subsystem,
                                const qn::AmvaOptions& options) {
  return tolerance_index(config, subsystem, default_method(subsystem), options);
}

}  // namespace latol::core
