#include "qn/open/mixed.hpp"

#include <cmath>
#include <sstream>

#include "qn/solver_error.hpp"
#include "util/error.hpp"

namespace latol::qn {

MixedReport solve_mixed(const ClosedNetwork& closed, const OpenNetwork& open,
                        const RobustOptions& options) {
  closed.require_no_orbits("the mixed solver");
  const std::size_t stations = closed.num_stations();
  LATOL_REQUIRE(open.num_stations() == stations,
                "mixed network station counts differ: closed has "
                    << stations << ", open has " << open.num_stations());
  for (std::size_t m = 0; m < stations; ++m) {
    LATOL_REQUIRE(closed.station(m).kind == open.station(m).kind &&
                      closed.station(m).servers == open.station(m).servers,
                  "mixed network station " << m << " ("
                                           << closed.station(m).name
                                           << ") differs between the closed "
                                              "and open descriptions");
  }
  open.validate();

  // Open classes first: per-station open load, refusing saturation.
  std::vector<double> open_load(stations, 0.0);
  for (std::size_t m = 0; m < stations; ++m) {
    open_load[m] = open.offered_load(m);
    if (closed.station(m).kind == StationKind::kQueueing &&
        open_load[m] >= 1.0) {
      std::ostringstream msg;
      msg << "open traffic alone saturates station "
          << closed.station(m).name << " (open load " << open_load[m]
          << " >= 1 per server); no service capacity remains for the "
             "closed classes";
      throw SolverError(SolverErrorCode::kUnstable, msg.str());
    }
  }

  // Closed classes see service stretched by the open competition.
  MixedReport report{.closed = {},
                     .open = {},
                     .open_load = open_load,
                     .total_utilization = std::vector<double>(stations, 0.0),
                     .inflated = closed};
  for (std::size_t m = 0; m < stations; ++m) {
    if (closed.station(m).kind != StationKind::kQueueing) continue;
    if (open_load[m] <= 0.0) continue;
    const double inflation = 1.0 / (1.0 - open_load[m]);
    for (std::size_t c = 0; c < closed.num_classes(); ++c) {
      report.inflated.set_service_time(
          c, m, closed.service_time(c, m) * inflation);
    }
  }
  report.closed = robust_solve(report.inflated, options);

  // Open metrics: Jackson residence, then the closed-interference
  // correction at queueing stations. N_closed is the mean closed queue at
  // the station from the inflated solve (already the true mixed value).
  report.open = solve_jackson(open);
  if (report.closed.ok()) {
    for (std::size_t m = 0; m < stations; ++m) {
      if (closed.station(m).kind != StationKind::kQueueing) continue;
      const double n_closed = report.closed.solution.station_queue(m);
      const double servers =
          static_cast<double>(closed.station(m).servers);
      for (std::size_t c = 0; c < open.num_classes(); ++c) {
        if (open.visit_ratio(c, m) <= 0.0 || open.arrival_rate(c) <= 0.0)
          continue;
        const double s = open.service_time(c, m);
        const double w = s * (servers - 1.0) / servers +
                         (s / servers) * (1.0 + n_closed) /
                             (1.0 - open_load[m]);
        report.open.response_time[c] +=
            open.visit_ratio(c, m) * (w - report.open.waiting(c, m));
        report.open.waiting(c, m) = w;
        report.open.queue_length(c, m) = open.station_arrival(c, m) * w;
      }
    }
  }

  // Physical utilization: closed throughput x uninflated demand plus open
  // offered work, never exceeding the station's servers.
  for (std::size_t m = 0; m < stations; ++m) {
    double busy = open_load[m] * static_cast<double>(open.station(m).servers);
    if (report.closed.ok()) {
      for (std::size_t c = 0; c < closed.num_classes(); ++c) {
        busy += report.closed.solution.throughput[c] * closed.demand(c, m);
      }
    }
    report.total_utilization[m] =
        std::min(busy, static_cast<double>(closed.station(m).servers));
  }
  return report;
}

}  // namespace latol::qn
