// Multi-class open queueing network description.
//
// The closed-network substrate (qn/network.hpp) models the paper's fixed
// thread population; this is its open counterpart: each class is an
// external Poisson stream that enters the network, visits stations, and
// departs to a sink. Stations are shared with the closed world (same
// Station struct), so mixed open/closed models (qn/open/mixed.hpp) can put
// both kinds of traffic on one set of service centers.
//
// Workloads are described by per-class visit ratios (mean visits per
// job): product-form metrics depend only on per-station arrival rates, so
// a routing matrix would carry nothing the Jackson solution uses.
#pragma once

#include <cstddef>
#include <vector>

#include "qn/network.hpp"
#include "util/matrix.hpp"

namespace latol::qn {

/// A multi-class open queueing network: per-class Poisson arrival rates,
/// visit ratios, and service times.
/// Stability (utilization < 1 everywhere) is the *solver's* concern
/// (jackson.hpp raises SolverErrorCode::kUnstable); `validate()` checks
/// the description itself is well-formed.
class OpenNetwork {
 public:
  /// `stations` defines the service centers; `num_classes` open classes
  /// are created with zero arrival rate, zero visit ratios, and zero
  /// service.
  OpenNetwork(std::vector<Station> stations, std::size_t num_classes);

  [[nodiscard]] std::size_t num_stations() const { return stations_.size(); }
  [[nodiscard]] std::size_t num_classes() const { return arrival_.size(); }
  [[nodiscard]] const Station& station(std::size_t m) const;

  /// External Poisson arrival rate of class `c` (jobs per time unit).
  /// Throws InvalidArgument on a negative or non-finite rate, naming the
  /// class — bad rates are rejected at the door, not discovered as NaN
  /// utilizations three solvers later.
  void set_arrival_rate(std::size_t c, double lambda);
  [[nodiscard]] double arrival_rate(std::size_t c) const;

  /// Mean visits by a class-`c` job to station `m` between arrival and
  /// departure.
  void set_visit_ratio(std::size_t c, std::size_t m, double v);
  [[nodiscard]] double visit_ratio(std::size_t c, std::size_t m) const;

  /// Mean service time of a class-`c` job at station `m`.
  void set_service_time(std::size_t c, std::size_t m, double s);
  [[nodiscard]] double service_time(std::size_t c, std::size_t m) const;

  /// Arrival rate of class-`c` jobs at station `m`:
  /// lambda_c x visit_ratio(c, m).
  [[nodiscard]] double station_arrival(std::size_t c, std::size_t m) const;

  /// Total offered load per server at station `m`:
  /// sum_c station_arrival(c, m) x s_{c,m} / servers. The quantity the
  /// stability check compares against 1.
  [[nodiscard]] double offered_load(std::size_t m) const;

  /// Throws InvalidArgument unless the description is well-formed: at
  /// least one class has a positive arrival rate, and every class with
  /// arrivals has positive total visits. (Rates and ratios are already
  /// range-checked at set time.)
  void validate() const;

 private:
  std::vector<Station> stations_;
  std::vector<double> arrival_;
  util::Matrix visits_;   // classes x stations
  util::Matrix service_;  // classes x stations
};

}  // namespace latol::qn
