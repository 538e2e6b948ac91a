#include "qn/open/open_network.hpp"

#include <cmath>

#include "util/error.hpp"

namespace latol::qn {

OpenNetwork::OpenNetwork(std::vector<Station> stations,
                         std::size_t num_classes)
    : stations_(std::move(stations)),
      arrival_(num_classes, 0.0),
      visits_(num_classes, stations_.size(), 0.0),
      service_(num_classes, stations_.size(), 0.0) {
  LATOL_REQUIRE(!stations_.empty(), "open network needs at least one station");
  LATOL_REQUIRE(num_classes > 0, "open network needs at least one class");
  for (const Station& st : stations_) {
    LATOL_REQUIRE(st.servers >= 1,
                  "station " << st.name << " has " << st.servers
                             << " servers");
  }
}

const Station& OpenNetwork::station(std::size_t m) const {
  LATOL_REQUIRE(m < stations_.size(), "station index " << m);
  return stations_[m];
}

void OpenNetwork::set_arrival_rate(std::size_t c, double lambda) {
  LATOL_REQUIRE(c < num_classes(), "class index " << c);
  LATOL_REQUIRE(std::isfinite(lambda),
                "class " << c << " arrival rate is not finite (" << lambda
                         << "); open streams need a real Poisson rate");
  LATOL_REQUIRE(lambda >= 0.0,
                "class " << c << " arrival rate is negative (" << lambda
                         << "); jobs cannot arrive at a negative rate");
  arrival_[c] = lambda;
}

double OpenNetwork::arrival_rate(std::size_t c) const {
  LATOL_REQUIRE(c < num_classes(), "class index " << c);
  return arrival_[c];
}

void OpenNetwork::set_visit_ratio(std::size_t c, std::size_t m, double v) {
  LATOL_REQUIRE(v >= 0.0 && std::isfinite(v), "visit ratio " << v);
  visits_(c, m) = v;
}

double OpenNetwork::visit_ratio(std::size_t c, std::size_t m) const {
  return visits_(c, m);
}

void OpenNetwork::set_service_time(std::size_t c, std::size_t m, double s) {
  LATOL_REQUIRE(s >= 0.0 && std::isfinite(s), "service time " << s);
  service_(c, m) = s;
}

double OpenNetwork::service_time(std::size_t c, std::size_t m) const {
  return service_(c, m);
}

double OpenNetwork::station_arrival(std::size_t c, std::size_t m) const {
  return arrival_[c] * visits_(c, m);
}

double OpenNetwork::offered_load(std::size_t m) const {
  double load = 0.0;
  for (std::size_t c = 0; c < num_classes(); ++c)
    load += station_arrival(c, m) * service_(c, m);
  return load / static_cast<double>(stations_[m].servers);
}

void OpenNetwork::validate() const {
  double total_rate = 0.0;
  for (const double lambda : arrival_) total_rate += lambda;
  LATOL_REQUIRE(total_rate > 0.0,
                "open network needs at least one class with a positive "
                "arrival rate");
  for (std::size_t c = 0; c < num_classes(); ++c) {
    if (arrival_[c] <= 0.0) continue;
    double total_visits = 0.0;
    for (std::size_t m = 0; m < num_stations(); ++m)
      total_visits += visits_(c, m);
    LATOL_REQUIRE(total_visits > 0.0,
                  "class " << c << " has arrival rate " << arrival_[c]
                           << " but zero total visits; set visit ratios "
                              "first");
  }
}

}  // namespace latol::qn
