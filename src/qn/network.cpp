#include "qn/network.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace latol::qn {

ClosedNetwork::ClosedNetwork(std::vector<Station> stations,
                             std::size_t num_classes)
    : stations_(std::move(stations)),
      population_(num_classes, 0),
      visits_(num_classes, stations_.size(), 0.0),
      service_(num_classes, stations_.size(), 0.0) {
  LATOL_REQUIRE(!stations_.empty(), "network needs at least one station");
  LATOL_REQUIRE(num_classes > 0, "network needs at least one class");
  for (const Station& st : stations_) {
    LATOL_REQUIRE(st.servers >= 1,
                  "station " << st.name << " has " << st.servers
                             << " servers");
  }
}

const Station& ClosedNetwork::station(std::size_t m) const {
  LATOL_REQUIRE(m < stations_.size(), "station index " << m);
  return stations_[m];
}

void ClosedNetwork::set_population(std::size_t c, long n) {
  LATOL_REQUIRE(c < num_classes(), "class index " << c);
  LATOL_REQUIRE(n >= 0, "population must be non-negative, got " << n);
  population_[c] = n;
}

long ClosedNetwork::population(std::size_t c) const {
  LATOL_REQUIRE(c < num_classes(), "class index " << c);
  return population_[c];
}

long ClosedNetwork::total_population() const {
  long total = 0;
  for (const long n : population_) total += n;
  return total;
}

void ClosedNetwork::set_visit_ratio(std::size_t c, std::size_t m, double v) {
  LATOL_REQUIRE(v >= 0.0 && std::isfinite(v), "visit ratio " << v);
  visits_(c, m) = v;
}

double ClosedNetwork::visit_ratio(std::size_t c, std::size_t m) const {
  return visits_(c, m);
}

void ClosedNetwork::set_service_time(std::size_t c, std::size_t m, double s) {
  LATOL_REQUIRE(s >= 0.0 && std::isfinite(s), "service time " << s);
  service_(c, m) = s;
}

double ClosedNetwork::service_time(std::size_t c, std::size_t m) const {
  return service_(c, m);
}

double ClosedNetwork::demand(std::size_t c, std::size_t m) const {
  return visits_(c, m) * service_(c, m);
}

double ClosedNetwork::total_demand(std::size_t c) const {
  double total = 0.0;
  for (std::size_t m = 0; m < num_stations(); ++m) total += demand(c, m);
  return total;
}

bool ClosedNetwork::is_product_form(double rel_tol) const {
  for (std::size_t m = 0; m < num_stations(); ++m) {
    if (stations_[m].kind != StationKind::kQueueing) continue;
    double ref = -1.0;
    for (std::size_t c = 0; c < num_classes(); ++c) {
      if (visits_(c, m) <= 0.0 || population_[c] == 0) continue;
      const double s = service_(c, m);
      if (ref < 0.0) {
        ref = s;
      } else if (std::fabs(s - ref) > rel_tol * std::max(1.0, ref)) {
        return false;
      }
    }
  }
  return true;
}

void ClosedNetwork::set_station_orbits(std::vector<std::uint32_t> orbit,
                                       std::vector<long> class_orbit_size) {
  LATOL_REQUIRE(orbit.size() == num_stations(),
                orbit.size() << " orbit ids for " << num_stations()
                             << " stations");
  if (class_orbit_size.empty()) class_orbit_size.assign(num_classes(), 1);
  LATOL_REQUIRE(class_orbit_size.size() == num_classes(),
                class_orbit_size.size() << " class orbit sizes for "
                                        << num_classes() << " classes");
  for (const long n : class_orbit_size) {
    LATOL_REQUIRE(n >= 1, "class orbit size " << n);
  }
  std::vector<long> size(orbit.size(), 0);
  std::size_t distinct = 0;
  std::size_t top = 0;
  for (const std::uint32_t o : orbit) {
    LATOL_REQUIRE(o < orbit.size(), "orbit id " << o);
    distinct += size[o] == 0 ? 1 : 0;
    ++size[o];
    top = std::max<std::size_t>(top, o);
  }
  LATOL_REQUIRE(top + 1 == distinct, "orbit ids must be dense from 0");
  orbit_ = std::move(orbit);
  orbits_ = distinct;
  weight_.resize(num_classes() * distinct);
  for (std::size_t c = 0; c < num_classes(); ++c) {
    for (std::size_t o = 0; o < distinct; ++o) {
      weight_[c * distinct + o] = static_cast<double>(class_orbit_size[c]) /
                                  static_cast<double>(size[o]);
    }
  }
}

void ClosedNetwork::require_no_orbits(const char* solver) const {
  LATOL_REQUIRE(!has_orbits(), solver << " does not read a station-orbit "
                                         "map; solve the full network");
}

void ClosedNetwork::validate() const {
  LATOL_REQUIRE(total_population() > 0,
                "closed network needs at least one customer");
  for (std::size_t c = 0; c < num_classes(); ++c) {
    if (population_[c] == 0) continue;
    LATOL_REQUIRE(total_demand(c) > 0.0,
                  "class " << c << " has customers but zero total demand");
  }
}

}  // namespace latol::qn
