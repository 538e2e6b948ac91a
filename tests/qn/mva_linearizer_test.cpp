#include "qn/mva_linearizer.hpp"

#include <gtest/gtest.h>

#include "qn/mva_approx.hpp"
#include "qn/mva_exact.hpp"
#include "util/error.hpp"

namespace latol::qn {
namespace {

ClosedNetwork cyclic(long n, const std::vector<double>& demands) {
  std::vector<Station> stations;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    stations.push_back({"s", StationKind::kQueueing});
    stations.back().name += std::to_string(i);
  }
  ClosedNetwork net(std::move(stations), 1);
  net.set_population(0, n);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    net.set_visit_ratio(0, i, 1.0);
    net.set_service_time(0, i, demands[i]);
  }
  return net;
}

ClosedNetwork two_class_shared(long n0, long n1, double r0, double r1,
                               double mem) {
  ClosedNetwork net({{"p0", StationKind::kQueueing},
                     {"p1", StationKind::kQueueing},
                     {"mem", StationKind::kQueueing}},
                    2);
  net.set_population(0, n0);
  net.set_population(1, n1);
  net.set_visit_ratio(0, 0, 1.0);
  net.set_visit_ratio(1, 1, 1.0);
  net.set_visit_ratio(0, 2, 1.0);
  net.set_visit_ratio(1, 2, 1.0);
  net.set_service_time(0, 0, r0);
  net.set_service_time(1, 1, r1);
  net.set_service_time(0, 2, mem);
  net.set_service_time(1, 2, mem);
  return net;
}

TEST(Linearizer, ExactForSingleCustomer) {
  const auto net = cyclic(1, {3.0, 7.0});
  EXPECT_NEAR(solve_linearizer(net).throughput[0],
              solve_mva_exact(net).throughput[0], 1e-9);
}

TEST(Linearizer, MoreAccurateThanSchweitzerSingleClass) {
  for (const long n : {3L, 6L, 12L}) {
    const auto net = cyclic(n, {10.0, 3.0, 1.0});
    const double exact = solve_mva_exact(net).throughput[0];
    const double lin = solve_linearizer(net).throughput[0];
    const double schw = solve_amva(net).throughput[0];
    EXPECT_LE(std::fabs(lin - exact), std::fabs(schw - exact) + 1e-12)
        << "N=" << n;
    EXPECT_NEAR(lin, exact, 0.01 * exact) << "N=" << n;
  }
}

TEST(Linearizer, MoreAccurateThanSchweitzerMultiClass) {
  const auto net = two_class_shared(6, 2, 8.0, 3.0, 4.0);
  const auto exact = solve_mva_exact(net);
  const auto lin = solve_linearizer(net);
  const auto schw = solve_amva(net);
  for (std::size_t c = 0; c < 2; ++c) {
    const double e = exact.throughput[c];
    EXPECT_LE(std::fabs(lin.throughput[c] - e),
              std::fabs(schw.throughput[c] - e) + 1e-12)
        << "class " << c;
    EXPECT_NEAR(lin.throughput[c], e, 0.02 * e);
  }
}

TEST(Linearizer, PopulationConserved) {
  const auto net = two_class_shared(4, 4, 10.0, 10.0, 6.0);
  const auto sol = solve_linearizer(net);
  double total = 0.0;
  for (std::size_t m = 0; m < 3; ++m) total += sol.station_queue(m);
  EXPECT_NEAR(total, 8.0, 1e-6);
}

TEST(Linearizer, HandlesZeroPopulationClass) {
  auto net = two_class_shared(3, 0, 5.0, 5.0, 2.0);
  const auto sol = solve_linearizer(net);
  EXPECT_EQ(sol.throughput[1], 0.0);
  EXPECT_GT(sol.throughput[0], 0.0);
}

TEST(Linearizer, AgreesWithSchweitzerOnMmsScaleNetwork) {
  // Sanity: on a well-behaved symmetric network the two approximations
  // land close together (and Linearizer is the better one).
  ClosedNetwork net({{"p0", StationKind::kQueueing},
                     {"p1", StationKind::kQueueing},
                     {"p2", StationKind::kQueueing},
                     {"mem", StationKind::kQueueing}},
                    3);
  for (std::size_t c = 0; c < 3; ++c) {
    net.set_population(c, 5);
    net.set_visit_ratio(c, c, 1.0);
    net.set_visit_ratio(c, 3, 1.0);
    net.set_service_time(c, c, 10.0);
    net.set_service_time(c, 3, 3.0);
  }
  const auto lin = solve_linearizer(net);
  const auto schw = solve_amva(net);
  EXPECT_NEAR(lin.throughput[0], schw.throughput[0],
              0.05 * schw.throughput[0]);
  EXPECT_NEAR(lin.throughput[0], lin.throughput[2], 1e-8);
}

TEST(Linearizer, ValidatesOptions) {
  const auto net = cyclic(2, {1.0, 1.0});
  LinearizerOptions bad;
  bad.outer_iterations = 0;
  EXPECT_THROW((void)solve_linearizer(net, bad), InvalidArgument);
}

}  // namespace
}  // namespace latol::qn
