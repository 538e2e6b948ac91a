#include "qn/convolution.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace latol::qn {

ConvolutionSolution solve_convolution(const ClosedNetwork& net) {
  net.validate();
  net.require_no_orbits("convolution");
  LATOL_REQUIRE(net.num_classes() == 1,
                "convolution solver handles single-class networks; got "
                    << net.num_classes() << " classes");
  for (std::size_t m = 0; m < net.num_stations(); ++m) {
    LATOL_REQUIRE(net.station(m).kind != StationKind::kQueueing ||
                      net.station(m).servers == 1,
                  "convolution solver handles single-server stations only");
  }
  const std::size_t M = net.num_stations();
  const long N = net.population(0);

  // Rescale demands so the largest is 1: G(n) would otherwise overflow or
  // underflow for large populations. Scaling demands by 1/a scales G(n) by
  // a^-n and throughput by a, which we undo at the end.
  double dmax = 0.0;
  for (std::size_t m = 0; m < M; ++m) dmax = std::max(dmax, net.demand(0, m));
  LATOL_REQUIRE(dmax > 0.0, "network has zero total demand");
  const double scale = dmax;

  const auto n_states = static_cast<std::size_t>(N) + 1;
  std::vector<double> g(n_states, 0.0);
  g[0] = 1.0;
  for (std::size_t m = 0; m < M; ++m) {
    const double d = net.demand(0, m) / scale;
    if (d <= 0.0) continue;
    if (net.station(m).kind == StationKind::kQueueing) {
      // In-place convolution with the geometric station factor.
      for (std::size_t n = 1; n < n_states; ++n) g[n] += d * g[n - 1];
    } else {
      // Delay (infinite-server) station factor d^k / k!.
      std::vector<double> h(n_states, 0.0);
      for (std::size_t n = 0; n < n_states; ++n) {
        double term = 1.0;  // d^k / k!
        for (std::size_t k = 0; k <= n; ++k) {
          h[n] += term * g[n - k];
          term *= d / static_cast<double>(k + 1);
        }
      }
      g = std::move(h);
    }
  }

  ConvolutionSolution out;
  out.normalization = g;
  out.demand_scale = scale;

  MvaSolution& sol = out.measures;
  sol.throughput.assign(1, 0.0);
  sol.waiting = util::Matrix(1, M, 0.0);
  sol.queue_length = util::Matrix(1, M, 0.0);
  sol.utilization.assign(M, 0.0);

  if (N == 0) return out;
  const double lambda = (g[n_states - 2] / g[n_states - 1]) / scale;
  sol.throughput[0] = lambda;
  for (std::size_t m = 0; m < M; ++m) {
    const double d = net.demand(0, m);
    sol.utilization[m] = lambda * d;
    if (net.visit_ratio(0, m) <= 0.0) continue;
    if (net.station(m).kind == StationKind::kQueueing) {
      // n_m(N) = sum_{k=1..N} (d/scale)^k G(N-k) / G(N).
      double qlen = 0.0;
      double dk = 1.0;
      const double ds = d / scale;
      for (long k = 1; k <= N; ++k) {
        dk *= ds;
        qlen += dk * g[static_cast<std::size_t>(N - k)];
      }
      qlen /= g[static_cast<std::size_t>(N)];
      sol.queue_length(0, m) = qlen;
    } else {
      sol.queue_length(0, m) = lambda * d;  // Little's law, no queueing
    }
    sol.waiting(0, m) =
        sol.queue_length(0, m) / (lambda * net.visit_ratio(0, m));
  }
  return out;
}

}  // namespace latol::qn
