#include "sim/petri.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace latol::sim {
namespace {

TEST(PetriNet, StructureAccessors) {
  StochasticPetriNet net;
  const PlaceId p = net.add_place("p", 3);
  const TransitionId t =
      net.add_transition("t", TransitionTiming::kExponential, 2.0);
  net.add_input(t, p);
  EXPECT_EQ(net.num_places(), 1u);
  EXPECT_EQ(net.num_transitions(), 1u);
  EXPECT_NO_THROW(net.validate());
  const CompiledPetriNet compiled(net);
  EXPECT_EQ(compiled.num_places(), 1u);
  EXPECT_EQ(compiled.num_transitions(), 1u);
  EXPECT_EQ(compiled.place_name(p), "p");
  PetriSimulator sim(compiled, 1);
  EXPECT_EQ(sim.tokens(p), 3);
}

TEST(PetriNet, ValidationCatchesProblems) {
  StochasticPetriNet empty;
  EXPECT_THROW(empty.validate(), InvalidArgument);

  StochasticPetriNet net;
  net.add_place("p", 1);
  net.add_transition("orphan", TransitionTiming::kExponential, 1.0);
  EXPECT_THROW(net.validate(), InvalidArgument);  // no inputs

  EXPECT_THROW(net.add_place("neg", -1), InvalidArgument);
  EXPECT_THROW(net.add_transition("bad", TransitionTiming::kExponential, -1.0),
               InvalidArgument);
  EXPECT_THROW(net.add_input(5, 0), InvalidArgument);
}

/// One-place self-loop oscillator: a <-> b with exponential transitions.
struct TwoPlaceNet {
  StochasticPetriNet net;
  PlaceId a, b;
  TransitionId ab, ba;
};

TwoPlaceNet oscillator(double mean_ab, double mean_ba, long tokens) {
  TwoPlaceNet o;
  o.a = o.net.add_place("a", tokens);
  o.b = o.net.add_place("b", 0);
  o.ab = o.net.add_transition("ab", TransitionTiming::kExponential, mean_ab);
  o.net.add_input(o.ab, o.a);
  o.net.add_output(o.ab, o.b);
  o.ba = o.net.add_transition("ba", TransitionTiming::kExponential, mean_ba);
  o.net.add_input(o.ba, o.b);
  o.net.add_output(o.ba, o.a);
  return o;
}

TEST(PetriSimulator, ConservesTokens) {
  auto o = oscillator(1.0, 2.0, 5);
  const CompiledPetriNet compiled(o.net);
  PetriSimulator sim(compiled, 1);
  const PetriStats stats = sim.run(1000.0, 100.0);
  EXPECT_EQ(sim.tokens(o.a) + sim.tokens(o.b), 5);
  EXPECT_NEAR(stats.mean_tokens[o.a] + stats.mean_tokens[o.b], 5.0, 1e-9);
}

TEST(PetriSimulator, FlowBalanceAtSteadyState) {
  auto o = oscillator(1.0, 2.0, 3);
  const CompiledPetriNet compiled(o.net);
  PetriSimulator sim(compiled, 7);
  const PetriStats stats = sim.run(50000.0, 5000.0);
  // In a closed cycle both transitions fire at (asymptotically) the same
  // rate.
  EXPECT_NEAR(stats.firing_rate[o.ab], stats.firing_rate[o.ba],
              0.02 * stats.firing_rate[o.ab]);
}

TEST(PetriSimulator, SingleServerRateMatchesCyclicQueue) {
  // Single-server semantics: one token in each place of a 2-cycle with one
  // customer behaves like alternating exp(2) / exp(3) stages:
  // cycle rate = 1/5.
  auto o = oscillator(2.0, 3.0, 1);
  const CompiledPetriNet compiled(o.net);
  PetriSimulator sim(compiled, 3);
  const PetriStats stats = sim.run(200000.0, 10000.0);
  EXPECT_NEAR(stats.firing_rate[o.ab], 0.2, 0.01);
  // Mean tokens in `a` = fraction of time in stage a = 2/5.
  EXPECT_NEAR(stats.mean_tokens[o.a], 0.4, 0.02);
}

TEST(PetriSimulator, MultiTokenPlaceStillServesOneAtATime) {
  // n tokens at a single-server exp(1) stage feeding an instant return:
  // the server is saturated, so the firing rate equals the service rate.
  StochasticPetriNet net;
  const PlaceId a = net.add_place("a", 4);
  const TransitionId t =
      net.add_transition("serve", TransitionTiming::kExponential, 2.0);
  net.add_input(t, a);
  net.add_output(t, a);  // tokens come straight back: always saturated
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 5);
  const PetriStats stats = sim.run(100000.0, 1000.0);
  EXPECT_NEAR(stats.firing_rate[t], 0.5, 0.01);
}

TEST(PetriSimulator, DeterministicTransitionFiresOnSchedule) {
  StochasticPetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const TransitionId t =
      net.add_transition("tick", TransitionTiming::kDeterministic, 10.0);
  net.add_input(t, a);
  net.add_output(t, a);
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 1);
  const PetriStats stats = sim.run(1000.0, 0.0);
  EXPECT_EQ(stats.firings[t], 100u);
}

TEST(PetriSimulator, ImmediateRoutingSplitsByWeight) {
  // source --exp(1)--> mid; mid --imm(w=1)--> x | --imm(w=3)--> y.
  StochasticPetriNet net;
  const PlaceId src = net.add_place("src", 1);
  const PlaceId mid = net.add_place("mid", 0);
  const PlaceId x = net.add_place("x", 0);
  const PlaceId y = net.add_place("y", 0);
  const TransitionId gen =
      net.add_transition("gen", TransitionTiming::kExponential, 1.0);
  net.add_input(gen, src);
  net.add_output(gen, mid);
  const TransitionId to_x =
      net.add_transition("tx", TransitionTiming::kImmediate, 0.0, 1.0);
  net.add_input(to_x, mid);
  net.add_output(to_x, x);
  const TransitionId to_y =
      net.add_transition("ty", TransitionTiming::kImmediate, 0.0, 3.0);
  net.add_input(to_y, mid);
  net.add_output(to_y, y);
  // Drain x and y back to src so the system cycles.
  for (const PlaceId from : {x, y}) {
    const TransitionId back = net.add_transition(
        "back" + std::to_string(from), TransitionTiming::kImmediate);
    net.add_input(back, from);
    net.add_output(back, src);
  }
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 11);
  const PetriStats stats = sim.run(100000.0, 1000.0);
  const double total = stats.firing_rate[to_x] + stats.firing_rate[to_y];
  EXPECT_NEAR(stats.firing_rate[to_x] / total, 0.25, 0.02);
  EXPECT_NEAR(stats.firing_rate[to_y] / total, 0.75, 0.02);
}

TEST(PetriSimulator, SeizeServePatternQueuesContenders) {
  // Two chains contending for one server token: combined service rate is
  // capped at 1/mean (not 2/mean — the bug the seize/serve pattern avoids).
  StochasticPetriNet net;
  const PlaceId free = net.add_place("free", 1);
  std::vector<TransitionId> serves;
  for (int c = 0; c < 2; ++c) {
    const std::string id = std::to_string(c);
    const PlaceId wait = net.add_place("w" + id, 3);
    const PlaceId busy = net.add_place("b" + id, 0);
    const TransitionId seize =
        net.add_transition("z" + id, TransitionTiming::kImmediate);
    net.add_input(seize, wait);
    net.add_input(seize, free);
    net.add_output(seize, busy);
    const TransitionId serve =
        net.add_transition("v" + id, TransitionTiming::kExponential, 4.0);
    net.add_input(serve, busy);
    net.add_output(serve, free);
    net.add_output(serve, wait);  // recycle customers: always saturated
    serves.push_back(serve);
  }
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 23);
  const PetriStats stats = sim.run(200000.0, 10000.0);
  const double total = stats.firing_rate[serves[0]] + stats.firing_rate[serves[1]];
  EXPECT_NEAR(total, 0.25, 0.01);  // one server of mean 4
  // Fair split between symmetric chains.
  EXPECT_NEAR(stats.firing_rate[serves[0]], stats.firing_rate[serves[1]],
              0.02);
}

TEST(PetriSimulator, DeterministicSeedReproducibility) {
  auto o1 = oscillator(1.0, 2.0, 4);
  auto o2 = oscillator(1.0, 2.0, 4);
  const CompiledPetriNet c1(o1.net), c2(o2.net);
  const PetriStats a = PetriSimulator(c1, 99).run(5000.0, 500.0);
  const PetriStats b = PetriSimulator(c2, 99).run(5000.0, 500.0);
  EXPECT_EQ(a.firings, b.firings);
  EXPECT_EQ(a.total_firings, b.total_firings);
}

TEST(PetriSimulator, RejectsBadRunParameters) {
  auto o = oscillator(1.0, 1.0, 1);
  const CompiledPetriNet compiled(o.net);
  PetriSimulator sim(compiled, 1);
  EXPECT_THROW((void)sim.run(0.0, 0.0), InvalidArgument);
  PetriSimulator sim2(compiled, 1);
  EXPECT_THROW((void)sim2.run(10.0, 10.0), InvalidArgument);
}

TEST(PetriSimulator, MultiTokenServerPool) {
  // Seize/serve with 2 free tokens: cross-chain parallelism works (both
  // chains can be in service at once) but each chain's serve transition
  // still fires one token at a time, so when the random seize order clumps
  // both servers onto one chain the other idles. The combined rate
  // therefore lands strictly between one server (0.25) and two full
  // servers (0.5) - the documented approximation of the MMS Petri model
  // for multiported memories (the DES models multi-server stations
  // exactly).
  StochasticPetriNet net;
  const PlaceId free = net.add_place("free", 2);
  std::vector<TransitionId> serves;
  for (int c = 0; c < 2; ++c) {
    const std::string id = std::to_string(c);
    const PlaceId wait = net.add_place("w" + id, 3);
    const PlaceId busy = net.add_place("b" + id, 0);
    const TransitionId seize =
        net.add_transition("z" + id, TransitionTiming::kImmediate);
    net.add_input(seize, wait);
    net.add_input(seize, free);
    net.add_output(seize, busy);
    const TransitionId serve =
        net.add_transition("v" + id, TransitionTiming::kExponential, 4.0);
    net.add_input(serve, busy);
    net.add_output(serve, free);
    net.add_output(serve, wait);
    serves.push_back(serve);
  }
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 31);
  const PetriStats stats = sim.run(200000.0, 10000.0);
  const double combined =
      stats.firing_rate[serves[0]] + stats.firing_rate[serves[1]];
  EXPECT_GT(combined, 0.27);  // more than a single shared server...
  EXPECT_LT(combined, 0.48);  // ...but short of two dedicated ones
  // Symmetric chains split the capacity evenly.
  EXPECT_NEAR(stats.firing_rate[serves[0]], stats.firing_rate[serves[1]],
              0.02);
}

TEST(PetriSimulator, MixedDeterministicAndExponential) {
  // Deterministic stage feeding an exponential stage in a closed cycle:
  // cycle time = 10 + 5, throughput 1/15 (single customer, no queueing).
  StochasticPetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const TransitionId det =
      net.add_transition("det", TransitionTiming::kDeterministic, 10.0);
  net.add_input(det, a);
  net.add_output(det, b);
  const TransitionId expo =
      net.add_transition("exp", TransitionTiming::kExponential, 5.0);
  net.add_input(expo, b);
  net.add_output(expo, a);
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 17);
  const PetriStats stats = sim.run(300000.0, 10000.0);
  EXPECT_NEAR(stats.firing_rate[det], 1.0 / 15.0, 0.002);
  // Fraction of time in the deterministic stage: 10/15.
  EXPECT_NEAR(stats.mean_tokens[a], 10.0 / 15.0, 0.01);
}

TEST(PetriSimulator, WarmupDiscardsEarlyFirings) {
  StochasticPetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const TransitionId t =
      net.add_transition("tick", TransitionTiming::kDeterministic, 10.0);
  net.add_input(t, a);
  net.add_output(t, a);
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 1);
  // Ticks at t = 10, 20, ..., 1000. The statistics reset happens when the
  // clock first reaches the warmup point, so the t = 500 firing is counted
  // post-warmup: 51 of the 100 total firings are observed.
  const PetriStats stats = sim.run(1000.0, 500.0);
  EXPECT_EQ(stats.firings[t], 51u);
  EXPECT_EQ(stats.total_firings, 100u);
  EXPECT_NEAR(stats.observed_time, 500.0, 1e-12);
}

TEST(PetriSimulator, DeadNetStopsEarly) {
  StochasticPetriNet net;
  const PlaceId a = net.add_place("a", 1);
  const PlaceId b = net.add_place("b", 0);
  const TransitionId t =
      net.add_transition("once", TransitionTiming::kExponential, 1.0);
  net.add_input(t, a);
  net.add_output(t, b);
  const CompiledPetriNet compiled(net);
  PetriSimulator sim(compiled, 1);
  const PetriStats stats = sim.run(1000.0, 0.0);
  EXPECT_EQ(stats.firings[t], 1u);
  EXPECT_EQ(sim.tokens(b), 1);
}

}  // namespace
}  // namespace latol::sim
