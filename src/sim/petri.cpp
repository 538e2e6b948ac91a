#include "sim/petri.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace latol::sim {

// --- StochasticPetriNet ------------------------------------------------------

PlaceId StochasticPetriNet::add_place(std::string name, long initial_tokens) {
  LATOL_REQUIRE(initial_tokens >= 0, "initial tokens " << initial_tokens);
  places_.push_back(Place{std::move(name), initial_tokens});
  return places_.size() - 1;
}

TransitionId StochasticPetriNet::add_transition(std::string name,
                                                TransitionTiming timing,
                                                double mean, double weight) {
  if (timing != TransitionTiming::kImmediate) {
    LATOL_REQUIRE(mean >= 0.0 && std::isfinite(mean),
                  "mean delay " << mean << " for transition " << name);
  }
  LATOL_REQUIRE(weight > 0.0, "weight " << weight);
  transitions_.push_back(
      Transition{std::move(name), timing, mean, weight, {}, {}});
  return transitions_.size() - 1;
}

void StochasticPetriNet::add_input(TransitionId t, PlaceId p, long weight) {
  LATOL_REQUIRE(t < transitions_.size() && p < places_.size(),
                "arc endpoints out of range");
  LATOL_REQUIRE(weight >= 1, "arc weight " << weight);
  transitions_[t].inputs.push_back(Arc{p, weight});
}

void StochasticPetriNet::add_output(TransitionId t, PlaceId p, long weight) {
  LATOL_REQUIRE(t < transitions_.size() && p < places_.size(),
                "arc endpoints out of range");
  LATOL_REQUIRE(weight >= 1, "arc weight " << weight);
  transitions_[t].outputs.push_back(Arc{p, weight});
}

void StochasticPetriNet::validate() const {
  LATOL_REQUIRE(!places_.empty(), "net has no places");
  LATOL_REQUIRE(!transitions_.empty(), "net has no transitions");
  for (const Transition& t : transitions_) {
    LATOL_REQUIRE(!t.inputs.empty(),
                  "transition " << t.name
                                << " has no inputs (would fire forever)");
  }
}

// --- CompiledPetriNet --------------------------------------------------------

CompiledPetriNet::CompiledPetriNet(const StochasticPetriNet& net) {
  net.validate();
  const std::size_t P = net.num_places();
  const std::size_t T = net.num_transitions();

  place_names_.reserve(P);
  initial_.reserve(P);
  for (const auto& place : net.places_) {
    place_names_.push_back(place.name);
    initial_.push_back(place.initial);
  }

  timing_.reserve(T);
  mean_.reserve(T);
  weight_.reserve(T);
  in_first_.assign(T + 1, 0);
  out_first_.assign(T + 1, 0);
  aff_first_.assign(P + 1, 0);
  for (std::size_t t = 0; t < T; ++t) {
    const auto& tr = net.transitions_[t];
    timing_.push_back(tr.timing);
    mean_.push_back(tr.mean);
    weight_.push_back(tr.weight);
    in_first_[t + 1] =
        in_first_[t] + static_cast<std::uint32_t>(tr.inputs.size());
    out_first_[t + 1] =
        out_first_[t] + static_cast<std::uint32_t>(tr.outputs.size());
    for (const auto& arc : tr.inputs) ++aff_first_[arc.place + 1];
  }
  for (std::size_t p = 0; p < P; ++p) aff_first_[p + 1] += aff_first_[p];

  in_place_.resize(in_first_[T]);
  in_weight_.resize(in_first_[T]);
  out_place_.resize(out_first_[T]);
  out_weight_.resize(out_first_[T]);
  aff_tid_.resize(aff_first_[P]);
  aff_weight_.resize(aff_first_[P]);
  max_in_weight_.assign(P, 0);
  std::vector<std::uint32_t> aff_cursor(aff_first_.begin(),
                                        aff_first_.end() - 1);
  for (std::size_t t = 0; t < T; ++t) {
    const auto& tr = net.transitions_[t];
    std::uint32_t i = in_first_[t];
    for (const auto& arc : tr.inputs) {
      in_place_[i] = static_cast<std::uint32_t>(arc.place);
      in_weight_[i] = arc.weight;
      ++i;
      // Ascending-t construction keeps each consumer list in transition
      // order, matching the touch order of the pre-CSR engine.
      aff_weight_[aff_cursor[arc.place]] = arc.weight;
      aff_tid_[aff_cursor[arc.place]++] = static_cast<std::uint32_t>(t);
      max_in_weight_[arc.place] =
          std::max(max_in_weight_[arc.place], arc.weight);
    }
    std::uint32_t o = out_first_[t];
    for (const auto& arc : tr.outputs) {
      out_place_[o] = static_cast<std::uint32_t>(arc.place);
      out_weight_[o] = arc.weight;
      ++o;
    }
  }

  // Split each consumer list by timing class, preserving the per-place
  // ascending-transition order within each class.
  afft_first_.assign(P + 1, 0);
  affi_first_.assign(P + 1, 0);
  for (std::size_t p = 0; p < P; ++p) {
    afft_first_[p + 1] = afft_first_[p];
    affi_first_[p + 1] = affi_first_[p];
    for (std::uint32_t c = aff_first_[p]; c < aff_first_[p + 1]; ++c) {
      if (timing_[aff_tid_[c]] == TransitionTiming::kImmediate)
        ++affi_first_[p + 1];
      else
        ++afft_first_[p + 1];
    }
  }
  afft_tid_.resize(afft_first_[P]);
  affi_tid_.resize(affi_first_[P]);
  {
    std::vector<std::uint32_t> tc(afft_first_.begin(), afft_first_.end() - 1);
    std::vector<std::uint32_t> ic(affi_first_.begin(), affi_first_.end() - 1);
    for (std::size_t p = 0; p < P; ++p) {
      for (std::uint32_t c = aff_first_[p]; c < aff_first_[p + 1]; ++c) {
        const std::uint32_t t = aff_tid_[c];
        if (timing_[t] == TransitionTiming::kImmediate)
          affi_tid_[ic[p]++] = t;
        else
          afft_tid_[tc[p]++] = t;
      }
    }
  }
}

// --- PetriSimulator ----------------------------------------------------------

PetriSimulator::PetriSimulator(const CompiledPetriNet& net, std::uint64_t seed)
    : net_(net), rng_(seed) {
  const std::size_t P = net_.num_places();
  const std::size_t T = net_.num_transitions();
  marking_ = net_.initial_;
  tstate_.assign(
      T, TransState{std::numeric_limits<double>::infinity(), 0, 0});
  firings_.assign(T, 0);
  tok_weighted_.assign(P, 0.0);
  tok_last_.assign(P, 0.0);
  tok_start_ = 0.0;
  std::size_t max_arcs = 0;
  for (std::size_t t = 0; t < T; ++t) {
    for (std::uint32_t a = net_.in_first_[t]; a < net_.in_first_[t + 1]; ++a)
      if (marking_[net_.in_place_[a]] < net_.in_weight_[a])
        ++tstate_[t].deficit;
    const std::size_t arcs =
        (net_.in_first_[t + 1] - net_.in_first_[t]) +
        (net_.out_first_[t + 1] - net_.out_first_[t]);
    max_arcs = std::max(max_arcs, arcs);
  }
  touch_scratch_.assign(max_arcs, 0);
  // Every immediate transition is a candidate at time zero.
  for (std::size_t t = 0; t < T; ++t) {
    if (net_.timing_[t] == TransitionTiming::kImmediate) {
      immediate_pool_.push_back(static_cast<std::uint32_t>(t));
      tstate_[t].in_pool = 1;
    }
  }
}

void PetriSimulator::refresh_clock(std::uint32_t t, double now) {
  if (net_.timing_[t] == TransitionTiming::kImmediate) return;
  const bool en = enabled(t);
  const bool armed = std::isfinite(tstate_[t].clock);
  if (en && !armed) {
    const double delay = net_.timing_[t] == TransitionTiming::kExponential
                             ? rng_.exponential(net_.mean_[t])
                             : net_.mean_[t];
    tstate_[t].clock = now + delay;
    queue_.push(tstate_[t].clock, t);
  } else if (!en && armed) {
    // Disarm by exact erase — the calendar replaces the old heap's
    // stale-entry epoch bookkeeping.
    const bool erased = queue_.erase(tstate_[t].clock, t);
    LATOL_REQUIRE(erased, "armed transition missing from calendar");
    tstate_[t].clock = std::numeric_limits<double>::infinity();
  }
}

void PetriSimulator::fire(std::uint32_t t, double now) {
  ++firings_[t];
  ++total_firings_;
  const std::uint32_t* const in_place = net_.in_place_.data();
  const long* const in_weight = net_.in_weight_.data();
  const std::uint32_t* const out_place = net_.out_place_.data();
  const long* const out_weight = net_.out_weight_.data();
  const std::uint32_t in_lo = net_.in_first_[t];
  const std::uint32_t in_hi = net_.in_first_[t + 1];
  const std::uint32_t out_lo = net_.out_first_[t];
  const std::uint32_t out_hi = net_.out_first_[t + 1];
  // Consume and produce, maintaining deficits and noting which places saw
  // an enabledness flip; only those need their consumers re-examined.
  // (touch_scratch_ holds the flags: in arcs first, then out arcs.)
  char* const flips = touch_scratch_.data();
  std::uint32_t f = 0;
  for (std::uint32_t a = in_lo; a < in_hi; ++a) {
    const std::uint32_t p = in_place[a];
    flips[f++] = change_marking(p, -in_weight[a], now) ? 1 : 0;
    tokens_moved_ += static_cast<std::uint64_t>(in_weight[a]);
  }
  for (std::uint32_t a = out_lo; a < out_hi; ++a) {
    const std::uint32_t p = out_place[a];
    flips[f++] = change_marking(p, out_weight[a], now) ? 1 : 0;
    tokens_moved_ += static_cast<std::uint64_t>(out_weight[a]);
  }
  // The fired transition's clock is spent (its calendar entry was popped).
  tstate_[t].clock = std::numeric_limits<double>::infinity();
  // Touch the consumers of every flipped place, timed then immediate per
  // place: timed ones refresh their clocks when armed-ness disagrees with
  // enabledness, immediates enter the candidate pool when enabled. The
  // two streams are independent (only timed touches draw, only immediate
  // touches push), so per-class ascending order reproduces the combined
  // walk's sequences.
  auto touch_place = [&](std::uint32_t p) {
    const std::uint32_t* const afft_first = net_.afft_first_.data();
    const std::uint32_t* const afft_tid = net_.afft_tid_.data();
    for (std::uint32_t c = afft_first[p]; c < afft_first[p + 1]; ++c) {
      const std::uint32_t u = afft_tid[c];
      if ((tstate_[u].deficit == 0) != std::isfinite(tstate_[u].clock))
        refresh_clock(u, now);
    }
    const std::uint32_t* const affi_first = net_.affi_first_.data();
    const std::uint32_t* const affi_tid = net_.affi_tid_.data();
    for (std::uint32_t c = affi_first[p]; c < affi_first[p + 1]; ++c) {
      const std::uint32_t u = affi_tid[c];
      if (!tstate_[u].in_pool && tstate_[u].deficit == 0) {
        immediate_pool_.push_back(u);
        tstate_[u].in_pool = 1;
      }
    }
  };
  f = 0;
  for (std::uint32_t a = in_lo; a < in_hi; ++a, ++f)
    if (flips[f]) touch_place(in_place[a]);
  for (std::uint32_t a = out_lo; a < out_hi; ++a, ++f)
    if (flips[f]) touch_place(out_place[a]);
  // The fired transition itself: rearm (timed, clock spent above) or
  // repool (immediate) when still enabled.
  if (net_.timing_[t] == TransitionTiming::kImmediate) {
    if (!tstate_[t].in_pool && tstate_[t].deficit == 0) {
      immediate_pool_.push_back(t);
      tstate_[t].in_pool = 1;
    }
  } else if (tstate_[t].deficit == 0) {
    refresh_clock(t, now);
  }
}

void PetriSimulator::fail_negative_marking(std::uint32_t p) const {
  LATOL_REQUIRE(false, "negative marking at " << net_.place_name(p));
}

void PetriSimulator::drain_immediates(double now) {
  // Fire enabled immediates (weighted random among the enabled frontier)
  // until none remain. Disabled candidates drop out of the pool — a later
  // marking change re-adds them via fire()'s touch().
  for (std::uint64_t guard = 0;; ++guard) {
    LATOL_REQUIRE(guard < 10000000,
                  "immediate-transition livelock: check net structure");
    ready_.clear();
    ready_weights_.clear();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < immediate_pool_.size(); ++i) {
      const std::uint32_t t = immediate_pool_[i];
      if (enabled(t)) {
        immediate_pool_[keep++] = t;
        ready_.push_back(t);
        ready_weights_.push_back(net_.weight_[t]);
      } else {
        tstate_[t].in_pool = 0;
      }
    }
    immediate_pool_.resize(keep);
    if (ready_.empty()) return;
    fire(ready_[rng_.discrete(ready_weights_)], now);
  }
}

PetriStats PetriSimulator::run(double horizon, double warmup) {
  LATOL_REQUIRE(horizon > 0.0 && warmup >= 0.0 && warmup < horizon,
                "bad horizon/warmup: " << horizon << '/' << warmup);
  double now = 0.0;
  // Arm all timed transitions and settle initial immediates.
  drain_immediates(now);
  for (std::size_t t = 0; t < net_.num_transitions(); ++t)
    refresh_clock(static_cast<std::uint32_t>(t), now);

  bool stats_reset = false;
  auto maybe_reset = [&](double time) {
    if (!stats_reset && time >= warmup) {
      std::fill(tok_weighted_.begin(), tok_weighted_.end(), 0.0);
      std::fill(tok_last_.begin(), tok_last_.end(), warmup);
      tok_start_ = warmup;
      std::fill(firings_.begin(), firings_.end(), 0);
      stats_reset = true;
    }
  };
  if (warmup == 0.0) maybe_reset(0.0);

  CalendarEntry next{};
  while (queue_.pop_until(horizon, next)) {
    now = next.time;
    maybe_reset(now);
    fire(next.payload, now);
    drain_immediates(now);
  }
  now = horizon;
  maybe_reset(now);

  PetriStats stats;
  stats.firings = firings_;
  stats.total_firings = total_firings_;
  stats.tokens_moved = tokens_moved_;
  stats.queue_ops = queue_.ops();
  stats.rng_draws = rng_.draws();
  stats.observed_time = horizon - warmup;
  stats.firing_rate.resize(net_.num_transitions());
  for (std::size_t t = 0; t < net_.num_transitions(); ++t)
    stats.firing_rate[t] =
        static_cast<double>(firings_[t]) / stats.observed_time;
  stats.mean_tokens.resize(net_.num_places());
  for (std::size_t p = 0; p < net_.num_places(); ++p) {
    // Same arithmetic as TimeAverage::mean: close the open interval at
    // the horizon, divide by the observation span.
    const double span = horizon - tok_start_;
    const double value = static_cast<double>(marking_[p]);
    stats.mean_tokens[p] =
        span <= 0.0 ? value
                    : (tok_weighted_[p] + value * (horizon - tok_last_[p])) /
                          span;
  }
  return stats;
}

}  // namespace latol::sim
