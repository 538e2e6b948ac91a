// Generic stochastic timed Petri net (STPN) engine.
//
// The paper validates its analytical model "using the simulations of
// Stochastic Timed Petri Net (STPN) model for the MMS" (§8). This module
// provides the substrate: places, immediate/exponential/deterministic
// transitions with arc weights, race semantics with single-server firing
// and restart (resampling) memory policy, weighted random resolution of
// immediate conflicts, and time-averaged token statistics.
//
// Semantics notes:
//  - A timed transition owns one firing clock (single-server semantics):
//    when it becomes enabled a delay is sampled; if it becomes disabled
//    the clock is discarded; after firing, a new delay is sampled if it is
//    still enabled. For exponential delays this is indistinguishable from
//    age memory; deterministic transitions in the MMS nets are never
//    preempted, so restart policy is exact there too.
//  - Immediate transitions fire before any timed one, conflicts resolved
//    by weight (uniformly at random when weights are equal) — this makes
//    shared servers "random order" rather than FCFS, which has the same
//    stationary token counts for exponential service (BCMP insensitivity).
//
// Hot-path layout (DESIGN.md §13): the builder API below captures the net
// as pointer-rich structure; CompiledPetriNet flattens it into CSR index
// arrays (arc lists, place-to-consumer adjacency) so the token game is
// branch-light array walks, and armed transitions wait in a calendar
// queue (calendar_queue.hpp) with disarms as exact erases — no lazy
// invalidation, no stale entries. One compiled net is immutable and can
// be shared by any number of concurrent PetriSimulator replications.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/rng.hpp"

namespace latol::sim {

/// Index of a place in PetriNet's place vector.
using PlaceId = std::size_t;
/// Index of a transition in PetriNet's transition vector.
using TransitionId = std::size_t;

/// Transition delay family.
enum class TransitionTiming {
  kImmediate,      // fires in zero time, priority over timed transitions
  kExponential,    // delay ~ Exp(mean)
  kDeterministic,  // delay = mean
};

/// A stochastic timed Petri net: structure only, no dynamic state.
class StochasticPetriNet {
 public:
  /// Add a place with an initial marking.
  PlaceId add_place(std::string name, long initial_tokens = 0);

  /// Add a transition. `mean` is the mean delay (ignored for immediate);
  /// `weight` resolves conflicts among simultaneously enabled immediate
  /// transitions.
  TransitionId add_transition(std::string name, TransitionTiming timing,
                              double mean = 0.0, double weight = 1.0);

  /// Arc from place to transition (consumes `weight` tokens on firing).
  void add_input(TransitionId t, PlaceId p, long weight = 1);

  /// Arc from transition to place (produces `weight` tokens on firing).
  void add_output(TransitionId t, PlaceId p, long weight = 1);

  [[nodiscard]] std::size_t num_places() const { return places_.size(); }
  [[nodiscard]] std::size_t num_transitions() const {
    return transitions_.size();
  }

  /// Throws InvalidArgument on structural problems (transition without
  /// inputs, nonpositive delays on timed transitions, ...).
  void validate() const;

 private:
  friend class CompiledPetriNet;

  struct Arc {
    PlaceId place;
    long weight;
  };
  struct Place {
    std::string name;
    long initial;
  };
  struct Transition {
    std::string name;
    TransitionTiming timing;
    double mean;
    double weight;
    std::vector<Arc> inputs;
    std::vector<Arc> outputs;
  };

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
};

/// Immutable CSR encoding of a StochasticPetriNet: per-transition input
/// and output arc ranges, plus the place -> consuming-transitions
/// adjacency that firing uses to re-check enabledness. Compiling is done
/// once; the result is read-only and shareable across replications
/// running in parallel (each PetriSimulator keeps its own marking, RNG,
/// and calendar).
class CompiledPetriNet {
 public:
  /// Validate and flatten `net` (which may be discarded afterwards).
  explicit CompiledPetriNet(const StochasticPetriNet& net);

  [[nodiscard]] std::size_t num_places() const { return place_names_.size(); }
  [[nodiscard]] std::size_t num_transitions() const { return timing_.size(); }
  [[nodiscard]] const std::string& place_name(PlaceId p) const {
    return place_names_[p];
  }

 private:
  friend class PetriSimulator;

  std::vector<std::string> place_names_;
  std::vector<long> initial_;             // per place

  std::vector<TransitionTiming> timing_;  // per transition
  std::vector<double> mean_;
  std::vector<double> weight_;

  // Input arcs of transition t: indices [in_first_[t], in_first_[t+1]).
  std::vector<std::uint32_t> in_first_;
  std::vector<std::uint32_t> in_place_;
  std::vector<long> in_weight_;
  // Output arcs, same shape.
  std::vector<std::uint32_t> out_first_;
  std::vector<std::uint32_t> out_place_;
  std::vector<long> out_weight_;
  // Consumers of place p (one entry per input arc, ascending transition
  // order): indices [aff_first_[p], aff_first_[p+1]). aff_weight_ carries
  // the arc's weight so marking changes can maintain per-transition
  // enabledness deficits without re-reading the input arc lists.
  std::vector<std::uint32_t> aff_first_;
  std::vector<std::uint32_t> aff_tid_;
  std::vector<long> aff_weight_;
  // The same consumers split by timing class, for the post-firing touch
  // walk: timed consumers get clock refreshes (RNG draws), immediate
  // consumers get pooled. The two streams never interact, so keeping each
  // in ascending-transition order per place reproduces the combined
  // walk's draw and pool sequences exactly.
  std::vector<std::uint32_t> afft_first_;
  std::vector<std::uint32_t> afft_tid_;
  std::vector<std::uint32_t> affi_first_;
  std::vector<std::uint32_t> affi_tid_;
  // Largest input-arc weight drawn from place p: when a marking change
  // stays at or above this on both sides, no consumer's enabledness can
  // flip and the whole touch walk is skipped.
  std::vector<long> max_in_weight_;
};

/// Post-warmup statistics of one simulation run.
struct PetriStats {
  std::vector<std::uint64_t> firings;   ///< per transition
  std::vector<double> firing_rate;      ///< firings / observed time
  std::vector<double> mean_tokens;      ///< time-averaged marking per place
  double observed_time = 0;             ///< horizon - warmup
  std::uint64_t total_firings = 0;      ///< including warmup
  std::uint64_t tokens_moved = 0;       ///< consumed + produced, incl. warmup
  std::uint64_t queue_ops = 0;          ///< calendar-queue operations
  std::uint64_t rng_draws = 0;          ///< random variates consumed
};

/// Token-game simulator over a compiled net.
class PetriSimulator {
 public:
  /// Simulate `net`, which must outlive the simulator; the compiled net
  /// is shared, so parallel replications pay for compilation once.
  PetriSimulator(const CompiledPetriNet& net, std::uint64_t seed);

  /// Run from time 0 to `horizon`, discarding statistics before `warmup`.
  [[nodiscard]] PetriStats run(double horizon, double warmup);

  /// Current marking of a place (valid after run()).
  [[nodiscard]] long tokens(PlaceId p) const { return marking_[p]; }

 private:
  /// Per-transition dynamic state, packed so the post-firing touch walk
  /// reads one cache line per transition instead of three scattered
  /// arrays (clock, enabledness deficit, pool membership).
  struct alignas(16) TransState {
    double clock;          // firing time; +inf when disarmed / immediate
    std::int32_t deficit;  // unsatisfied input arcs; enabled iff zero
    std::uint8_t in_pool;  // member of immediate_pool_?
  };

  /// O(1): a transition is enabled iff no input arc is short of tokens.
  /// The deficit is maintained incrementally by change_marking().
  [[nodiscard]] bool enabled(std::uint32_t t) const {
    return tstate_[t].deficit == 0;
  }
  /// Apply `delta` tokens to place p at `now`: integrates the token time
  /// average and adjusts the deficit of every consumer whose arc
  /// satisfaction flips. Returns true when at least one consumer's
  /// enabledness may have changed — the caller's cue to touch p's
  /// consumers after all markings settle.
  bool change_marking(std::uint32_t p, long delta, double now) {
    integrate_tokens(p, now);
    const long old_m = marking_[p];
    const long new_m = old_m + delta;
    if (new_m < 0) fail_negative_marking(p);
    marking_[p] = new_m;
    // No arc's satisfaction crosses while both sides sit at or above the
    // largest weight drawn from p (multi-token pools stay satisfied).
    if ((old_m < new_m ? old_m : new_m) >= net_.max_in_weight_[p])
      return false;
    const std::uint32_t* const aff_tid = net_.aff_tid_.data();
    const long* const aff_weight = net_.aff_weight_.data();
    bool changed = false;
    for (std::uint32_t c = net_.aff_first_[p]; c < net_.aff_first_[p + 1];
         ++c) {
      const long w = aff_weight[c];
      const int was = old_m >= w ? 0 : 1;
      const int is = new_m >= w ? 0 : 1;
      tstate_[aff_tid[c]].deficit += is - was;
      changed |= was != is;
    }
    return changed;
  }
  void fire(std::uint32_t t, double now);
  void refresh_clock(std::uint32_t t, double now);
  /// Fire enabled immediate transitions until none remain.
  void drain_immediates(double now);

  /// Integrate place p's token average up to `now` (call before changing
  /// its marking; matches TimeAverage::set arithmetic exactly).
  void integrate_tokens(std::uint32_t p, double now) {
    tok_weighted_[p] +=
        static_cast<double>(marking_[p]) * (now - tok_last_[p]);
    tok_last_[p] = now;
  }
  [[noreturn]] void fail_negative_marking(std::uint32_t p) const;

  const CompiledPetriNet& net_;
  Rng rng_;
  std::vector<long> marking_;
  std::vector<TransState> tstate_;  // clock / deficit / pool flag, packed
  // Token time averages, structure-of-arrays (DESIGN.md §13): the
  // "current value" of place p's TimeAverage is marking_[p] itself, so a
  // marking change touches two doubles instead of a 4-field object.
  std::vector<double> tok_weighted_;  // integral of marking dt since reset
  std::vector<double> tok_last_;      // last marking-change time
  double tok_start_ = 0.0;            // statistics epoch (0 or warmup)
  std::vector<std::uint64_t> firings_;
  std::uint64_t total_firings_ = 0;
  std::uint64_t tokens_moved_ = 0;

  // Frontier of immediate transitions that may have become enabled; keeps
  // drain_immediates() O(local changes) instead of O(all transitions).
  std::vector<std::uint32_t> immediate_pool_;
  std::vector<char> touch_scratch_;  // per-arc flip flags, reused by fire()
  std::vector<std::uint32_t> ready_;  // reused per drain iteration
  std::vector<double> ready_weights_;

  CalendarQueue queue_;  // armed timed transitions, keyed by firing time
};

}  // namespace latol::sim
