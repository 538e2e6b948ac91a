// Discrete-event simulation kernel (DESIGN.md §13).
//
// Events live in an arena of fixed-size slots recycled through a freelist:
// scheduling an event writes its trivially-copyable closure into a slot
// payload in place — no per-event heap allocation, no std::function — and
// pending events are ordered by a calendar queue keyed on simulated time.
// Ties fire in scheduling order (the calendar keeps the old kernel's
// stable (time, sequence) tie-break), which makes whole simulations
// reproducible from their seed.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "util/error.hpp"

namespace latol::sim {

/// Simulation clock type (model time units, as in the paper).
using SimTime = double;

/// Small trivially-copyable type-erased callable (up to kCapacity bytes of
/// captures). The arena kernel's analog of std::function<void()>: storing
/// or copying one never allocates, so completion callbacks can ride inside
/// event payloads and queue entries by value.
class InlineFn {
 public:
  /// Capture buffer size; closures larger than this don't fit.
  static constexpr std::size_t kCapacity = 32;

  InlineFn() = default;

  /// Unbound, same as default construction (mirrors std::function's
  /// nullptr idiom so `submit(t, nullptr)` reads naturally).
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// Wrap `fn`; it must be trivially copyable, at most kCapacity bytes,
  /// and at most pointer-aligned.
  template <class F,
            class = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  InlineFn(F fn) {  // NOLINT(google-explicit-constructor)
    static_assert(std::is_trivially_copyable_v<F>,
                  "InlineFn requires a trivially copyable callable");
    static_assert(sizeof(F) <= kCapacity, "InlineFn capture too large");
    static_assert(alignof(F) <= alignof(double),
                  "InlineFn capture over-aligned");
    invoke_ = [](void* p) { (*static_cast<F*>(p))(); };
    std::memcpy(buf_, &fn, sizeof(F));
  }

  /// True when a callable is bound.
  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  /// Invoke the bound callable; pre: bound.
  void operator()() { invoke_(buf_); }

 private:
  using Invoke = void (*)(void*);

  Invoke invoke_ = nullptr;
  alignas(double) unsigned char buf_[kCapacity] = {};
};

/// Event arena + calendar + clock.
class Simulator {
 public:
  /// Maximum event closure size; one cache line of inline captures.
  static constexpr std::size_t kMaxPayload = 64;

  /// Schedule `action` at absolute time `t` (>= now). `action` must be
  /// trivially copyable and at most kMaxPayload bytes; it is copied into
  /// an arena slot and destroyed by forgetting.
  template <class F>
  void schedule(SimTime t, F action) {
    static_assert(std::is_trivially_copyable_v<F>,
                  "event actions must be trivially copyable");
    static_assert(sizeof(F) <= kMaxPayload, "event action too large");
    static_assert(alignof(F) <= alignof(std::max_align_t),
                  "event action over-aligned");
    LATOL_REQUIRE(t + 1e-12 >= now_,
                  "cannot schedule in the past: " << t << " < " << now_);
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots_[idx];
    s.invoke = [](void* p) { (*static_cast<F*>(p))(); };
    s.time = t;
    std::memcpy(s.payload, &action, sizeof(F));
    queue_.push(t, idx);
  }

  /// Schedule `action` after `delay` model time units.
  template <class F>
  void schedule_after(SimTime delay, F action) {
    LATOL_REQUIRE(delay >= 0.0, "negative delay " << delay);
    schedule(now_ + delay, std::move(action));
  }

  /// Execute events in time order until the calendar is empty or the next
  /// event is later than `horizon`. The clock ends at min(horizon, last
  /// event time); events beyond the horizon stay scheduled.
  void run_until(SimTime horizon);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  /// Calendar-queue operations so far (pushes + pops).
  [[nodiscard]] std::uint64_t queue_ops() const { return queue_.ops(); }
  /// Events currently scheduled.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  using Invoke = void (*)(void*);

  /// One arena slot: thunk + fire time + freelist link + the closure
  /// bytes. invoke == nullptr marks a free slot.
  struct Slot {
    Invoke invoke = nullptr;
    SimTime time = 0.0;
    std::uint32_t next_free = 0;
    alignas(std::max_align_t) unsigned char payload[kMaxPayload];
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  CalendarQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace latol::sim
