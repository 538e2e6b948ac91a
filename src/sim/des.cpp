#include "sim/des.hpp"

namespace latol::sim {

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ == kNoSlot) {
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t idx = free_head_;
  free_head_ = slots_[idx].next_free;
  return idx;
}

void Simulator::release_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  s.invoke = nullptr;
  s.next_free = free_head_;
  free_head_ = idx;
}

void Simulator::run_until(SimTime horizon) {
  CalendarEntry e;
  alignas(std::max_align_t) unsigned char copy[kMaxPayload];
  while (queue_.pop_until(horizon, e)) {
    Slot& s = slots_[e.payload];
    const Invoke invoke = s.invoke;
    // Copy the closure out and recycle the slot before invoking: the
    // handler may schedule (growing the arena) or reuse the slot, and
    // must not run out of arena memory that can move under it.
    std::memcpy(copy, s.payload, kMaxPayload);
    now_ = s.time;
    release_slot(e.payload);
    ++executed_;
    invoke(copy);
  }
  if (now_ < horizon) now_ = horizon;
}

}  // namespace latol::sim
