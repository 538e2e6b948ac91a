#include "sim/fcfs_server.hpp"

#include "util/error.hpp"

namespace latol::sim {

FcfsServer::FcfsServer(Simulator& sim, std::string name, int servers,
                       StatTracking track)
    : sim_(sim), name_(std::move(name)), servers_(servers), track_(track) {
  LATOL_REQUIRE(servers >= 1, "server count " << servers);
}

void FcfsServer::ring_push(const Job& job) {
  if (waiting_count_ == ring_.size()) {
    // Grow to the next power of two, linearizing head-first so FIFO order
    // survives the move.
    std::vector<Job> grown(ring_.empty() ? 8 : ring_.size() * 2);
    for (std::size_t i = 0; i < waiting_count_; ++i)
      grown[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(grown);
    ring_head_ = 0;
  }
  ring_[(ring_head_ + waiting_count_) & (ring_.size() - 1)] = job;
  ++waiting_count_;
}

void FcfsServer::reset_stats() {
  completions_ = 0;
  busy_fraction_.reset(sim_.now());
  residence_.reset();
}

double FcfsServer::utilization() const {
  LATOL_REQUIRE(track(StatTracking::kBusy),
                "utilization tracking disabled on " << name_);
  return busy_fraction_.mean(sim_.now());
}

}  // namespace latol::sim
