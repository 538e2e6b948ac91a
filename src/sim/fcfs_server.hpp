// FCFS multi-server queue on top of the DES kernel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/des.hpp"
#include "sim/stats.hpp"

namespace latol::sim {

/// Which FcfsServer statistics to accumulate; a station's model can turn
/// off what it never reads, removing those updates from the event hot
/// path entirely. Counters (completions, instantaneous queue length) are
/// always maintained.
enum class StatTracking : unsigned {
  kNone = 0,
  kBusy = 1,       ///< utilization()
  kResidence = 2,  ///< mean_residence()
  kAll = 3,        ///< kBusy and kResidence
};

/// An exponential/deterministic service center with a FIFO queue and
/// `servers` parallel servers (1 = the paper's stations; >1 models e.g. a
/// multiported memory). Jobs are (service time, completion callback)
/// pairs; the server tracks utilization (mean fraction of busy servers),
/// completions, and per-job residence time, and supports resetting
/// statistics at the end of a warmup period.
/// Waiting jobs sit in a flat ring buffer and callbacks are InlineFn, so
/// steady-state operation performs no heap allocation.
class FcfsServer {
 public:
  FcfsServer(Simulator& sim, std::string name, int servers = 1,
             StatTracking track = StatTracking::kAll);

  /// Enqueue a job with the given (already sampled) service time; invokes
  /// `on_done` when service completes (pass {} for none). Hot path — in
  /// the header so station call sites inline the idle-server case, which
  /// bypasses the ring entirely.
  void submit(double service_time, InlineFn on_done) {
    LATOL_REQUIRE(service_time >= 0.0, "service time " << service_time);
    const double now = sim_.now();
    if (in_service_ < servers_ && waiting_count_ == 0) {
      start_job(service_time, now, on_done);
      return;
    }
    ring_push(Job{service_time, now, on_done});
    try_start();
  }

  /// Forget accumulated statistics (for warmup); in-flight jobs keep
  /// their residence measured from their original arrival.
  void reset_stats();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int servers() const { return servers_; }
  [[nodiscard]] std::uint64_t completions() const { return completions_; }
  /// Mean fraction of servers busy (busy-time fraction when servers == 1).
  [[nodiscard]] double utilization() const;
  /// Mean residence (wait + service) per completed job.
  [[nodiscard]] double mean_residence() const {
    LATOL_REQUIRE(track(StatTracking::kResidence),
                  "residence tracking disabled on " << name_);
    return residence_.mean();
  }
  /// Jobs present (waiting + in service).
  [[nodiscard]] std::size_t queue_length() const {
    return waiting_count_ + static_cast<std::size_t>(in_service_);
  }

 private:
  /// A waiting job; trivially copyable so the ring can relocate freely.
  struct Job {
    double service;
    double arrival;
    InlineFn on_done;
  };

  /// Begin service on one job: occupy a server and schedule completion.
  /// The completion event restarts the queue before running `on_done`, so
  /// a chained submit from the callback sees the freed server.
  void start_job(double service, double arrival, InlineFn on_done) {
    ++in_service_;
    update_busy();
    sim_.schedule_after(service, [this, arrival, on_done]() mutable {
      --in_service_;
      update_busy();
      ++completions_;
      if (track(StatTracking::kResidence))
        residence_.add(sim_.now() - arrival);
      try_start();
      if (on_done) on_done();
    });
  }

  void try_start() {
    while (in_service_ < servers_ && waiting_count_ > 0) {
      const Job job = ring_pop();
      start_job(job.service, job.arrival, job.on_done);
    }
  }

  void update_busy() {
    if (track(StatTracking::kBusy))
      busy_fraction_.set(sim_.now(), static_cast<double>(in_service_) /
                                         static_cast<double>(servers_));
  }

  [[nodiscard]] bool track(StatTracking what) const {
    return (static_cast<unsigned>(track_) & static_cast<unsigned>(what)) !=
           0;
  }

  void ring_push(const Job& job);

  Job ring_pop() {
    const Job job = ring_[ring_head_];
    ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
    --waiting_count_;
    return job;
  }

  Simulator& sim_;
  std::string name_;
  int servers_;
  StatTracking track_;
  std::vector<Job> ring_;       // power-of-two capacity FIFO of waiting jobs
  std::size_t ring_head_ = 0;   // index of the oldest waiting job
  std::size_t waiting_count_ = 0;
  int in_service_ = 0;
  std::uint64_t completions_ = 0;
  TimeAverage busy_fraction_;
  OnlineStats residence_;
};

}  // namespace latol::sim
