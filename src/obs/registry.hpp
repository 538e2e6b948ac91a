// Process-wide instrumentation registry: named counters, gauges, and
// timers with near-zero overhead when disabled.
//
// Design constraints (DESIGN.md §9):
//  - dependency-free: only the standard library, usable from every layer
//    (util <- obs <- qn/sim/...) without dragging io/core in;
//  - thread-safe: slot creation takes a mutex once per name, updates are
//    lock-free atomics (the sweep engine hammers these from the
//    thread-pool workers);
//  - off by default: the global registry pointer starts null and every
//    helper is a single branch in that case, so the paper-reproduction
//    benches pay one predicted-not-taken branch per hook (<1% on
//    perf_mva, guarded in bench/).
//
// Numbers never change results: instrumentation only observes. Anything
// that would alter solver output does not belong here.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace latol::obs {

/// Monotonically increasing event count (events fired, RNG draws, cache
/// hits, ...). Updates are relaxed atomics: totals are exact, ordering
/// between different counters is not promised.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, residual, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Accumulated wall time (steady_clock) plus an invocation count.
class Timer {
 public:
  void add_seconds(double s) {
    seconds_.fetch_add(s, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return seconds_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> seconds_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

/// Fixed log-bucket latency histogram: bucket i covers values up to
/// 1e-6·2^i seconds (1 µs .. ~4295 s across 32 finite buckets), plus an
/// overflow bucket. The bounds are compile-time constants — every
/// histogram shares them, so two runs' histograms are always directly
/// comparable (what `latol profile --diff` relies on) and the Prometheus
/// exposition needs no per-slot configuration. Updates are relaxed
/// atomics like the other slots; `observe` is a short predictable loop
/// (≤33 compares) with no floating-point log.
class Histogram {
 public:
  static constexpr std::size_t kFiniteBuckets = 32;

  /// Inclusive upper bound of finite bucket `i` in seconds (1e-6·2^i).
  [[nodiscard]] static constexpr double upper_bound(std::size_t i) {
    double b = 1e-6;
    for (std::size_t k = 0; k < i; ++k) b *= 2.0;
    return b;
  }

  void observe(double seconds) {
    std::size_t i = 0;
    double bound = 1e-6;
    while (i < kFiniteBuckets && seconds > bound) {
      bound *= 2.0;
      ++i;
    }
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(seconds, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kFiniteBuckets + 1] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Point-in-time copy of a registry, in slot-creation order (stable across
/// runs of the same code path, so metrics JSON diffs cleanly).
struct Snapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0.0;
  };
  struct TimerSample {
    std::string name;
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  struct HistogramSample {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    /// Per-bucket (non-cumulative) counts; index kFiniteBuckets is the
    /// overflow bucket. Bounds are Histogram::upper_bound(i).
    std::vector<std::uint64_t> buckets;
  };
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<TimerSample> timers;
  std::vector<HistogramSample> histograms;
};

/// Named metric slots. Slot lookup/creation is mutex-protected; the
/// returned references stay valid for the registry's lifetime (slots live
/// in deques, which never relocate elements), so hot paths look a metric
/// up once and update it lock-free thereafter.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Timer& timer(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

 private:
  template <class Slot>
  struct Named {
    std::string name;
    Slot slot;
  };

  mutable std::mutex mutex_;
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Gauge>> gauges_;
  std::deque<Named<Timer>> timers_;
  std::deque<Named<Histogram>> histograms_;
};

/// Render `snapshot` in the Prometheus text exposition format (one
/// `# TYPE` line plus samples per metric). Metric names are `prefix` +
/// the slot name with every non-[a-zA-Z0-9_] character mapped to `_`
/// (Prometheus' legal name alphabet): counters become `<name>_total`
/// (TYPE counter), gauges `<name>` (TYPE gauge), timers a pair
/// `<name>_seconds_total` / `<name>_count` (TYPE counter) — the
/// accumulated-wall-time-plus-invocations convention scrapers expect —
/// and histograms the standard cumulative `<name>_bucket{le="..."}`
/// series plus `<name>_sum` / `<name>_count` (TYPE histogram).
/// Output order follows the snapshot (slot-creation order), so repeated
/// scrapes of one process diff cleanly.
[[nodiscard]] std::string to_prometheus(const Snapshot& snapshot,
                                        std::string_view prefix = "latol_");

/// This process's own peak resident set size in kB (`process.peak_rss_kb`
/// in the CLI's manifests and metrics documents and the daemon's gauges):
/// `VmHWM` from /proc/self/status, or getrusage's ru_maxrss (kB on Linux)
/// where /proc is absent.
[[nodiscard]] long peak_rss_kb();

/// The process-global registry; null (instrumentation off) until
/// set_default_registry() installs one. Not owned.
[[nodiscard]] Registry* default_registry();

/// Install (or, with nullptr, remove) the global registry. The caller
/// keeps ownership and must outlive any instrumented code running
/// concurrently. Returns the previous registry.
Registry* set_default_registry(Registry* registry);

// --- null-tolerant helpers: the form instrumented code actually uses ----

/// Bump counter `name` in the default registry; no-op when none is set.
inline void count(std::string_view name, std::uint64_t n = 1) {
  if (Registry* r = default_registry()) r->counter(name).add(n);
}

/// Set gauge `name` in the default registry; no-op when none is set.
inline void gauge_set(std::string_view name, double value) {
  if (Registry* r = default_registry()) r->gauge(name).set(value);
}

/// Add to timer `name` in the default registry; no-op when none is set.
inline void time_add(std::string_view name, double seconds) {
  if (Registry* r = default_registry()) r->timer(name).add_seconds(seconds);
}

/// Record one observation in histogram `name`; no-op when none is set.
inline void observe(std::string_view name, double seconds) {
  if (Registry* r = default_registry()) r->histogram(name).observe(seconds);
}

/// Times a scope into a named timer of the default registry (no-op when
/// instrumentation is off). The clock is only read when a registry is
/// installed.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name)
      : timer_(nullptr) {
    if (Registry* r = default_registry()) {
      timer_ = &r->timer(name);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (timer_ != nullptr) {
      timer_->add_seconds(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count());
    }
  }

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace latol::obs
