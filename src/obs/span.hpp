// Span tracing: where the time goes, causally (DESIGN.md §14).
//
// A Span is a nestable, thread-safe RAII region with an explicit parent
// link; a TraceSink collects the begin/end events of every span into
// per-thread buffers and serializes them as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto. The same null-until-
// installed policy as the Registry applies: `default_trace_sink()`
// starts null, every hook is a single predicted-not-taken branch in that
// case, and the paper-reproduction paths stay byte-identical and inside
// the <1% disabled-overhead budget (guarded in bench/perf_mva).
//
// Concurrency model: each thread records into its own buffer — the
// sink's mutex is taken once per (thread, sink) pair to register the
// lane, then appends are plain unsynchronized writes to thread-private
// storage. Serialization (`write_chrome_trace`) requires recording
// threads to be quiescent; the CLI writes after the command returns and
// the daemon writes after its workers joined, so this holds by
// construction.
//
// Parent links: spans nest implicitly per thread (a thread-local current
// span), and explicitly across threads by passing a parent span id — the
// batch runner hands its span id to per-point spans running on worker
// lanes, so Perfetto shows the points nested under the run even though
// they execute on different tids.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace latol::obs {

/// One recorded event. `name` and `category` (and arg keys) must point
/// at static-storage strings — span names are stable literals by policy
/// (tooling groups and diffs on them); per-instance data goes into
/// numeric args or `detail`.
struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 2;

  const char* name = "";
  const char* category = "latol";
  char phase = 'i';        ///< 'B' begin, 'E' end, 'i' instant
  std::uint32_t lane = 0;  ///< recording thread, serialized as tid
  std::uint64_t ts_us = 0; ///< microseconds since the sink's epoch
  std::uint64_t id = 0;    ///< span id (0 for plain instants)
  std::uint64_t parent = 0;///< parent span id (0 = root)
  const char* arg_keys[kMaxArgs] = {nullptr, nullptr};
  double arg_values[kMaxArgs] = {0.0, 0.0};
  std::string detail;      ///< optional string arg (request ids, solver names)
};

/// Collects TraceEvents into per-thread lanes and serializes them as
/// Chrome trace_event JSON. Install with `set_default_trace_sink` for
/// the duration of a command; the caller owns the sink and must outlive
/// any instrumented code running concurrently.
class TraceSink {
 public:
  TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Append `event` to the calling thread's lane (registering the lane
  /// on first use). `event.lane` and `event.ts_us` are filled in here.
  void record(TraceEvent event);

  /// Microseconds since this sink was created (steady clock).
  [[nodiscard]] std::uint64_t now_us() const;

  /// Fresh process-unique span id (never 0).
  std::uint64_t next_span_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Total events recorded across all lanes.
  [[nodiscard]] std::size_t event_count() const;

  /// Serialize everything recorded so far as a Chrome trace JSON
  /// document ({"traceEvents": [...]}). Per-lane event order is
  /// preserved, so timestamps are monotone within each tid and B/E
  /// pairs match. Recording threads must be quiescent (see file
  /// comment).
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Lane {
    std::uint32_t index = 0;
    std::vector<TraceEvent> events;
  };

  Lane& lane_for_current_thread();

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t sink_id_;  ///< process-unique, keys the thread-local cache
  mutable std::mutex mutex_;
  std::deque<Lane> lanes_;  ///< deque: lane pointers stay valid
  std::unordered_map<std::thread::id, Lane*> by_thread_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// The process-global trace sink; null (tracing off) until
/// set_default_trace_sink() installs one. Not owned.
[[nodiscard]] TraceSink* default_trace_sink();

/// Install (or, with nullptr, remove) the global trace sink. Returns the
/// previous sink. The caller keeps ownership.
TraceSink* set_default_trace_sink(TraceSink* sink);

/// A nestable RAII span recording a 'B' event at construction and an
/// 'E' event (carrying any args added in between) at destruction. When
/// no sink is installed every member is a no-op after one branch.
class Span {
 public:
  /// Opens a span whose parent is the calling thread's innermost live
  /// span (0 = root).
  explicit Span(const char* name, const char* category = "latol");

  /// Opens a span with an explicit parent id — the cross-thread form:
  /// pass the id of a span owned by another thread (e.g. the batch
  /// runner's) to nest under it across worker lanes.
  Span(const char* name, const char* category, std::uint64_t parent_id);

  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a numeric arg, emitted with the end event. At most
  /// TraceEvent::kMaxArgs stick; extras are dropped. `key` must be a
  /// static-storage string.
  void arg(const char* key, double value);

  /// Attach one free-form string arg (emitted as args.detail).
  void detail(std::string text);

  /// This span's id (0 when tracing is off).
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  void open(const char* name, const char* category, std::uint64_t parent);

  TraceSink* sink_;
  const char* name_ = "";
  const char* category_ = "";
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t prev_current_ = 0;
  std::size_t num_args_ = 0;
  const char* arg_keys_[TraceEvent::kMaxArgs] = {nullptr, nullptr};
  double arg_values_[TraceEvent::kMaxArgs] = {0.0, 0.0};
  std::string detail_;
};

/// Record a zero-duration instant event ('i') under the calling
/// thread's innermost span; no-op when no sink is installed. Used for
/// point happenings like cache hits and evictions.
void instant(const char* name, const char* category = "latol");

}  // namespace latol::obs
