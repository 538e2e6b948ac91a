#include "obs/registry.hpp"

#include <atomic>
#include <charconv>
#include <cmath>

namespace latol::obs {

namespace {

template <class Slot, class Deque>
Slot& find_or_create(std::mutex& mutex, Deque& slots, std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex);
  for (auto& entry : slots) {
    if (entry.name == name) return entry.slot;
  }
  // Atomics are immovable; default-construct the slot in place and then
  // name it (deques never relocate existing elements, so the reference
  // stays valid for the registry's lifetime).
  auto& entry = slots.emplace_back();
  entry.name = std::string(name);
  return entry.slot;
}

std::atomic<Registry*> g_default_registry{nullptr};

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create<Counter>(mutex_, counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create<Gauge>(mutex_, gauges_, name);
}

Timer& Registry::timer(std::string_view name) {
  return find_or_create<Timer>(mutex_, timers_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return find_or_create<Histogram>(mutex_, histograms_, name);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& entry : counters_)
    snap.counters.push_back({entry.name, entry.slot.value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& entry : gauges_)
    snap.gauges.push_back({entry.name, entry.slot.value()});
  snap.timers.reserve(timers_.size());
  for (const auto& entry : timers_)
    snap.timers.push_back({entry.name, entry.slot.seconds(),
                           entry.slot.count()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& entry : histograms_) {
    Snapshot::HistogramSample sample;
    sample.name = entry.name;
    sample.count = entry.slot.count();
    sample.sum = entry.slot.sum();
    sample.buckets.resize(Histogram::kFiniteBuckets + 1);
    for (std::size_t i = 0; i <= Histogram::kFiniteBuckets; ++i)
      sample.buckets[i] = entry.slot.bucket(i);
    snap.histograms.push_back(std::move(sample));
  }
  return snap;
}

namespace {

/// Map a registry slot name ("serve.queue_depth") to a legal Prometheus
/// metric name fragment ("serve_queue_depth").
std::string sanitize_metric_name(std::string_view prefix,
                                 std::string_view name) {
  std::string out(prefix);
  out.reserve(prefix.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Shortest round-trip decimal form (Prometheus parses floats; NaN/Inf
/// are legal there but never produced by our slots).
std::string prom_number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  return std::string(buf, end);
}

void append_metric(std::string& out, const std::string& name,
                   const char* type, const std::string& value) {
  out += "# TYPE " + name + " " + type + "\n";
  out += name + " " + value + "\n";
}

}  // namespace

std::string to_prometheus(const Snapshot& snapshot, std::string_view prefix) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    append_metric(out, sanitize_metric_name(prefix, c.name) + "_total",
                  "counter", std::to_string(c.value));
  }
  for (const auto& g : snapshot.gauges) {
    append_metric(out, sanitize_metric_name(prefix, g.name), "gauge",
                  prom_number(g.value));
  }
  for (const auto& t : snapshot.timers) {
    const std::string base = sanitize_metric_name(prefix, t.name);
    append_metric(out, base + "_seconds_total", "counter",
                  prom_number(t.seconds));
    append_metric(out, base + "_count", "counter", std::to_string(t.count));
  }
  for (const auto& h : snapshot.histograms) {
    const std::string base = sanitize_metric_name(prefix, h.name);
    out += "# TYPE " + base + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const bool overflow = i >= Histogram::kFiniteBuckets;
      out += base + "_bucket{le=\"" +
             (overflow ? "+Inf" : prom_number(Histogram::upper_bound(i))) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += base + "_sum " + prom_number(h.sum) + "\n";
    out += base + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

Registry* default_registry() {
  return g_default_registry.load(std::memory_order_acquire);
}

Registry* set_default_registry(Registry* registry) {
  return g_default_registry.exchange(registry, std::memory_order_acq_rel);
}

}  // namespace latol::obs
