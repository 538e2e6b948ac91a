#include "obs/span.hpp"

#include <charconv>
#include <cstdio>
#include <ostream>

namespace latol::obs {
namespace {

std::atomic<TraceSink*> g_sink{nullptr};
std::atomic<std::uint64_t> g_next_sink_id{1};

thread_local std::uint64_t t_current_span = 0;

// Per-thread lane cache: record() must not take the sink mutex on the
// hot path, and must not dereference a stale lane if a sink at the same
// address is destroyed and recreated — hence the sink-id key, not the
// pointer.
struct LaneCache {
  std::uint64_t sink_id = 0;
  void* lane = nullptr;
};
thread_local LaneCache t_lane_cache;

// Shortest round-trip double, matching registry.cpp's prom_number
// policy: integers print without exponent or trailing ".0".
void append_number(std::string& out, double value) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) {
    out += "0";
    return;
  }
  out.append(buf, ptr);
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

// JSON string escaping (obs cannot depend on io::Json — layering).
void append_escaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_event(std::string& out, const TraceEvent& e, std::uint32_t pid) {
  out += "{\"name\":\"";
  append_escaped(out, e.name);
  out += "\",\"cat\":\"";
  append_escaped(out, e.category);
  out += "\",\"ph\":\"";
  out += e.phase;
  out += "\",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":";
  append_u64(out, e.lane);
  out += ",\"ts\":";
  append_u64(out, e.ts_us);
  if (e.phase == 'i') out += ",\"s\":\"t\"";
  out += ",\"args\":{";
  bool first = true;
  if (e.id != 0) {
    out += "\"span_id\":";
    append_u64(out, e.id);
    out += ",\"parent_id\":";
    append_u64(out, e.parent);
    first = false;
  } else if (e.parent != 0) {
    // Instants carry no id of their own but keep the causal link to the
    // enclosing span.
    out += "\"parent_id\":";
    append_u64(out, e.parent);
    first = false;
  }
  for (std::size_t i = 0; i < TraceEvent::kMaxArgs; ++i) {
    if (e.arg_keys[i] == nullptr) continue;
    if (!first) out += ',';
    out += '"';
    append_escaped(out, e.arg_keys[i]);
    out += "\":";
    append_number(out, e.arg_values[i]);
    first = false;
  }
  if (!e.detail.empty()) {
    if (!first) out += ',';
    out += "\"detail\":\"";
    append_escaped(out, e.detail);
    out += '"';
  }
  out += "}}";
}

}  // namespace

TraceSink::TraceSink()
    : epoch_(std::chrono::steady_clock::now()),
      sink_id_(g_next_sink_id.fetch_add(1, std::memory_order_relaxed)) {}

std::uint64_t TraceSink::now_us() const {
  const auto delta = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(delta).count());
}

TraceSink::Lane& TraceSink::lane_for_current_thread() {
  if (t_lane_cache.sink_id == sink_id_ && t_lane_cache.lane != nullptr) {
    return *static_cast<Lane*>(t_lane_cache.lane);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Lane*& slot = by_thread_[std::this_thread::get_id()];
  if (slot == nullptr) {
    lanes_.emplace_back();
    lanes_.back().index = static_cast<std::uint32_t>(lanes_.size() - 1);
    lanes_.back().events.reserve(256);
    slot = &lanes_.back();
  }
  t_lane_cache = {sink_id_, slot};
  return *slot;
}

void TraceSink::record(TraceEvent event) {
  Lane& lane = lane_for_current_thread();
  event.lane = lane.index;
  event.ts_us = now_us();
  lane.events.push_back(std::move(event));
}

std::size_t TraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.events.size();
  return n;
}

void TraceSink::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string buf;
  buf.reserve(4096);
  buf += "{\"traceEvents\":[";
  bool first = true;
  // Lane-name metadata first so Perfetto labels the tracks.
  for (const Lane& lane : lanes_) {
    if (!first) buf += ",\n";
    first = false;
    buf += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    append_u64(buf, lane.index);
    buf += ",\"args\":{\"name\":\"lane-";
    append_u64(buf, lane.index);
    buf += "\"}}";
  }
  // Events concatenated lane by lane: per-tid order (what the Chrome
  // format requires) is exactly the recording order of each thread.
  for (const Lane& lane : lanes_) {
    for (const TraceEvent& e : lane.events) {
      if (!first) buf += ",\n";
      first = false;
      append_event(buf, e, /*pid=*/1);
      if (buf.size() >= 1 << 16) {
        out << buf;
        buf.clear();
      }
    }
  }
  buf += "],\"displayTimeUnit\":\"ms\"}\n";
  out << buf;
}

TraceSink* default_trace_sink() {
  return g_sink.load(std::memory_order_acquire);
}

TraceSink* set_default_trace_sink(TraceSink* sink) {
  return g_sink.exchange(sink, std::memory_order_acq_rel);
}

Span::Span(const char* name, const char* category)
    : sink_(default_trace_sink()) {
  if (sink_ != nullptr) open(name, category, t_current_span);
}

Span::Span(const char* name, const char* category, std::uint64_t parent_id)
    : sink_(default_trace_sink()) {
  if (sink_ != nullptr) open(name, category, parent_id);
}

void Span::open(const char* name, const char* category, std::uint64_t parent) {
  name_ = name;
  category_ = category;
  id_ = sink_->next_span_id();
  parent_ = parent;
  prev_current_ = t_current_span;
  t_current_span = id_;
  TraceEvent begin;
  begin.name = name_;
  begin.category = category_;
  begin.phase = 'B';
  begin.id = id_;
  begin.parent = parent_;
  sink_->record(std::move(begin));
}

Span::~Span() {
  if (sink_ == nullptr || id_ == 0) return;
  TraceEvent end;
  end.name = name_;
  end.category = category_;
  end.phase = 'E';
  end.id = id_;
  end.parent = parent_;
  for (std::size_t i = 0; i < num_args_; ++i) {
    end.arg_keys[i] = arg_keys_[i];
    end.arg_values[i] = arg_values_[i];
  }
  end.detail = std::move(detail_);
  sink_->record(std::move(end));
  t_current_span = prev_current_;
}

void Span::arg(const char* key, double value) {
  if (sink_ == nullptr || num_args_ >= TraceEvent::kMaxArgs) return;
  arg_keys_[num_args_] = key;
  arg_values_[num_args_] = value;
  ++num_args_;
}

void Span::detail(std::string text) {
  if (sink_ == nullptr) return;
  detail_ = std::move(text);
}

void instant(const char* name, const char* category) {
  TraceSink* sink = default_trace_sink();
  if (sink == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.category = category;
  e.phase = 'i';
  e.parent = t_current_span;
  sink->record(std::move(e));
}

}  // namespace latol::obs
