// Span tracing: sink lifecycle, nesting, cross-thread parents, and the
// Chrome trace_event JSON schema (DESIGN.md §14). The schema checks are
// structural — well-formed JSON, matched B/E pairs per tid, monotone
// per-tid timestamps — because the viewer (chrome://tracing, Perfetto)
// silently drops malformed events instead of failing loudly.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stack>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"

namespace latol::obs {
namespace {

/// Installs a sink for one test and guarantees restoration.
class ScopedSink {
 public:
  ScopedSink() : previous_(set_default_trace_sink(&sink_)) {}
  ~ScopedSink() { set_default_trace_sink(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;
  TraceSink& operator*() { return sink_; }
  TraceSink* operator->() { return &sink_; }

 private:
  TraceSink sink_;
  TraceSink* previous_;
};

io::Json dump_and_parse(const TraceSink& sink) {
  std::ostringstream os;
  sink.write_chrome_trace(os);
  return io::parse_json(os.str());
}

TEST(Span, NoSinkInstalledIsInert) {
  ASSERT_EQ(default_trace_sink(), nullptr);
  Span span("test.orphan", "test");
  span.arg("x", 1.0);
  span.detail("ignored");
  EXPECT_EQ(span.id(), 0u);
  instant("test.orphan.instant", "test");
}

TEST(Span, RecordsMatchedBeginEndPairs) {
  ScopedSink sink;
  {
    Span span("test.outer", "test");
    EXPECT_NE(span.id(), 0u);
  }
  EXPECT_EQ(sink->event_count(), 2u);  // one B + one E
}

TEST(Span, NestsImplicitlyWithinAThread) {
  ScopedSink sink;
  std::uint64_t outer_id = 0;
  {
    Span outer("test.outer", "test");
    outer_id = outer.id();
    Span inner("test.inner", "test");
  }
  const io::Json doc = dump_and_parse(*sink);
  // Find the inner span's B event and check its parent link.
  bool found = false;
  for (const io::Json& e : doc.find("traceEvents")->as_array()) {
    if (e.find("name")->as_string() == "test.inner" &&
        e.find("ph")->as_string() == "B") {
      EXPECT_EQ(e.find("args")->find("parent_id")->as_number(),
                static_cast<double>(outer_id));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Span, ExplicitParentCrossesThreads) {
  ScopedSink sink;
  std::uint64_t parent_id = 0;
  {
    Span parent("test.batch", "test");
    parent_id = parent.id();
    std::thread worker([&] {
      Span child("test.point", "test", parent_id);
      EXPECT_NE(child.id(), 0u);
      EXPECT_NE(child.id(), parent_id);
    });
    worker.join();
  }
  const io::Json doc = dump_and_parse(*sink);
  std::map<std::string, double> tid_of;
  for (const io::Json& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() != "B") continue;
    tid_of[e.find("name")->as_string()] = e.find("tid")->as_number();
    if (e.find("name")->as_string() == "test.point") {
      EXPECT_EQ(e.find("args")->find("parent_id")->as_number(),
                static_cast<double>(parent_id));
    }
  }
  ASSERT_EQ(tid_of.size(), 2u);
  EXPECT_NE(tid_of["test.batch"], tid_of["test.point"]);  // separate lanes
}

TEST(Span, ArgsAndDetailRideTheEndEvent) {
  ScopedSink sink;
  {
    Span span("test.args", "test");
    span.arg("alpha", 1.5);
    span.arg("beta", 2.0);
    span.arg("gamma", 2.5);
    span.arg("dropped", 3.0);  // beyond kMaxArgs
    span.detail("free-form \"text\"\n");
  }
  const io::Json doc = dump_and_parse(*sink);
  bool found = false;
  for (const io::Json& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() != "E") continue;
    const io::Json* args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->find("alpha")->as_number(), 1.5);
    EXPECT_DOUBLE_EQ(args->find("beta")->as_number(), 2.0);
    EXPECT_DOUBLE_EQ(args->find("gamma")->as_number(), 2.5);
    EXPECT_EQ(args->find("dropped"), nullptr);
    // detail survives JSON escaping round trip.
    EXPECT_EQ(args->find("detail")->as_string(), "free-form \"text\"\n");
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Span, InstantEventsCarryTheCurrentParent) {
  ScopedSink sink;
  std::uint64_t outer_id = 0;
  {
    Span outer("test.outer", "test");
    outer_id = outer.id();
    instant("test.tick", "test");
  }
  const io::Json doc = dump_and_parse(*sink);
  bool found = false;
  for (const io::Json& e : doc.find("traceEvents")->as_array()) {
    if (e.find("name")->as_string() != "test.tick") continue;
    EXPECT_EQ(e.find("ph")->as_string(), "i");
    EXPECT_EQ(e.find("s")->as_string(), "t");
    EXPECT_EQ(e.find("args")->find("parent_id")->as_number(),
              static_cast<double>(outer_id));
    found = true;
  }
  EXPECT_TRUE(found);
}

/// Full structural schema check over a concurrent recording: the
/// document parses, every tid's timestamps are monotone, every B has a
/// matching E with the same name in stack (LIFO) order, and each lane
/// has a thread_name metadata event. Named *Trace* so the TSan CI job
/// picks it up (tests/CMakeLists.txt comment on the filter).
TEST(TraceSchema, ConcurrentRecordingSerializesWellFormed) {
  ScopedSink sink;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  {
    Span root("test.root", "test");
    const std::uint64_t root_id = root.id();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([root_id] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          Span outer("test.work", "test", root_id);
          outer.arg("i", static_cast<double>(i));
          Span inner("test.work.step", "test");
          instant("test.work.tick", "test");
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  // 1 root span + per thread: 50 * (2 spans * 2 events + 1 instant).
  EXPECT_EQ(sink->event_count(),
            2u + kThreads * kSpansPerThread * 5u);

  const io::Json doc = dump_and_parse(*sink);
  const auto& events = doc.find("traceEvents")->as_array();
  std::map<double, double> last_ts;                      // tid -> last ts
  std::map<double, std::stack<std::string>> open_spans;  // tid -> B stack
  std::map<double, bool> has_thread_name;
  for (const io::Json& e : events) {
    const std::string ph = e.find("ph")->as_string();
    const double tid = e.find("tid")->as_number();
    if (ph == "M") {
      EXPECT_EQ(e.find("name")->as_string(), "thread_name");
      has_thread_name[tid] = true;
      continue;
    }
    // Timestamps are monotone within a tid (recording order per lane).
    const double ts = e.find("ts")->as_number();
    auto [it, fresh] = last_ts.try_emplace(tid, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second);
      it->second = ts;
    }
    if (ph == "B") {
      open_spans[tid].push(e.find("name")->as_string());
    } else if (ph == "E") {
      ASSERT_FALSE(open_spans[tid].empty());
      EXPECT_EQ(open_spans[tid].top(), e.find("name")->as_string());
      open_spans[tid].pop();
    } else {
      EXPECT_EQ(ph, "i");
    }
  }
  for (const auto& [tid, stack] : open_spans) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
    EXPECT_TRUE(has_thread_name[tid]) << "no thread_name for tid " << tid;
  }
}

/// The per-thread lane cache must not leak events into a later sink
/// after the first one is gone (the cache is keyed by sink id, not
/// address).
TEST(TraceSchema, LaneCacheDoesNotCarryAcrossSinks) {
  {
    ScopedSink first;
    { Span span("test.first", "test"); }
    EXPECT_EQ(first->event_count(), 2u);
  }
  ScopedSink second;
  { Span span("test.second", "test"); }
  EXPECT_EQ(second->event_count(), 2u);
  const io::Json doc = dump_and_parse(*second);
  for (const io::Json& e : doc.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() == "M") continue;
    EXPECT_EQ(e.find("name")->as_string(), "test.second");
  }
}

}  // namespace
}  // namespace latol::obs
