// Traced layer harness of the benchmark (perfbench/run.py drives it).
//
// It calls each layer's public functions directly — topo, core, qn, exp,
// io, serve, sim — on inputs that run.py generated for one workload, and
// wraps every call in a span recorded from this file only. Spans stay in
// memory and are written out when the run ends.
//
//   perfbench_layers layers <plan.json> <metrics.json> <spans.json>
//       Runs the plan five times, alternating untraced and traced. The
//       traced passes yield the per-layer metrics; their mean time over the
//       median untraced time, minus 1, is obs.trace_overhead_frac.
//   perfbench_layers check <points.json> <out.json>
//       Re-solves single points through a plain qn::solve_amva on
//       MmsModel::build_network and prints U_p and tol_network, so run.py
//       can hold the CLI's numbers against an independent path.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mms_model.hpp"
#include "core/tolerance.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/solve_cache.hpp"
#include "io/json.hpp"
#include "qn/mva_approx.hpp"
#include "qn/robust.hpp"
#include "qn/workspace.hpp"
#include "serve/http.hpp"
#include "sim/mms_des.hpp"
#include "sim/mms_petri.hpp"
#include "sim/petri.hpp"
#include "sim/replicate.hpp"
#include "topo/topology.hpp"
#include "topo/traffic.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace latol;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// --- spans and counters ----------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;  // a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t thread = 0;
};

/// In-memory span store: each thread appends to its own buffer, and the
/// buffers are gathered once a pass has ended. Disabled, a Span reads no
/// clock and records nothing, so the untraced passes run the same calls
/// without tracing.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint64_t next_id() { return ++next_id_; }

  /// The calling thread's buffer; it lives until the process exits.
  std::vector<SpanRecord>& buffer() {
    thread_local std::vector<SpanRecord>* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
      mine = buffers_.back().get();
    }
    return *mine;
  }

  void count(const std::string& name, double value) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += value;
  }

  /// Move every thread's spans into one list. Call only while no traced
  /// work runs (between passes).
  void gather() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_) {
      spans_.insert(spans_.end(), b->begin(), b->end());
      b->clear();
    }
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  /// Total duration (ns) and count of the spans called `name`.
  [[nodiscard]] std::pair<double, double> totals(const std::string& name) const {
    double ns = 0;
    double n = 0;
    for (const SpanRecord& s : spans_) {
      if (name == s.name) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
        n += 1;
      }
    }
    return {ns, n};
  }

  void write_chrome_trace(std::ostream& out) const {
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << s.thread << ", \"ts\": " << s.start_ns / 1000.0
          << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0
          << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
          << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
  }

 private:
  bool enabled_ = false;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
};

Tracer g_tracer;
thread_local std::vector<std::uint64_t> t_stack;
std::atomic<std::uint64_t> g_thread_seq{0};
thread_local const std::uint64_t t_thread = ++g_thread_seq;

/// One timed region around a call into a layer. The name may be set late
/// (rename) when the outcome decides it, e.g. a cache hit versus a miss.
class Span {
 public:
  explicit Span(const char* name) {
    if (!g_tracer.enabled()) return;
    rec_.name = name;
    rec_.id = g_tracer.next_id();
    rec_.parent = t_stack.empty() ? 0 : t_stack.back();
    rec_.thread = t_thread;
    t_stack.push_back(rec_.id);
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (rec_.id == 0) return;
    rec_.end_ns = now_ns();
    t_stack.pop_back();
    g_tracer.buffer().push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void rename(const char* name) {
    if (rec_.id != 0) rec_.name = name;
  }

 private:
  SpanRecord rec_;
};

// --- the plan --------------------------------------------------------------

/// What one pass drives; parsed once, replayed per pass.
struct Plan {
  std::size_t workers = 0;
  std::size_t block_points = 0;  // streaming block size; 0 = the default
  std::vector<io::Json> scenarios;      // scenario documents
  std::vector<std::string> heads;       // HTTP request heads
  std::vector<std::string> json_docs;   // request and response bodies
  struct SimJob {
    core::MmsConfig config;
    double time = 0;
    std::vector<std::uint64_t> seeds;
    std::size_t reps = 0;
  };
  std::vector<SimJob> sim;
};

core::MmsConfig config_from_base(const io::Json& base) {
  io::Json doc = io::Json::object();
  doc.set("name", "point");
  doc.set("base", base);
  return exp::scenario_from_json(doc).base;
}

Plan load_plan(const std::string& path) {
  const io::Json doc = io::parse_json_file(path);
  Plan plan;
  plan.workers = static_cast<std::size_t>(doc.find("workers")->as_number());
  if (const io::Json* b = doc.find("block_points")) {
    plan.block_points = static_cast<std::size_t>(b->as_number());
  }
  for (const io::Json& s : doc.find("scenarios")->as_array()) {
    plan.scenarios.push_back(s);
  }
  for (const io::Json& r : doc.find("requests")->as_array()) {
    plan.heads.push_back(r.find("head")->as_string());
    const std::string& body = r.find("body")->as_string();
    if (!body.empty()) plan.json_docs.push_back(body);
  }
  for (const io::Json& r : doc.find("responses")->as_array()) {
    plan.json_docs.push_back(r.as_string());
  }
  for (const io::Json& j : doc.find("sim")->as_array()) {
    Plan::SimJob job;
    job.config = config_from_base(*j.find("base"));
    job.time = j.find("time")->as_number();
    job.reps = static_cast<std::size_t>(j.find("reps")->as_number());
    for (const io::Json& s : j.find("seeds")->as_array()) {
      job.seeds.push_back(static_cast<std::uint64_t>(s.as_number()));
    }
    plan.sim.push_back(std::move(job));
  }
  return plan;
}

// --- one pass over the layers ----------------------------------------------

/// Model layers point by point: topo traffic table, MmsModel, network,
/// workspace bind, the AMVA kernel (hinted along rows when the scenario
/// warm-starts, as the streaming runner does), the robust chain, the ideal
/// solve behind tol_network, and the SolveCache lookups the runner makes.
void model_layers(const exp::Scenario& s, exp::SolveCache& cache) {
  const std::size_t n = exp::grid_size(s);
  const std::size_t row = s.axes.empty() ? 1 : s.axes.back().size();
  qn::SolverWorkspace ws;
  qn::MvaSolution prior;
  bool has_prior = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % row == 0) has_prior = false;
    core::MmsConfig cfg;
    {
      Span span("exp.grid.config_at");
      cfg = exp::config_at(s, i);
    }
    if (cfg.num_processors() >= 2) {
      const auto topology = topo::make_topology(cfg.topology, cfg.k);
      Span span("topo.traffic.build");
      const topo::RemoteAccessDistribution traffic(*topology, cfg.traffic);
      (void)traffic.average_distance();
    }
    std::unique_ptr<core::MmsModel> model;
    {
      Span span("core.model.build");
      model = std::make_unique<core::MmsModel>(cfg);
    }
    std::optional<qn::ClosedNetwork> built;
    {
      Span span("core.network.build");
      built.emplace(model->build_network());
    }
    const qn::ClosedNetwork& net = *built;
    {
      Span span("qn.workspace.bind");
      ws.bind(net);
    }
    g_tracer.count("qn.amva.slots", static_cast<double>(ws.num_slots()));
    g_tracer.count("qn.amva.binds", 1);
    qn::MvaSolution sol;
    {
      Span span("qn.amva.solve");
      if (s.warm_start) {
        qn::SolveHints hints;
        hints.prior = has_prior ? &prior : nullptr;
        sol = qn::solve_amva(net, s.amva, ws, hints);
      } else {
        sol = qn::solve_amva(net, s.amva, ws);
      }
    }
    g_tracer.count("qn.amva.iterations", static_cast<double>(sol.iterations));
    g_tracer.count("qn.amva.solves", 1);
    if (s.warm_start) {
      prior = std::move(sol);
      has_prior = true;
    }
    {
      qn::RobustOptions ropts;
      ropts.amva = s.amva;
      Span span("qn.robust.solve");
      const qn::SolveReport report = qn::robust_solve(net, ropts);
      g_tracer.count("qn.robust.solves", 1);
      g_tracer.count("qn.robust.degraded",
                     report.degraded || !report.ok() ? 1.0 : 0.0);
    }
    core::MmsConfig ideal_cfg;
    if (s.network_tolerance) {
      Span span("core.tolerance.ideal");
      ideal_cfg = core::ideal_config(cfg, core::Subsystem::kNetwork,
                                     s.network_method);
      core::AnalysisOptions opts;
      opts.amva = s.amva;
      opts.method = s.method;
      (void)core::analyze(ideal_cfg, opts);
    }
    // The runner's lookups: warm main solves bypass the cache, the ideal
    // solves behind tolerance indices always go through it.
    auto lookup = [&](const core::MmsConfig& c) {
      bool hit = false;
      Span span("exp.cache.lookup");
      (void)cache.analyze(c, s.amva, &hit, s.method);
      span.rename(hit ? "exp.cache.hit" : "exp.cache.miss");
    };
    if (!s.warm_start) lookup(cfg);
    if (s.network_tolerance) lookup(ideal_cfg);
  }
}

/// Points per second x mean per-point latency against the measured busy
/// threads (Little's law over the harness's own parallel point loop).
void littles_law(const exp::Scenario& s, std::size_t workers) {
  const std::size_t n = exp::grid_size(s);
  exp::SolveCache cache(8);
  std::vector<std::uint64_t> latency(n, 0);
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  {
    Span loop("exp.point.loop");
    util::parallel_for(
        n,
        [&](std::size_t i) {
          const std::uint64_t start = now_ns();
          {
            Span span("exp.point");
            const core::MmsConfig cfg = exp::config_at(s, i);
            (void)cache.analyze(cfg, s.amva, nullptr, s.method);
            if (s.network_tolerance) {
              (void)cache.analyze(
                  core::ideal_config(cfg, core::Subsystem::kNetwork,
                                     s.network_method),
                  s.amva, nullptr, s.method);
            }
          }
          latency[i] = now_ns() - start;
        },
        workers);
  }
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  const double cpu = cpu_seconds() - cpu0;
  double sum = 0;
  for (const std::uint64_t l : latency) sum += static_cast<double>(l) * 1e-9;
  g_tracer.count("littles.points", static_cast<double>(n));
  g_tracer.count("littles.latency_s", sum);
  g_tracer.count("littles.wall_s", wall);
  g_tracer.count("littles.cpu_s", cpu);
}

void scenario_layers(const Plan& plan, const io::Json& doc) {
  exp::Scenario s;
  {
    Span span("exp.scenario.load");
    s = exp::scenario_from_json(doc);
  }
  exp::SolveCache cache;
  model_layers(s, cache);
  g_tracer.count("exp.cache.hits", static_cast<double>(cache.hits()));
  g_tracer.count("exp.cache.misses", static_cast<double>(cache.misses()));

  exp::RunOptions ropts;
  ropts.workers = plan.workers;
  ropts.block_points = plan.block_points;
  {
    const exp::RunResult run = exp::run_scenario(s, ropts);
    std::ostringstream csv;
    Span span("exp.row.emit");
    exp::write_results_csv(s, run, csv);
    g_tracer.count("exp.row.rows", static_cast<double>(run.points.size()));
  }
  {
    std::ostringstream csv;
    exp::StreamSinks sinks;
    sinks.csv = &csv;
    ropts.warm_start = s.warm_start;
    const double cpu0 = cpu_seconds();
    const std::uint64_t t0 = now_ns();
    {
      Span span("exp.stream.run");
      (void)exp::run_scenario_stream(s, ropts, sinks);
    }
    g_tracer.count("exp.stream.wall_s",
                   static_cast<double>(now_ns() - t0) * 1e-9);
    g_tracer.count("exp.stream.cpu_s", cpu_seconds() - cpu0);
  }
  littles_law(s, plan.workers);
}

void request_layers(const Plan& plan) {
  for (const std::string& head : plan.heads) {
    serve::HttpRequest request;
    std::string error;
    Span span("serve.http.head_parse");
    if (!serve::parse_http_head(head, request, &error)) {
      throw std::runtime_error("request head rejected: " + error);
    }
  }
  for (const std::string& text : plan.json_docs) {
    io::Json doc;
    {
      Span span("io.json.parse");
      doc = io::parse_json(text);
    }
    Span span("io.json.dump");
    (void)doc.dump();
  }
}

void sim_layers(const Plan& plan) {
  for (const Plan::SimJob& job : plan.sim) {
    for (const std::uint64_t seed : job.seeds) {
      sim::SimulationConfig sc;
      sc.mms = job.config;
      sc.sim_time = job.time;
      sc.seed = seed;
      Span span("sim.des.run");
      const sim::SimulationResult r = sim::simulate_mms(sc);
      g_tracer.count("sim.des.events", static_cast<double>(r.events));
      g_tracer.count("sim.des.reps", 1);
    }
    std::unique_ptr<sim::MmsPetriModel> model;
    std::unique_ptr<sim::CompiledPetriNet> compiled;
    {
      Span span("sim.stpn.compile");
      model = std::make_unique<sim::MmsPetriModel>(
          sim::build_mms_petri(job.config));
      compiled = std::make_unique<sim::CompiledPetriNet>(model->net);
    }
    for (const std::uint64_t seed : job.seeds) {
      Span span("sim.stpn.run");
      const sim::PetriMmsResult r = sim::simulate_mms_petri_compiled(
          *model, *compiled, job.config, job.time, 0.1, seed);
      g_tracer.count("sim.stpn.firings", static_cast<double>(r.total_firings));
      g_tracer.count("sim.stpn.reps", 1);
    }
    // Fixed replication count, early stopping off, as `latol simulate
    // --reps N` runs them.
    sim::ReplicationPlan rplan;
    rplan.min_reps = job.reps;
    rplan.max_reps = job.reps;
    rplan.workers = plan.workers;
    sim::SimulationConfig sc;
    sc.mms = job.config;
    sc.sim_time = job.time;
    sc.seed = job.seeds.front();
    Span span("sim.replicate");
    const auto des = sim::replicate_mms(sc, rplan);
    const auto stpn = sim::replicate_mms_petri(job.config, job.time, 0.1,
                                               sc.seed, rplan);
    g_tracer.count("sim.rep.discarded",
                   static_cast<double>(des.speculative_discarded +
                                       stpn.speculative_discarded));
    g_tracer.count("sim.rep.launched",
                   static_cast<double>(des.runs.size() + stpn.runs.size() +
                                       des.speculative_discarded +
                                       stpn.speculative_discarded));
  }
}

double run_pass(const Plan& plan, bool traced) {
  g_tracer.set_enabled(traced);
  const std::uint64_t t0 = now_ns();
  {
    Span span("harness.pass");
    for (const io::Json& doc : plan.scenarios) scenario_layers(plan, doc);
    request_layers(plan);
    sim_layers(plan);
  }
  g_tracer.set_enabled(false);
  g_tracer.gather();
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// --- metrics ---------------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

io::Json layer_metrics(double traced_s, double untraced_s) {
  const Tracer& t = g_tracer;
  io::Json m = io::Json::object();
  auto mean_us = [&](const char* metric, const char* span) {
    const auto [ns, n] = t.totals(span);
    m.set(metric, ratio(ns, n) * 1e-3);
  };
  mean_us("topo.traffic.build_us", "topo.traffic.build");
  mean_us("core.model.build_us", "core.model.build");
  mean_us("core.network.build_us", "core.network.build");
  mean_us("core.tolerance.ideal_us", "core.tolerance.ideal");
  mean_us("qn.workspace.bind_us", "qn.workspace.bind");
  mean_us("qn.amva.solve_us", "qn.amva.solve");
  m.set("qn.amva.iterations",
        ratio(t.counter("qn.amva.iterations"), t.counter("qn.amva.solves")));
  m.set("qn.amva.slots",
        ratio(t.counter("qn.amva.slots"), t.counter("qn.amva.binds")));
  m.set("qn.robust.degraded_ratio",
        ratio(t.counter("qn.robust.degraded"), t.counter("qn.robust.solves")));
  mean_us("exp.grid.config_at_us", "exp.grid.config_at");
  const double hits = t.counter("exp.cache.hits");
  m.set("exp.cache.hit_ratio",
        ratio(hits, hits + t.counter("exp.cache.misses")));
  m.set("exp.cache.hits", hits);
  m.set("exp.cache.lookups", hits + t.counter("exp.cache.misses"));
  mean_us("exp.cache.hit_us", "exp.cache.hit");
  mean_us("exp.cache.miss_us", "exp.cache.miss");
  m.set("exp.row.emit_us", ratio(t.totals("exp.row.emit").first * 1e-3,
                                 t.counter("exp.row.rows")));
  mean_us("exp.scenario.load_us", "exp.scenario.load");
  m.set("exp.stream.concurrency",
        ratio(t.counter("exp.stream.cpu_s"), t.counter("exp.stream.wall_s")));
  mean_us("io.json.parse_us", "io.json.parse");
  mean_us("io.json.dump_us", "io.json.dump");
  mean_us("serve.http.head_parse_us", "serve.http.head_parse");
  m.set("sim.des.events",
        ratio(t.counter("sim.des.events"), t.counter("sim.des.reps")));
  m.set("sim.stpn.firings",
        ratio(t.counter("sim.stpn.firings"), t.counter("sim.stpn.reps")));
  m.set("sim.des.ns_per_event", ratio(t.totals("sim.des.run").first,
                                      t.counter("sim.des.events")));
  m.set("sim.stpn.ns_per_firing", ratio(t.totals("sim.stpn.run").first,
                                        t.counter("sim.stpn.firings")));
  const auto [compile_ns, compiles] = t.totals("sim.stpn.compile");
  m.set("sim.stpn.compile_ms", ratio(compile_ns, compiles) * 1e-6);
  m.set("sim.rep.discarded_ratio", ratio(t.counter("sim.rep.discarded"),
                                         t.counter("sim.rep.launched")));
  // Little's law: throughput x mean latency = mean points in flight,
  // which should equal the threads kept busy.
  const double wall = t.counter("littles.wall_s");
  const double throughput = ratio(t.counter("littles.points"), wall);
  const double latency =
      ratio(t.counter("littles.latency_s"), t.counter("littles.points"));
  const double busy = ratio(t.counter("littles.cpu_s"), wall);
  m.set("littles.points_per_s", throughput);
  m.set("littles.latency_s", latency);
  m.set("littles.in_flight", throughput * latency);
  m.set("littles.threads_busy", busy);
  m.set("obs.littles_law_gap_frac", ratio(throughput * latency, busy) - 1.0);
  m.set("obs.trace_overhead_frac", ratio(traced_s, untraced_s) - 1.0);
  m.set("harness.traced_s", traced_s);
  m.set("harness.untraced_s", untraced_s);
  m.set("harness.spans", static_cast<double>(t.spans().size()));
  return m;
}

int cmd_layers(const std::string& plan_path, const std::string& out_path,
               const std::string& spans_path) {
  const Plan plan = load_plan(plan_path);
  // Alternate untraced and traced passes so drift in machine speed hits
  // both sides; the metrics pool both traced passes.
  std::vector<double> untraced;
  std::vector<double> traced;
  for (int i = 0; i < 5; ++i) {
    (i % 2 == 0 ? untraced : traced).push_back(run_pass(plan, i % 2 == 1));
  }
  std::sort(untraced.begin(), untraced.end());
  const io::Json metrics =
      layer_metrics(0.5 * (traced[0] + traced[1]), untraced[1]);
  std::ofstream spans(spans_path);
  g_tracer.write_chrome_trace(spans);
  io::write_json_file(out_path, metrics, 1);
  return spans.good() ? 0 : 1;
}

// --- independent re-solve ----------------------------------------------------

double plain_up(const core::MmsConfig& cfg, const qn::AmvaOptions& amva) {
  const core::MmsModel model(cfg);
  const qn::ClosedNetwork net = model.build_network();
  const qn::MvaSolution sol = qn::solve_amva(net, amva);
  if (!sol.converged) throw std::runtime_error("plain AMVA did not converge");
  return core::extract_performance(model, net, sol).processor_utilization;
}

int cmd_check(const std::string& in_path, const std::string& out_path) {
  const io::Json points = io::parse_json_file(in_path);
  io::Json out = io::Json::array();
  const qn::AmvaOptions amva{};
  for (const io::Json& base : points.as_array()) {
    const core::MmsConfig cfg = config_from_base(base);
    const double up = plain_up(cfg, amva);
    const double ideal = plain_up(
        core::ideal_config(cfg, core::Subsystem::kNetwork,
                           core::IdealMethod::kModifyWorkload),
        amva);
    io::Json o = io::Json::object();
    o.set("U_p", up);
    o.set("tol_network", up / ideal);
    out.push_back(std::move(o));
  }
  io::write_json_file(out_path, out, -1);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 4 && args[0] == "layers") {
      return cmd_layers(args[1], args[2], args[3]);
    }
    if (args.size() == 3 && args[0] == "check") {
      return cmd_check(args[1], args[2]);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_layers: " << e.what() << '\n';
    return 3;
  }
  std::cerr << "usage: perfbench_layers layers <plan.json> <metrics.json> "
               "<spans.json>\n"
               "       perfbench_layers check <points.json> <out.json>\n";
  return 2;
}
