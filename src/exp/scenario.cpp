#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace latol::exp {

namespace {

// --- strict-schema helpers ------------------------------------------------

[[noreturn]] void schema_error(const std::string& context,
                               const std::string& message) {
  throw InvalidArgument("scenario: " + context + ": " + message);
}

const io::Json::Object& as_object(const io::Json& v,
                                  const std::string& context) {
  if (!v.is_object()) {
    schema_error(context, std::string("expected an object, got ") +
                              io::json_kind_name(v.kind()));
  }
  return v.as_object();
}

/// Reject members outside `allowed` so typos fail loudly instead of being
/// silently ignored.
void check_keys(const io::Json& obj,
                std::initializer_list<const char*> allowed,
                const std::string& context) {
  for (const auto& [key, value] : as_object(obj, context)) {
    if (std::find_if(allowed.begin(), allowed.end(), [&](const char* a) {
          return key == a;
        }) == allowed.end()) {
      std::ostringstream os;
      os << "unknown key `" << key << "` (allowed:";
      for (const char* a : allowed) os << ' ' << a;
      os << ')';
      schema_error(context, os.str());
    }
  }
}

double get_number(const io::Json& v, const std::string& context) {
  if (!v.is_number()) {
    schema_error(context, std::string("expected a number, got ") +
                              io::json_kind_name(v.kind()));
  }
  return v.as_number();
}

bool get_bool(const io::Json& v, const std::string& context) {
  if (!v.is_bool()) {
    schema_error(context, std::string("expected true/false, got ") +
                              io::json_kind_name(v.kind()));
  }
  return v.as_bool();
}

const std::string& get_string(const io::Json& v, const std::string& context) {
  if (!v.is_string()) {
    schema_error(context, std::string("expected a string, got ") +
                              io::json_kind_name(v.kind()));
  }
  return v.as_string();
}

/// True when `d` is a whole number an int holds; converting any other
/// double to int is undefined.
bool is_int(double d) {
  return std::floor(d) == d && d >= std::numeric_limits<int>::min() &&
         d <= std::numeric_limits<int>::max();
}

int get_int(const io::Json& v, const std::string& context) {
  const double d = get_number(v, context);
  if (!is_int(d)) schema_error(context, "expected an integer");
  return static_cast<int>(d);
}

core::IdealMethod parse_method(const std::string& value,
                               const std::string& context) {
  if (value == "modify_workload") return core::IdealMethod::kModifyWorkload;
  if (value == "zero_delay") return core::IdealMethod::kZeroDelay;
  schema_error(context, "unknown ideal method `" + value +
                            "` (modify_workload|zero_delay)");
}

// --- section parsers ------------------------------------------------------

/// Every key of `base` is a row of the field table, parsed by its kind.
void parse_base(const io::Json& obj, core::MmsConfig& cfg) {
  for (const auto& [key, value] : as_object(obj, "base")) {
    const ConfigField* field = find_field(key);
    if (field == nullptr) {
      std::string names;
      for (const ConfigField& f : config_fields()) (names += ' ') += f.name;
      schema_error("base", "unknown key `" + key + "` (allowed:" + names +
                               ")");
    }
    const std::string ctx = "base." + key;
    double v = 0;
    if (field->kind == FieldKind::kChoice) {
      const std::string& name = get_string(value, ctx);
      try {
        v = choice_value(*field, name);
      } catch (const InvalidArgument& e) {
        schema_error(ctx, e.what());
      }
    } else if (field->kind == FieldKind::kBool) {
      v = get_bool(value, ctx);
    } else {
      v = field->kind == FieldKind::kInteger ? get_int(value, ctx)
                                             : get_number(value, ctx);
    }
    field->set(cfg, v);
  }
}

std::vector<double> parse_axis_values(const io::Json& comp,
                                      const std::string& ctx) {
  const io::Json* values = comp.find("values");
  const io::Json* range = comp.find("range");
  if ((values != nullptr) == (range != nullptr)) {
    schema_error(ctx, "exactly one of `values` or `range` is required");
  }
  std::vector<double> out;
  if (values != nullptr) {
    if (!values->is_array() || values->as_array().empty()) {
      schema_error(ctx + ".values", "expected a non-empty array of numbers");
    }
    for (const io::Json& v : values->as_array()) {
      out.push_back(get_number(v, ctx + ".values"));
    }
    return out;
  }
  const std::string rctx = ctx + ".range";
  check_keys(*range, {"from", "to", "steps"}, rctx);
  const io::Json* from = range->find("from");
  const io::Json* to = range->find("to");
  const io::Json* steps = range->find("steps");
  if (from == nullptr || to == nullptr || steps == nullptr) {
    schema_error(rctx, "requires `from`, `to`, and `steps`");
  }
  const double a = get_number(*from, rctx + ".from");
  const double b = get_number(*to, rctx + ".to");
  const int n = get_int(*steps, rctx + ".steps");
  if (n < 1) schema_error(rctx + ".steps", "must be >= 1");
  return range_values(a, b, n);
}

AxisComponent parse_component(const io::Json& comp, const std::string& ctx) {
  check_keys(comp, {"param", "values", "range"}, ctx);
  const io::Json* param = comp.find("param");
  if (param == nullptr) schema_error(ctx, "missing `param`");
  AxisComponent out;
  out.field = &axis_field(get_string(*param, ctx + ".param"));
  out.values = parse_axis_values(comp, ctx);
  const auto bad = std::find_if_not(out.values.begin(), out.values.end(),
                                    is_int);
  if (out.field->kind == FieldKind::kInteger && bad != out.values.end()) {
    schema_error(ctx, std::string("parameter `") + out.field->name +
                          "` is integer-valued, got " + io::json_number(*bad));
  }
  return out;
}

Axis parse_axis(const io::Json& axis, std::size_t index) {
  std::ostringstream ctxs;
  ctxs << "axes[" << index << "]";
  const std::string ctx = ctxs.str();
  Axis out;
  if (const io::Json* zip = axis.find("zip")) {
    check_keys(axis, {"zip"}, ctx);
    if (!zip->is_array() || zip->as_array().size() < 2) {
      schema_error(ctx + ".zip",
                   "expected an array of at least two components");
    }
    for (std::size_t i = 0; i < zip->as_array().size(); ++i) {
      std::ostringstream c;
      c << ctx << ".zip[" << i << "]";
      out.components.push_back(
          parse_component(zip->as_array()[i], c.str()));
    }
    for (const AxisComponent& comp : out.components) {
      if (comp.values.size() != out.components.front().values.size()) {
        schema_error(ctx + ".zip",
                     "zipped components must have the same length");
      }
    }
  } else {
    out.components.push_back(parse_component(axis, ctx));
  }
  // One axis must not vary the same parameter twice.
  for (std::size_t i = 0; i < out.components.size(); ++i) {
    for (std::size_t j = i + 1; j < out.components.size(); ++j) {
      if (out.components[i].field == out.components[j].field) {
        schema_error(ctx, std::string("parameter `") +
                              out.components[i].field->name +
                              "` appears twice in one axis");
      }
    }
  }
  return out;
}

void parse_outputs(const io::Json& obj, Scenario& s) {
  const std::string ctx = "outputs";
  check_keys(obj,
             {"network_tolerance", "memory_tolerance", "network_method",
              "columns"},
             ctx);
  if (const io::Json* v = obj.find("network_tolerance")) {
    s.network_tolerance = get_bool(*v, ctx + ".network_tolerance");
  }
  if (const io::Json* v = obj.find("memory_tolerance")) {
    s.memory_tolerance = get_bool(*v, ctx + ".memory_tolerance");
  }
  if (const io::Json* v = obj.find("network_method")) {
    s.network_method =
        parse_method(get_string(*v, ctx + ".network_method"),
                     ctx + ".network_method");
  }
  if (const io::Json* v = obj.find("columns")) {
    if (!v->is_array() || v->as_array().empty()) {
      schema_error(ctx + ".columns", "expected a non-empty array of names");
    }
    for (const io::Json& c : v->as_array()) {
      const std::string& name = get_string(c, ctx + ".columns");
      if (!is_known_column(name)) {
        schema_error(ctx + ".columns", "unknown column `" + name + "`");
      }
      s.columns.push_back(name);
    }
  }
}

void parse_solver(const io::Json& obj, Scenario& s) {
  const std::string ctx = "solver";
  check_keys(obj,
             {"method", "max_iterations", "tolerance", "damping", "workers",
              "warm_start"},
             ctx);
  if (const io::Json* v = obj.find("method")) {
    const std::string& name = get_string(*v, ctx + ".method");
    try {
      s.method = core::parse_solve_method(name);
    } catch (const InvalidArgument& e) {
      schema_error(ctx + ".method", e.what());
    }
  }
  if (const io::Json* v = obj.find("max_iterations")) {
    s.amva.max_iterations = get_int(*v, ctx + ".max_iterations");
    if (s.amva.max_iterations < 1) {
      schema_error(ctx + ".max_iterations", "must be >= 1");
    }
  }
  if (const io::Json* v = obj.find("tolerance")) {
    s.amva.tolerance = get_number(*v, ctx + ".tolerance");
    if (!(s.amva.tolerance > 0.0)) {
      schema_error(ctx + ".tolerance", "must be > 0");
    }
  }
  if (const io::Json* v = obj.find("damping")) {
    s.amva.damping = get_number(*v, ctx + ".damping");
    if (!(s.amva.damping > 0.0 && s.amva.damping <= 1.0)) {
      schema_error(ctx + ".damping", "must be in (0, 1]");
    }
  }
  if (const io::Json* v = obj.find("workers")) {
    const int w = get_int(*v, ctx + ".workers");
    if (w < 0) schema_error(ctx + ".workers", "must be >= 0");
    s.workers = static_cast<std::size_t>(w);
  }
  if (const io::Json* v = obj.find("warm_start")) {
    s.warm_start = get_bool(*v, ctx + ".warm_start");
  }
}

void parse_validation(const io::Json& obj, Scenario& s) {
  const std::string ctx = "validation";
  check_keys(obj, {"engine", "time", "seed", "points"}, ctx);
  ValidationSpec spec;
  if (const io::Json* v = obj.find("engine")) {
    spec.engine = get_string(*v, ctx + ".engine");
    if (spec.engine != "des" && spec.engine != "petri") {
      schema_error(ctx + ".engine",
                   "unknown engine `" + spec.engine + "` (des|petri)");
    }
  }
  if (const io::Json* v = obj.find("time")) {
    spec.sim_time = get_number(*v, ctx + ".time");
    if (!(spec.sim_time > 0.0)) schema_error(ctx + ".time", "must be > 0");
  }
  if (const io::Json* v = obj.find("seed")) {
    const double d = get_number(*v, ctx + ".seed");
    if (d < 0 || std::floor(d) != d) {
      schema_error(ctx + ".seed", "expected a non-negative integer");
    }
    spec.seed = static_cast<std::uint64_t>(d);
  }
  if (const io::Json* v = obj.find("points")) {
    if (!v->is_array()) {
      schema_error(ctx + ".points", "expected an array of grid indices");
    }
    for (const io::Json& p : v->as_array()) {
      const int idx = get_int(p, ctx + ".points");
      if (idx < 0) schema_error(ctx + ".points", "indices must be >= 0");
      spec.points.push_back(static_cast<std::size_t>(idx));
    }
  }
  s.validation = std::move(spec);
}

/// Metric columns other than the measures.
constexpr const char* kMetricColumns[] = {
    "iterations",     "tol_network", "tol_memory", "zone_network",
    "zone_memory",    "solver",      "converged",  "error",
    "sim_U_p",        "sim_lambda_net", "sim_S_obs", "sim_L_obs",
    "sim_open_latency",
};

}  // namespace

std::vector<double> range_values(double from, double to, int steps) {
  std::vector<double> out;
  for (int s = 0; s < steps; ++s) {
    out.push_back(steps == 1 ? from : from + (to - from) * s / (steps - 1));
  }
  return out;
}

bool is_known_column(const std::string& column) {
  if (find_axis(column) != nullptr || find_measure(column) != nullptr) {
    return true;
  }
  for (const char* m : kMetricColumns) {
    if (column == m) return true;
  }
  return false;
}

std::vector<std::string> Scenario::output_columns() const {
  if (!columns.empty()) return columns;
  std::vector<std::string> out;
  for (const Axis& axis : axes) {
    for (const AxisComponent& comp : axis.components) {
      if (std::find(out.begin(), out.end(), comp.field->name) == out.end()) {
        out.emplace_back(comp.field->name);
      }
    }
  }
  out.insert(out.end(), {"U_p", "S_obs", "L_obs", "lambda_net"});
  if (network_tolerance) out.emplace_back("tol_network");
  if (memory_tolerance) out.emplace_back("tol_memory");
  out.insert(out.end(), {"solver", "converged"});
  return out;
}

std::uint64_t content_hash(const io::Json& doc) {
  // FNV-1a over the compact dump: stable across whitespace/formatting.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : doc.dump()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Scenario scenario_from_json(const io::Json& doc) {
  Scenario s;
  check_keys(doc,
             {"name", "description", "base", "axes", "outputs", "solver",
              "validation"},
             "top level");
  const io::Json* name = doc.find("name");
  if (name == nullptr) schema_error("top level", "missing `name`");
  s.name = get_string(*name, "name");
  if (s.name.empty()) schema_error("name", "must not be empty");
  // The scenario name becomes output file names; keep it path-safe.
  for (const char c : s.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) {
      schema_error("name", "must contain only [A-Za-z0-9._-], got `" +
                               s.name + "`");
    }
  }
  if (const io::Json* v = doc.find("description")) {
    s.description = get_string(*v, "description");
  }
  if (const io::Json* v = doc.find("base")) parse_base(*v, s.base);
  if (const io::Json* v = doc.find("axes")) {
    if (!v->is_array()) {
      schema_error("axes", "expected an array of axis objects");
    }
    for (std::size_t i = 0; i < v->as_array().size(); ++i) {
      s.axes.push_back(parse_axis(v->as_array()[i], i));
    }
  }
  // A parameter must not appear on two different axes.
  for (std::size_t i = 0; i < s.axes.size(); ++i) {
    for (const AxisComponent& ci : s.axes[i].components) {
      for (std::size_t j = i + 1; j < s.axes.size(); ++j) {
        for (const AxisComponent& cj : s.axes[j].components) {
          if (ci.field == cj.field) {
            schema_error("axes", std::string("parameter `") + ci.field->name +
                                     "` appears on two axes");
          }
        }
      }
    }
  }
  if (const io::Json* v = doc.find("outputs")) parse_outputs(*v, s);
  if (const io::Json* v = doc.find("solver")) parse_solver(*v, s);
  if (const io::Json* v = doc.find("validation")) parse_validation(*v, s);
  // Columns that need a tolerance index require the matching output.
  for (const std::string& c : s.columns) {
    if ((c == "tol_network" || c == "zone_network") && !s.network_tolerance) {
      schema_error("outputs.columns", "column `" + c +
                                          "` requires "
                                          "outputs.network_tolerance");
    }
    if ((c == "tol_memory" || c == "zone_memory") && !s.memory_tolerance) {
      schema_error("outputs.columns", "column `" + c +
                                          "` requires "
                                          "outputs.memory_tolerance");
    }
    if (c.rfind("sim_", 0) == 0 && !s.validation.has_value()) {
      schema_error("outputs.columns",
                   "column `" + c + "` requires a validation section");
    }
  }
  s.source_hash = content_hash(doc);
  return s;
}

Scenario load_scenario(const std::string& path) {
  return scenario_from_json(io::parse_json_file(path));
}

std::size_t grid_size(const Scenario& s) {
  std::size_t total = 1;
  for (const Axis& axis : s.axes) {
    LATOL_REQUIRE(axis.size() >= 1, "empty axis");
    total *= axis.size();
  }
  return total;
}

core::MmsConfig config_at(const Scenario& s, std::size_t index) {
  LATOL_REQUIRE(index < grid_size(s), "grid index out of range");
  // Decompose the flat index as a mixed radix: first axis outermost, last
  // axis fastest.
  core::MmsConfig cfg = s.base;
  for (std::size_t a = s.axes.size(); a-- > 0;) {
    const std::size_t n = s.axes[a].size();
    const std::size_t step = index % n;
    index /= n;
    for (const AxisComponent& comp : s.axes[a].components) {
      comp.field->set(cfg, comp.values[step]);
    }
  }
  return cfg;
}

}  // namespace latol::exp
