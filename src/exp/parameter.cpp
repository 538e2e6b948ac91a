#include "exp/parameter.hpp"

#include <sstream>

#include "io/json.hpp"
#include "util/error.hpp"

namespace latol::exp {

namespace {

// The getter and setter of one MmsConfig member, through double.
#define LATOL_ACCESSORS(m)                                            \
  [](const core::MmsConfig& c) { return static_cast<double>(c.m); }, \
      [](core::MmsConfig& c, double v) { c.m = static_cast<decltype(c.m)>(v); }

// Value names in enum order.
constexpr const char* kTopologies[] = {"torus", "mesh", "ring", "hypercube"};
constexpr const char* kPatterns[] = {"geometric", "uniform"};
constexpr const char* kGeometricModes[] = {"distance_class", "per_module"};

using enum FieldKind;

constexpr ConfigField kFields[] = {
    {"k", nullptr, "--k", "N",
     "size parameter (torus/mesh side, ring size,\nhypercube dimension)",
     kInteger, {}, LATOL_ACCESSORS(k)},
    {"topology", nullptr, "--topology", "T", nullptr, kChoice, kTopologies,
     LATOL_ACCESSORS(topology)},
    {"threads", "n_t", "--threads", "N", "threads per processor n_t",
     kInteger, {}, LATOL_ACCESSORS(threads_per_processor)},
    {"runlength", "R", "--runlength", "R", "mean thread runlength", kNumber,
     {}, LATOL_ACCESSORS(runlength)},
    {"context_switch", "C", "--context-switch", "C", "switch overhead",
     kNumber, {}, LATOL_ACCESSORS(context_switch)},
    {"p_remote", nullptr, "--p-remote", "P", "remote access probability",
     kNumber, {}, LATOL_ACCESSORS(p_remote)},
    {"pattern", nullptr, "--pattern", "X", nullptr, kChoice, kPatterns,
     LATOL_ACCESSORS(traffic.pattern)},
    {"p_sw", nullptr, "--p-sw", "X", "geometric locality factor", kNumber,
     {}, LATOL_ACCESSORS(traffic.p_sw)},
    {"geometric_mode", nullptr, nullptr, nullptr, nullptr, kChoice,
     kGeometricModes, LATOL_ACCESSORS(traffic.mode)},
    {"memory_latency", "L", "--memory-latency", "L", "memory access time",
     kNumber, {}, LATOL_ACCESSORS(memory_latency)},
    {"switch_delay", "S", "--switch-delay", "S", "per-switch routing time",
     kNumber, {}, LATOL_ACCESSORS(switch_delay)},
    {"hotspot_node", nullptr, "--hotspot-node", "N",
     "hotspot target, -1 = none", kInteger, {},
     LATOL_ACCESSORS(traffic.hotspot_node)},
    {"hotspot_fraction", nullptr, "--hotspot-fraction", "F",
     "redirected fraction", kNumber, {},
     LATOL_ACCESSORS(traffic.hotspot_fraction)},
    {"memory_ports", nullptr, "--memory-ports", "N",
     "servers per memory module", kInteger, {},
     LATOL_ACCESSORS(memory_ports)},
    {"pipelined_switches", nullptr, "--pipelined-switches", nullptr,
     "switches as pure delays", kBool, {},
     LATOL_ACCESSORS(pipelined_switches)},
    {"open_arrival_rate", "lambda0", "--open-arrival", "F",
     "per-node Poisson rate of background open\nremote requests (mixed "
     "open/closed solve;\nDESIGN.md §12)",
     kNumber, {}, LATOL_ACCESSORS(open_arrival_rate)},
    {"count_source_outbound", nullptr, nullptr, nullptr, nullptr, kBool, {},
     LATOL_ACCESSORS(count_source_outbound)},
};

#undef LATOL_ACCESSORS

// A field added to MmsConfig needs a row in kFields. On 64-bit targets
// this trips when the new field grows the struct; one that fits into
// padding does not.
static_assert(sizeof(void*) != 8 || sizeof(core::MmsConfig) == 112,
              "MmsConfig changed: give each new field a row in kFields "
              "(exp/parameter.cpp), then update this size");

using P = core::MmsPerformance;

constexpr Measure kMeasures[] = {
    {"U_p", &P::processor_utilization},
    {"lambda", &P::access_rate},
    {"lambda_net", &P::message_rate},
    {"S_obs", &P::network_latency},
    {"L_obs", &P::memory_latency},
    {"mem_util", &P::memory_utilization},
    {"switch_util", &P::switch_utilization},
    {"d_avg", &P::average_distance},
    {"residual", &P::residual},
    {"open_latency", &P::open_latency},
    {"open_util", &P::open_utilization},
    {"littles_law_error", &P::littles_law_error},
    {"flow_balance_error", &P::flow_balance_error},
};

}  // namespace

std::span<const ConfigField> config_fields() { return kFields; }

const ConfigField* find_field(std::string_view name) {
  for (const ConfigField& f : kFields) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

const ConfigField* find_axis(std::string_view name) {
  for (const ConfigField& f : kFields) {
    if (f.is_axis() &&
        (name == f.name || (f.alias != nullptr && name == f.alias))) {
      return &f;
    }
  }
  return nullptr;
}

const ConfigField& axis_field(std::string_view name) {
  if (const ConfigField* f = find_axis(name)) return *f;
  std::ostringstream os;
  os << "unknown parameter `" << name << "` (expected one of:";
  for (const ConfigField& f : kFields) {
    if (!f.is_axis()) continue;
    os << ' ' << f.name;
    if (f.alias != nullptr) os << '|' << f.alias;
  }
  os << ')';
  throw InvalidArgument(os.str());
}

std::string choice_names(const ConfigField& field) {
  std::string names;
  for (const char* choice : field.choices) {
    (names += names.empty() ? "" : "|") += choice;
  }
  return names;
}

double choice_value(const ConfigField& field, std::string_view value) {
  for (std::size_t i = 0; i < field.choices.size(); ++i) {
    if (value == field.choices[i]) return static_cast<double>(i);
  }
  throw InvalidArgument("unknown " + std::string(field.name) + " `" +
                        std::string(value) + "` (" + choice_names(field) +
                        ")");
}

void append_value(std::string& out, const ConfigField& field,
                  const core::MmsConfig& config) {
  const double v = field.get(config);
  switch (field.kind) {
    case kBool:
      out += v != 0.0 ? "true" : "false";
      return;
    case kChoice:
      out += field.choices[static_cast<std::size_t>(v)];
      return;
    case kNumber:
    case kInteger:
      out += io::json_number(v);
      return;
  }
}

std::span<const Measure> measures() { return kMeasures; }

const Measure* find_measure(std::string_view name) {
  for (const Measure& m : kMeasures) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace latol::exp
