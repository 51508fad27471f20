#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <span>
#include <string_view>
#include <utility>
#include <variant>

#include "adversary/lower_bounds.hpp"
#include "adversary/mobility.hpp"
#include "adversary/moving_client_lb.hpp"
#include "adversary/workloads.hpp"
#include "common/contracts.hpp"
#include "stats/rng.hpp"
#include "trace/corpus.hpp"

namespace mobsrv::scenario {

namespace {

using io::Json;

[[noreturn]] void fail(const std::string& ctx, const std::string& message) {
  throw ScenarioError(ctx + ": " + message);
}

std::string quoted(const char* key) {
  std::string out;
  out += '"';
  out += key;
  out += '"';
  return out;
}

/// The frames-layer allowlist discipline: every member of \p obj must be
/// named in \p allowed, so typos fail loudly instead of silently running
/// defaults. The error enumerates the allowed members — a scenario author's
/// only feedback channel is this message.
void reject_unknown_members(const Json& obj, std::span<const char* const> allowed,
                            const std::string& what, const std::string& ctx) {
  for (const Json::Member& member : obj.as_object()) {
    bool ok = false;
    for (const char* key : allowed) ok = ok || member.first == key;
    if (ok) continue;
    std::string list;
    for (const char* key : allowed) {
      if (!list.empty()) list += ", ";
      list += key;
    }
    fail(ctx, "unknown member \"" + member.first + "\" in " + what + " (allowed: " + list + ")");
  }
}

const Json& require(const Json& obj, const char* key, const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) fail(ctx, "missing required member " + quoted(key));
  return *value;
}

double double_field(const Json& obj, const char* key, double fallback, const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail(ctx, quoted(key) + " must be a number");
  const double v = value->as_double();
  if (!std::isfinite(v)) fail(ctx, quoted(key) + " must be finite");
  return v;
}

double double_at_least(const Json& obj, const char* key, double fallback, double min,
                       const std::string& ctx) {
  const double v = double_field(obj, key, fallback, ctx);
  if (v < min) fail(ctx, quoted(key) + " must be >= " + std::to_string(min));
  return v;
}

double double_above(const Json& obj, const char* key, double fallback, double min,
                    const std::string& ctx) {
  const double v = double_field(obj, key, fallback, ctx);
  if (v <= min) fail(ctx, quoted(key) + " must be > " + std::to_string(min));
  return v;
}

double unit_field(const Json& obj, const char* key, double fallback, const std::string& ctx) {
  const double v = double_field(obj, key, fallback, ctx);
  if (v < 0.0 || v > 1.0) fail(ctx, quoted(key) + " must be in [0, 1]");
  return v;
}

double fraction_field(const Json& obj, const char* key, double fallback, const std::string& ctx) {
  const double v = double_field(obj, key, fallback, ctx);
  if (v <= 0.0 || v > 1.0) fail(ctx, quoted(key) + " must be in (0, 1]");
  return v;
}

/// Integer-valued member in [min, kMaxRounds] — the shared ceiling keeps a
/// pasted wall-clock timestamp from dense-allocating terabytes.
std::size_t count_field(const Json& obj, const char* key, std::size_t fallback, std::size_t min,
                        const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail(ctx, quoted(key) + " must be a number");
  std::uint64_t v = 0;
  try {
    v = value->as_uint64();
  } catch (const io::JsonError&) {
    fail(ctx, quoted(key) + " must be a non-negative integer");
  }
  if (v < min) fail(ctx, quoted(key) + " must be >= " + std::to_string(min));
  if (v > kMaxRounds)
    fail(ctx, quoted(key) + " exceeds the limit of " + std::to_string(kMaxRounds));
  return static_cast<std::size_t>(v);
}

int dim_field(const Json& obj, const char* key, int fallback, const std::string& ctx) {
  const std::size_t v = count_field(obj, key, static_cast<std::size_t>(fallback), 1, ctx);
  if (v > static_cast<std::size_t>(sim::Point::kMaxDim))
    fail(ctx, quoted(key) + " must be in [1, " + std::to_string(sim::Point::kMaxDim) + "]");
  return static_cast<int>(v);
}

std::string string_field(const Json& obj, const char* key, const std::string& ctx) {
  const Json& value = require(obj, key, ctx);
  if (!value.is_string()) fail(ctx, quoted(key) + " must be a string");
  if (value.as_string().empty()) fail(ctx, quoted(key) + " must not be empty");
  return value.as_string();
}

sim::ServiceOrder order_field(const Json& obj, const char* key, sim::ServiceOrder fallback,
                              const std::string& ctx) {
  const Json* value = obj.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_string()) fail(ctx, quoted(key) + " must be a string");
  const std::string& s = value->as_string();
  if (s == "move-then-serve") return sim::ServiceOrder::kMoveThenServe;
  if (s == "serve-then-move") return sim::ServiceOrder::kServeThenMove;
  fail(ctx, quoted(key) + " must be \"move-then-serve\" or \"serve-then-move\", got \"" + s + "\"");
}

sim::Point point_value(const Json& value, const std::string& what, const std::string& ctx) {
  if (!value.is_array()) fail(ctx, what + " must be an array of coordinates");
  const Json::Array& coords = value.as_array();
  if (coords.empty() || coords.size() > static_cast<std::size_t>(sim::Point::kMaxDim))
    fail(ctx, what + " must hold 1-" + std::to_string(sim::Point::kMaxDim) + " coordinates");
  sim::Point p(static_cast<int>(coords.size()));
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!coords[i].is_number()) fail(ctx, what + " coordinates must be numbers");
    p[static_cast<int>(i)] = coords[i].as_double();
    if (!std::isfinite(p[static_cast<int>(i)])) fail(ctx, what + " coordinates must be finite");
  }
  return p;
}

/// How a knob's value is validated. The field's type picks the reader; the
/// rule picks the bound.
enum class Rule {
  kCount0,       ///< integer in [0, kMaxRounds]
  kCount1,       ///< integer in [1, kMaxRounds]
  kBatchSize,    ///< kCount1, and horizon × value <= kMaxRounds requests
  kDim,          ///< integer in [1, Point::kMaxDim]
  kAtLeast1,     ///< number >= 1
  kPositive,     ///< number > 0
  kNonNegative,  ///< number >= 0
  kUnit,         ///< number in [0, 1]
  kFraction,     ///< number in (0, 1]
  kOrder,        ///< "move-then-serve" or "serve-then-move"
};

/// Every scalar knob of every kind: its ScenarioParams field, its JSON key
/// and its rule, declared once. A key means the same field and rule in every
/// kind that lists it, and the generator structs name their fields alike, so
/// this one list drives parsing, the canonical form and the generator
/// arguments. The importer kinds' structural members ("start", "file",
/// "steps") are handled by hand.
#define MOBSRV_SCENARIO_KNOBS(X)                             \
  X(horizon, "horizon", kCount1)                             \
  X(move_cost_weight, "d", kAtLeast1)                        \
  X(max_step, "m", kPositive)                                \
  X(dim, "dim", kDim)                                        \
  X(requests_per_step, "requests_per_step", kBatchSize)      \
  X(x, "x", kCount0)                                         \
  X(delta, "delta", kFraction)                               \
  X(r_min, "r_min", kCount1)                                 \
  X(r_max, "r_max", kBatchSize)                              \
  X(server_speed, "server_speed", kPositive)                 \
  X(epsilon, "epsilon", kPositive)                           \
  X(drift_speed, "drift_speed", kNonNegative)                \
  X(spread, "spread", kNonNegative)                          \
  X(site_distance, "site_distance", kPositive)               \
  X(period, "period", kCount1)                               \
  X(burst_probability, "burst_probability", kUnit)           \
  X(half_width, "half_width", kPositive)                     \
  X(speed, "speed", kPositive)                               \
  X(alpha, "alpha", kUnit)                                   \
  X(mean_speed_fraction, "mean_speed_fraction", kFraction)   \
  X(noise_fraction, "noise_fraction", kNonNegative)          \
  X(min_speed_fraction, "min_speed_fraction", kFraction)     \
  X(max_pause, "max_pause", kCount0)                         \
  X(half_period, "half_period", kCount1)                     \
  X(agent_speed, "agent_speed", kPositive)                   \
  X(order, "order", kOrder)

struct Knob {
  const char* key;
  Rule rule;
  std::variant<std::size_t ScenarioParams::*, int ScenarioParams::*, double ScenarioParams::*,
               sim::ServiceOrder ScenarioParams::*>
      field;
};

#define MOBSRV_KNOB_ROW(field, key, rule) Knob{key, Rule::rule, &ScenarioParams::field},
const Knob kKnobs[] = {MOBSRV_SCENARIO_KNOBS(MOBSRV_KNOB_ROW)};
#undef MOBSRV_KNOB_ROW

/// Calls f(generator_field, params_field) for every knob field the
/// generator (or importer) struct G also has.
template <class G, class P, class F>
void for_shared_fields(G& g, P& p, F f) {
#define MOBSRV_SHARED_FIELD(field, key, rule) \
  if constexpr (requires { g.field; }) f(g.field, p.field);
  MOBSRV_SCENARIO_KNOBS(MOBSRV_SHARED_FIELD)
#undef MOBSRV_SHARED_FIELD
}

/// A kind's defaults are its generator struct's own, so the two cannot drift.
template <class G>
ScenarioParams defaults_of() {
  ScenarioParams p;
  const G g{};
  for_shared_fields(g, p, [](const auto& from, auto& to) { to = from; });
  return p;
}

/// The mobility kinds wrap one agent; D = 2 and a unit-speed server are the
/// corpus wrapper's choice.
template <class G>
ScenarioParams mobility_defaults_of() {
  ScenarioParams p = defaults_of<G>();
  p.move_cost_weight = 2.0;
  p.server_speed = 1.0;
  return p;
}

/// The generator arguments: every knob G shares, copied from \p p.
template <class G>
G args_of(const ScenarioParams& p) {
  G g;
  for_shared_fields(g, p, [](auto& to, const auto& from) { to = from; });
  return g;
}

struct Kind {
  std::string name;
  std::vector<const char*> keys;   ///< allowlist: knobs, then structural members
  std::vector<const Knob*> knobs;  ///< the keys found in kKnobs, in order
  ScenarioParams defaults;
};

Kind make_kind(std::string name, std::vector<const char*> keys, ScenarioParams defaults) {
  Kind kind{std::move(name), std::move(keys), {}, std::move(defaults)};
  for (const char* key : kind.keys)
    for (const Knob& knob : kKnobs)
      if (std::string_view(key) == knob.key) kind.knobs.push_back(&knob);
  return kind;
}

/// Every kind with the keys it accepts, in registry order. Key order is the
/// allowlist order and the canonical member order.
const std::vector<Kind>& kinds() {
  static const std::vector<Kind> kKinds = {
      make_kind("theorem1", {"horizon", "d", "m", "dim", "requests_per_step", "x"},
                defaults_of<adv::Theorem1Params>()),
      make_kind("theorem2", {"horizon", "d", "m", "dim", "delta", "r_min", "r_max", "x"},
                defaults_of<adv::Theorem2Params>()),
      make_kind("theorem3", {"horizon", "d", "m", "dim", "requests_per_step"},
                defaults_of<adv::Theorem3Params>()),
      make_kind("theorem8-moving-client", {"horizon", "server_speed", "epsilon", "d", "dim", "x"},
                defaults_of<adv::Theorem8Params>()),
      make_kind("drifting-hotspot",
                {"horizon", "dim", "d", "m", "drift_speed", "spread", "r_min", "r_max"},
                defaults_of<adv::DriftingHotspotParams>()),
      make_kind("commute",
                {"horizon", "dim", "d", "m", "site_distance", "period", "spread",
                 "requests_per_step"},
                defaults_of<adv::CommuteParams>()),
      make_kind("bursts",
                {"horizon", "dim", "d", "m", "drift_speed", "spread", "r_min", "r_max",
                 "burst_probability"},
                defaults_of<adv::BurstParams>()),
      make_kind("uniform-noise", {"horizon", "dim", "d", "m", "half_width", "requests_per_step"},
                defaults_of<adv::UniformNoiseParams>()),
      make_kind("random-waypoint",
                {"horizon", "dim", "speed", "half_width", "max_pause", "min_speed_fraction", "d",
                 "server_speed"},
                mobility_defaults_of<adv::RandomWaypointParams>()),
      make_kind("gauss-markov",
                {"horizon", "dim", "speed", "alpha", "mean_speed_fraction", "noise_fraction", "d",
                 "server_speed"},
                mobility_defaults_of<adv::GaussMarkovParams>()),
      make_kind("zigzag", {"horizon", "dim", "speed", "half_period", "d", "server_speed"},
                mobility_defaults_of<adv::ZigZagParams>()),
      make_kind("demand", {"order", "d", "m", "start", "file", "steps"},
                defaults_of<trace::DemandImportOptions>()),
      make_kind("waypoints", {"d", "server_speed", "agent_speed", "file"},
                defaults_of<trace::WaypointImportOptions>()),
  };
  return kKinds;
}

/// The shortest horizon each lower-bound construction can build (its
/// generator's own contract).
std::size_t min_horizon(const std::string& kind) {
  if (kind == "theorem8-moving-client") return 16;
  if (kind == "theorem1" || kind == "theorem2") return 4;
  return kind == "theorem3" ? 2 : 0;
}

const Kind* find_kind(const std::string& name) {
  for (const Kind& kind : kinds())
    if (kind.name == name) return &kind;
  return nullptr;
}

void read_value(const Json& obj, const Knob& knob, std::size_t& v, const std::string& ctx) {
  v = count_field(obj, knob.key, v, knob.rule == Rule::kCount0 ? 0 : 1, ctx);
}

void read_value(const Json& obj, const Knob& knob, int& v, const std::string& ctx) {
  v = dim_field(obj, knob.key, v, ctx);
}

void read_value(const Json& obj, const Knob& knob, sim::ServiceOrder& v, const std::string& ctx) {
  v = order_field(obj, knob.key, v, ctx);
}

void read_value(const Json& obj, const Knob& knob, double& v, const std::string& ctx) {
  switch (knob.rule) {
    case Rule::kAtLeast1: v = double_at_least(obj, knob.key, v, 1.0, ctx); break;
    case Rule::kNonNegative: v = double_at_least(obj, knob.key, v, 0.0, ctx); break;
    case Rule::kUnit: v = unit_field(obj, knob.key, v, ctx); break;
    case Rule::kFraction: v = fraction_field(obj, knob.key, v, ctx); break;
    default: v = double_above(obj, knob.key, v, 0.0, ctx); break;  // kPositive
  }
}

const char* order_name(sim::ServiceOrder order) {
  return order == sim::ServiceOrder::kMoveThenServe ? "move-then-serve" : "serve-then-move";
}

Json value_json(sim::ServiceOrder order) { return Json(order_name(order)); }
template <class T>
Json value_json(T v) {
  return Json(v);
}

void parse_inline_steps(const Json& value, ScenarioParams& p, const std::string& ctx) {
  if (!value.is_array()) fail(ctx, "\"steps\" must be an array of request batches");
  const Json::Array& steps = value.as_array();
  if (steps.empty()) fail(ctx, "\"steps\" must contain at least one step");
  if (steps.size() > kMaxRounds)
    fail(ctx, "\"steps\" exceeds the limit of " + std::to_string(kMaxRounds) + " rounds");
  int dim = p.start.empty() ? 0 : p.start.dim();
  p.steps.reserve(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) {
    const std::string where = "\"steps\"[" + std::to_string(t) + "]";
    if (!steps[t].is_array()) fail(ctx, where + " must be an array of points");
    std::vector<sim::Point> batch;
    batch.reserve(steps[t].as_array().size());
    for (const Json& request : steps[t].as_array()) {
      sim::Point point = point_value(request, where + " request", ctx);
      if (dim == 0) dim = point.dim();
      if (point.dim() != dim)
        fail(ctx, where + ": inconsistent dimension (expected " + std::to_string(dim) +
                      " coordinates)");
      batch.push_back(std::move(point));
    }
    p.steps.push_back(std::move(batch));
  }
  if (dim == 0)
    fail(ctx, "\"steps\" holds no requests and no \"start\" is given — cannot infer the dimension");
  p.has_inline_steps = true;
}

/// The importer kinds' structural members: demand's "start" and exactly one
/// of "file" and "steps"; waypoints' required "file".
void parse_importer_data(const std::string& kind, const Json& obj, ScenarioParams& p,
                         const std::string& ctx) {
  if (kind == "waypoints") {
    p.file = string_field(obj, "file", ctx);
    return;
  }
  if (const Json* start = obj.find("start")) p.start = point_value(*start, "\"start\"", ctx);
  const Json* file = obj.find("file");
  const Json* steps = obj.find("steps");
  if ((file != nullptr) == (steps != nullptr))
    fail(ctx, "kind \"demand\" requires exactly one of \"file\" and \"steps\"");
  if (file != nullptr) {
    p.file = string_field(obj, "file", ctx);
    return;
  }
  parse_inline_steps(*steps, p, ctx);
  if (p.start.empty()) return;
  // parse_inline_steps already enforced one dimension across requests; an
  // explicit start must share it.
  for (const std::vector<sim::Point>& batch : p.steps)
    for (const sim::Point& request : batch)
      if (request.dim() != p.start.dim())
        fail(ctx, "\"start\" dimension " + std::to_string(p.start.dim()) +
                      " does not match the request dimension " + std::to_string(request.dim()));
}

ScenarioParams parse_params(const Kind& kind, const Json& obj, const std::string& ctx) {
  ScenarioParams p = kind.defaults;
  reject_unknown_members(obj, kind.keys, "\"params\" for kind \"" + kind.name + "\"", ctx);
  for (const Knob* knob : kind.knobs) {
    std::visit([&](auto field) { read_value(obj, *knob, p.*field, ctx); }, knob->field);
    if (knob->key == std::string_view("r_max") && p.r_max < p.r_min)
      fail(ctx, "\"r_max\" must be >= \"r_min\"");
  }
  if (const std::size_t floor = min_horizon(kind.name); p.horizon < floor)
    fail(ctx, "\"horizon\" must be >= " + std::to_string(floor) + " for kind \"" + kind.name +
                  "\"");
  // A generator builds up to horizon × batch size requests; one file must
  // not be able to ask for more than a trace may hold rounds.
  for (const Knob* knob : kind.knobs) {
    if (knob->rule != Rule::kBatchSize) continue;
    const std::size_t batch = p.*std::get<std::size_t ScenarioParams::*>(knob->field);
    if (p.horizon * batch > kMaxRounds)
      fail(ctx, "\"horizon\" " + std::to_string(p.horizon) + " times " + quoted(knob->key) + " " +
                    std::to_string(batch) + " asks for more than " + std::to_string(kMaxRounds) +
                    " requests");
  }
  if (kind.name == "demand" || kind.name == "waypoints")
    parse_importer_data(kind.name, obj, p, ctx);
  return p;
}

trace::TraceFile from_adversarial(trace::TraceMeta meta, adv::AdversarialInstance a) {
  trace::TraceFile file(std::move(meta), std::move(a.instance));
  file.adversary = trace::AdversaryInfo{a.adversary_cost, std::move(a.adversary_positions)};
  return file;
}

trace::TraceFile from_moving_client(trace::TraceMeta meta, sim::MovingClientInstance mc) {
  trace::TraceFile file(std::move(meta), sim::to_instance(mc));
  file.moving_client = std::move(mc);
  return file;
}

std::filesystem::path resolve_path(const std::filesystem::path& base_dir,
                                   const std::string& file) {
  const std::filesystem::path path(file);
  if (path.is_absolute() || base_dir.empty()) return path;
  return base_dir / path;
}

Json point_json(const sim::Point& p) {
  Json arr = Json::array();
  for (int i = 0; i < p.dim(); ++i) arr.push_back(Json(p[i]));
  return arr;
}

Json params_json(const Scenario& sc) {
  const ScenarioParams& p = sc.params;
  Json obj = Json::object();
  const Kind* kind = find_kind(sc.kind);
  if (kind == nullptr) return obj;
  for (const Knob* knob : kind->knobs)
    std::visit([&](auto field) { obj.set(knob->key, value_json(p.*field)); }, knob->field);
  if (sc.kind != "demand" && sc.kind != "waypoints") return obj;
  if (!p.start.empty()) obj.set("start", point_json(p.start));
  if (!p.has_inline_steps) {
    obj.set("file", Json(p.file));
    return obj;
  }
  Json steps = Json::array();
  for (const std::vector<sim::Point>& batch : p.steps) {
    Json requests = Json::array();
    for (const sim::Point& request : batch) requests.push_back(point_json(request));
    steps.push_back(std::move(requests));
  }
  obj.set("steps", std::move(steps));
  return obj;
}

/// True when \p arr can stay on one line: only numbers, or arrays of
/// numbers (a point, or a batch of points). "steps" (arrays of arrays of
/// arrays) breaks one batch per line.
bool inline_array(const Json& arr) {
  for (const Json& element : arr.as_array()) {
    if (element.is_object()) return false;
    if (element.is_array())
      for (const Json& inner : element.as_array())
        if (inner.is_array() || inner.is_object()) return false;
  }
  return true;
}

void pretty(std::string& out, const Json& value, int indent) {
  const auto pad = [&out](int level) { out.append(static_cast<std::size_t>(level) * 2, ' '); };
  if (value.is_object()) {
    const Json::Object& obj = value.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    for (std::size_t i = 0; i < obj.size(); ++i) {
      pad(indent + 1);
      Json(obj[i].first).dump_to(out);
      out += ": ";
      pretty(out, obj[i].second, indent + 1);
      if (i + 1 < obj.size()) out += ",";
      out += "\n";
    }
    pad(indent);
    out += "}";
    return;
  }
  if (value.is_array() && !inline_array(value)) {
    const Json::Array& arr = value.as_array();
    out += "[\n";
    for (std::size_t i = 0; i < arr.size(); ++i) {
      pad(indent + 1);
      pretty(out, arr[i], indent + 1);
      if (i + 1 < arr.size()) out += ",";
      out += "\n";
    }
    pad(indent);
    out += "]";
    return;
  }
  value.dump_to(out);
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const std::vector<std::string>& scenario_kinds() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Kind& kind : kinds()) names.push_back(kind.name);
    return names;
  }();
  return kNames;
}

bool is_scenario_kind(const std::string& kind) { return find_kind(kind) != nullptr; }

Scenario from_json(const Json& doc, const std::string& context) {
  std::string ctx = context;
  if (!doc.is_object()) fail(ctx, "a scenario document must be a JSON object");

  // Pull the name before anything else so every later error is attributed
  // to the scenario, not just the file.
  if (const Json* name = doc.find("name"); name != nullptr && name->is_string())
    ctx += ": scenario \"" + name->as_string() + "\"";

  static constexpr const char* kDocumentKeys[] = {"v",     "name",  "kind",  "seed",
                                                  "speed_factor", "params", "fleet"};
  reject_unknown_members(doc, kDocumentKeys, "a scenario document", ctx);

  const Json& version = require(doc, "v", ctx);
  bool version_ok = version.is_number();
  if (version_ok) {
    try {
      version_ok = version.as_uint64() == kFormatVersion;
    } catch (const io::JsonError&) {
      version_ok = false;
    }
  }
  if (!version_ok)
    fail(ctx, "unsupported format version (this build reads \"v\": " +
                  std::to_string(kFormatVersion) + ")");

  Scenario sc;
  sc.name = string_field(doc, "name", ctx);
  if (!valid_name(sc.name))
    fail(ctx, "\"name\" must use only letters, digits, '-', '_' and '.', got \"" + sc.name + "\"");
  sc.kind = string_field(doc, "kind", ctx);
  const Kind* kind = find_kind(sc.kind);
  if (kind == nullptr) {
    std::string list;
    for (const std::string& kind : scenario_kinds()) {
      if (!list.empty()) list += ", ";
      list += kind;
    }
    fail(ctx, "unknown kind \"" + sc.kind + "\" (known kinds: " + list + ")");
  }

  if (const Json* seed = doc.find("seed")) {
    if (!seed->is_number()) fail(ctx, "\"seed\" must be a number");
    try {
      sc.seed = seed->as_uint64();
    } catch (const io::JsonError&) {
      fail(ctx, "\"seed\" must be a non-negative integer");
    }
  }
  sc.speed_factor = double_at_least(doc, "speed_factor", sc.speed_factor, 1.0, ctx);

  const Json* params = doc.find("params");
  if (params != nullptr && !params->is_object()) fail(ctx, "\"params\" must be an object");
  const Json empty = Json::object();
  sc.params = parse_params(*kind, params != nullptr ? *params : empty, ctx);

  if (const Json* fleet = doc.find("fleet")) {
    if (!fleet->is_object()) fail(ctx, "\"fleet\" must be an object");
    static constexpr const char* kFleetKeys[] = {"size", "spread"};
    reject_unknown_members(*fleet, kFleetKeys, "\"fleet\"", ctx);
    FleetSpec spec;
    spec.size = count_field(*fleet, "size", spec.size, 1, ctx);
    if (spec.size > 4096) fail(ctx, "\"size\" must be in [1, 4096]");
    spec.spread = double_above(*fleet, "spread", spec.spread, 0.0, ctx);
    sc.fleet = spec;
  }
  return sc;
}

Scenario parse(std::string_view text, const std::string& context) {
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const io::JsonError& error) {
    throw ScenarioError(context + ": " + error.what());
  }
  return from_json(doc, context);
}

Scenario load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError(path.string() + ": cannot open (missing file?)");
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return parse(text, path.string());
}

Json to_json(const Scenario& sc) {
  Json doc = Json::object();
  doc.set("v", Json(kFormatVersion));
  doc.set("name", Json(sc.name));
  doc.set("kind", Json(sc.kind));
  doc.set("seed", Json(sc.seed));
  doc.set("speed_factor", Json(sc.speed_factor));
  doc.set("params", params_json(sc));
  if (sc.fleet) {
    Json fleet = Json::object();
    fleet.set("size", Json(sc.fleet->size));
    fleet.set("spread", Json(sc.fleet->spread));
    doc.set("fleet", std::move(fleet));
  }
  return doc;
}

std::string canonical_text(const Scenario& sc) {
  std::string out;
  pretty(out, to_json(sc), 0);
  out += "\n";
  return out;
}

trace::TraceFile materialize(const Scenario& sc, const std::filesystem::path& base_dir) {
  const ScenarioParams& p = sc.params;
  // Keyed by ("corpus", name, seed): a scenario file that names a corpus
  // scenario and pins its parameters materialises the corpus trace.
  stats::Rng rng({stats::hash_name("corpus"), stats::hash_name(sc.name), sc.seed});
  trace::TraceMeta meta{sc.name, "scenario", sc.seed};

  if (sc.kind == "theorem1")
    return from_adversarial(std::move(meta),
                            adv::make_theorem1(args_of<adv::Theorem1Params>(p), rng));
  if (sc.kind == "theorem2")
    return from_adversarial(std::move(meta),
                            adv::make_theorem2(args_of<adv::Theorem2Params>(p), rng));
  if (sc.kind == "theorem3")
    return from_adversarial(std::move(meta),
                            adv::make_theorem3(args_of<adv::Theorem3Params>(p), rng));
  if (sc.kind == "theorem8-moving-client") {
    adv::MovingClientAdversarial result = adv::make_theorem8(args_of<adv::Theorem8Params>(p), rng);
    trace::TraceFile file = from_moving_client(std::move(meta), std::move(result.mc));
    file.adversary = trace::AdversaryInfo{result.adversary_cost,
                                          std::move(result.adversary_positions)};
    return file;
  }
  if (sc.kind == "drifting-hotspot")
    return trace::TraceFile(std::move(meta), adv::make_drifting_hotspot(
                                                 args_of<adv::DriftingHotspotParams>(p), rng));
  if (sc.kind == "commute")
    return trace::TraceFile(std::move(meta),
                            adv::make_commute(args_of<adv::CommuteParams>(p), rng));
  if (sc.kind == "bursts")
    return trace::TraceFile(std::move(meta), adv::make_bursts(args_of<adv::BurstParams>(p), rng));
  if (sc.kind == "uniform-noise")
    return trace::TraceFile(std::move(meta),
                            adv::make_uniform_noise(args_of<adv::UniformNoiseParams>(p), rng));
  if (sc.kind == "demand" && p.has_inline_steps) {
    std::vector<sim::RequestBatch> steps(p.steps.size());
    for (std::size_t t = 0; t < p.steps.size(); ++t) steps[t].requests = p.steps[t];
    sim::Point start = p.start;
    if (start.empty())
      for (const sim::RequestBatch& batch : steps) {
        if (batch.empty()) continue;
        start = batch.requests.front();
        break;
      }
    return trace::TraceFile(std::move(meta), sim::Instance(start, args_of<sim::ModelParams>(p),
                                                           std::move(steps)));
  }
  if (sc.kind == "demand" || sc.kind == "waypoints") {
    const std::filesystem::path path = resolve_path(base_dir, p.file);
    trace::DemandImportOptions demand = args_of<trace::DemandImportOptions>(p);
    demand.start = p.start;
    trace::TraceFile file =
        sc.kind == "demand"
            ? trace::import_demand(path, demand)
            : trace::import_waypoints(path, args_of<trace::WaypointImportOptions>(p));
    file.meta = std::move(meta);
    return file;
  }
  // The mobility kinds drive one agent from the origin.
  const sim::Point origin = sim::Point::zero(p.dim);
  const auto one_agent = [&](sim::AgentPath path) {
    sim::MovingClientInstance mc;
    mc.start = origin;
    mc.server_speed = p.server_speed;
    mc.agent_speed = p.speed;
    mc.move_cost_weight = p.move_cost_weight;
    mc.agents.push_back(std::move(path));
    return from_moving_client(std::move(meta), std::move(mc));
  };
  if (sc.kind == "random-waypoint")
    return one_agent(
        adv::make_random_waypoint(args_of<adv::RandomWaypointParams>(p), origin, rng));
  if (sc.kind == "gauss-markov")
    return one_agent(adv::make_gauss_markov(args_of<adv::GaussMarkovParams>(p), origin, rng));
  if (sc.kind == "zigzag")
    return one_agent(adv::make_zigzag(args_of<adv::ZigZagParams>(p), origin));
  throw ScenarioError("scenario \"" + sc.name + "\": unknown kind \"" + sc.kind + "\"");
}

std::vector<std::filesystem::path> list_scenario_files(const std::filesystem::path& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    throw ScenarioError(dir.string() + ": not a directory (missing corpus?)");
  std::vector<std::filesystem::path> files;
  for (const std::filesystem::directory_entry& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path());
  }
  if (files.empty()) throw ScenarioError(dir.string() + ": no *.json scenario files found");
  std::sort(files.begin(), files.end());
  return files;
}

const std::vector<Scenario>& starter_corpus() {
  static const std::vector<Scenario> kCorpus = [] {
    std::vector<Scenario> corpus;
    const auto add = [&corpus](const std::string& name, const std::string& kind) -> Scenario& {
      Scenario sc;
      sc.name = name;
      sc.kind = kind;
      sc.params = find_kind(kind)->defaults;
      corpus.push_back(std::move(sc));
      return corpus.back();
    };

    // The 12 corpus scenarios with their pinned parameters: the compiled
    // corpus is these, materialised (make_corpus_trace at scale 1).
    add("theorem1", "theorem1").params.horizon = 1024;
    {
      Scenario& sc = add("theorem2", "theorem2");
      sc.params.horizon = 2048;
      sc.params.delta = 0.5;
      sc.params.r_max = 4;
    }
    add("theorem3", "theorem3").params.horizon = 1024;
    add("theorem8-moving-client", "theorem8-moving-client").params.horizon = 1024;
    add("drifting-hotspot", "drifting-hotspot").params.horizon = 512;
    {
      Scenario& sc = add("drifting-hotspot-1d", "drifting-hotspot");
      sc.params.horizon = 512;
      sc.params.dim = 1;
    }
    add("commute", "commute").params.horizon = 512;
    add("bursts", "bursts").params.horizon = 512;
    add("uniform-noise", "uniform-noise").params.horizon = 512;
    add("random-waypoint", "random-waypoint").params.horizon = 512;
    add("gauss-markov", "gauss-markov").params.horizon = 512;
    add("zigzag", "zigzag").params.horizon = 256;

    // Importer examples: inline demand data, CSV demand, CSV waypoints.
    {
      Scenario& sc = add("inline-demand", "demand");
      sc.params.move_cost_weight = 2.0;
      sc.params.has_inline_steps = true;
      sc.params.steps = {
          {sim::Point({0.0, 0.0}), sim::Point({1.0, 0.0})},
          {sim::Point({2.0, 1.0})},
          {},
          {sim::Point({3.0, 2.0}), sim::Point({3.0, 3.0})},
          {sim::Point({4.0, 4.0})},
          {},
          {sim::Point({5.0, 4.0})},
          {sim::Point({6.0, 5.0}), sim::Point({7.0, 5.0})},
      };
    }
    {
      Scenario& sc = add("demand-csv", "demand");
      sc.params.move_cost_weight = 4.0;
      sc.params.file = "data/edge_demand.csv";
    }
    {
      Scenario& sc = add("waypoints-csv", "waypoints");
      sc.params.move_cost_weight = 2.0;
      sc.params.agent_speed = 1.25;
      sc.params.file = "data/helpers.csv";
    }

    // A fleet scenario: four servers spread around the start.
    {
      Scenario& sc = add("fleet-noise", "uniform-noise");
      sc.params.horizon = 256;
      sc.fleet = FleetSpec{4, 4.0};
    }
    return corpus;
  }();
  return kCorpus;
}

const std::vector<CorpusScenario>& corpus_scenarios() {
  static const std::vector<CorpusScenario> kScenarios = {
      {"theorem1", "Theorem 1 adversary: Ω(√T/D) lower bound, no augmentation (1-D)"},
      {"theorem2", "Theorem 2 adversary: Ω((1/δ)·Rmax/Rmin) with augmentation (1-D)"},
      {"theorem3", "Theorem 3 adversary: Answer-First Ω(r/D) two-step cycler (1-D)"},
      {"theorem8-moving-client", "Theorem 8 Moving Client adversary: Ω(√T·ε/(1+ε)) (1-D)"},
      {"drifting-hotspot", "demand hotspot on a bounded random walk, Gaussian requests (2-D)"},
      {"drifting-hotspot-1d", "the same drifting hotspot on the line"},
      {"commute", "day/night demand alternating between two distant sites (2-D)"},
      {"bursts", "bursty volumes on a slowly drifting hotspot (2-D)"},
      {"uniform-noise", "structureless uniform demand in a fixed box (2-D)"},
      {"random-waypoint", "Moving Client with a Random-Waypoint agent (2-D)"},
      {"gauss-markov", "Moving Client with a Gauss–Markov agent (2-D)"},
      {"zigzag", "Moving Client with a deterministic zig-zag agent (1-D)"},
  };
  return kScenarios;
}

trace::TraceFile make_corpus_trace(const std::string& name, std::uint64_t seed, double scale) {
  // The starter corpus opens with the corpus scenarios, in the same order.
  const std::vector<CorpusScenario>& names = corpus_scenarios();
  const auto known = std::find_if(names.begin(), names.end(),
                                  [&name](const CorpusScenario& s) { return s.name == name; });
  if (known == names.end()) throw ContractViolation("unknown corpus scenario: " + name);
  Scenario sc = starter_corpus()[static_cast<std::size_t>(known - names.begin())];
  const double horizon = static_cast<double>(sc.params.horizon) * scale;
  // Guard the double→size_t cast: casting a value ≥ 2^64 (or NaN) is UB,
  // and anything near it is an absurd horizon anyway.
  MOBSRV_CHECK_MSG(scale > 0.0 && horizon < 1e9,
                   "corpus scale out of range (horizon would exceed 1e9)");
  sc.params.horizon = std::max<std::size_t>(16, static_cast<std::size_t>(horizon));
  sc.seed = seed;
  trace::TraceFile file = materialize(sc);
  file.meta.source = "corpus";
  return file;
}

std::vector<std::filesystem::path> write_corpus(trace::Recorder& recorder, std::uint64_t seed,
                                                double scale,
                                                const std::vector<std::string>& algorithms,
                                                double speed_factor) {
  std::vector<std::filesystem::path> paths;
  paths.reserve(corpus_scenarios().size());
  for (const CorpusScenario& scenario : corpus_scenarios()) {
    trace::TraceFile file = make_corpus_trace(scenario.name, seed, scale);
    for (const std::string& algorithm : algorithms)
      file.runs.push_back(trace::record_run(file.instance, algorithm, seed, speed_factor));
    paths.push_back(recorder.write(file));
  }
  return paths;
}

}  // namespace mobsrv::scenario
