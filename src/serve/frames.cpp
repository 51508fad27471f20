#include "serve/frames.hpp"

#include <algorithm>
#include <charconv>

#include "common/contracts.hpp"

namespace mobsrv::serve {

namespace {

using io::Json;

/// The tenant a frame names, best-effort, for error attribution. Returns
/// empty when the line is too broken to tell.
std::string sniff_tenant(const Json& doc) {
  if (!doc.is_object()) return {};
  const Json* tenant = doc.find("tenant");
  if (tenant != nullptr && tenant->is_string()) return tenant->as_string();
  return {};
}

[[noreturn]] void fail(const std::string& message, const std::string& tenant) {
  throw FrameError(message, tenant);
}

/// Rejects members outside \p allowed — a typo'd member must fail loudly,
/// never be silently ignored (the CLI flag discipline, applied to frames).
void reject_unknown_members(const Json& doc, std::initializer_list<const char*> allowed,
                            const std::string& type, const std::string& tenant) {
  for (const Json::Member& member : doc.as_object()) {
    const bool known = std::any_of(allowed.begin(), allowed.end(),
                                   [&](const char* name) { return member.first == name; });
    if (!known)
      fail("unknown member \"" + member.first + "\" in \"" + type + "\" frame", tenant);
  }
}

/// `key` wrapped in JSON-style quotes for error messages.
std::string quoted(const char* key) {
  std::string out = "\"";
  out += key;
  out += '"';
  return out;
}

const Json& require(const Json& doc, const char* key, const std::string& type,
                    const std::string& tenant) {
  const Json* value = doc.find(key);
  if (value == nullptr) fail("\"" + type + "\" frame is missing \"" + key + "\"", tenant);
  return *value;
}

std::string require_string(const Json& doc, const char* key, const std::string& type,
                           const std::string& tenant) {
  const Json& value = require(doc, key, type, tenant);
  if (!value.is_string()) fail(quoted(key) + " must be a string", tenant);
  return value.as_string();
}

double number_or(const Json& doc, const char* key, double fallback, const std::string& tenant) {
  const Json* value = doc.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail(quoted(key) + " must be a number", tenant);
  return value->as_double();
}

std::uint64_t uint_or(const Json& doc, const char* key, std::uint64_t fallback,
                      const std::string& tenant) {
  const Json* value = doc.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail(quoted(key) + " must be an unsigned integer", tenant);
  try {
    return value->as_uint64();
  } catch (const io::JsonError&) {
    fail(quoted(key) + " must be an unsigned integer", tenant);
  }
}

/// Checks a frame's optional `v` member (mandatory on `open`, where the
/// protocol contract is declared).
void check_version(const Json& doc, bool required, const std::string& type,
                   const std::string& tenant) {
  const Json* v = doc.find("v");
  if (v == nullptr) {
    if (required)
      fail("\"" + type + "\" frame must declare the protocol version (\"v\": " +
               std::to_string(kProtocolVersion) + ")",
           tenant);
    return;
  }
  const std::uint64_t version = uint_or(doc, "v", 0, tenant);
  if (version != kProtocolVersion)
    fail("protocol version " + std::to_string(version) + " not supported (this build speaks " +
             std::to_string(kProtocolVersion) + ")",
         tenant);
}

/// Parses a coordinate array into a Point of 1..kMaxDim doubles.
sim::Point parse_point(const Json& value, const char* what, const std::string& tenant) {
  if (!value.is_array()) fail(std::string(what) + " must be an array of numbers", tenant);
  const Json::Array& coords = value.as_array();
  if (coords.empty() || coords.size() > static_cast<std::size_t>(sim::Point::kMaxDim))
    fail(std::string(what) + " must have 1.." + std::to_string(sim::Point::kMaxDim) +
             " coordinates, got " + std::to_string(coords.size()),
         tenant);
  sim::Point p(static_cast<int>(coords.size()));
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!coords[i].is_number())
      fail(std::string(what) + " coordinates must be numbers", tenant);
    p[static_cast<int>(i)] = coords[i].as_double();
  }
  return p;
}

sim::SpeedLimitPolicy policy_from(const std::string& name, const std::string& tenant) {
  if (name == "clamp") return sim::SpeedLimitPolicy::kClamp;
  if (name == "throw") return sim::SpeedLimitPolicy::kThrow;
  fail("unknown \"policy\" \"" + name + "\" (expected \"clamp\" or \"throw\")", tenant);
}

sim::ServiceOrder order_from(const std::string& name, const std::string& tenant) {
  if (name == "move-then-serve") return sim::ServiceOrder::kMoveThenServe;
  if (name == "serve-then-move") return sim::ServiceOrder::kServeThenMove;
  fail("unknown \"order\" \"" + name +
           "\" (expected \"move-then-serve\" or \"serve-then-move\")",
       tenant);
}

std::string policy_name(sim::SpeedLimitPolicy policy) {
  return policy == sim::SpeedLimitPolicy::kThrow ? "throw" : "clamp";
}

std::string order_name(sim::ServiceOrder order) {
  return order == sim::ServiceOrder::kMoveThenServe ? "move-then-serve" : "serve-then-move";
}

Json point_to_json(const sim::Point& p) {
  Json coords = Json::array();
  for (int i = 0; i < p.dim(); ++i) coords.push_back(p[i]);
  return coords;
}

/// Reads the TenantSpec members out of \p doc (ignoring `type`/`v`, which
/// the frame layer owns). Shared by `open` frames and snapshot entries.
TenantSpec spec_from_members(const Json& doc, const std::string& type) {
  const std::string tenant = require_string(doc, "tenant", type, sniff_tenant(doc));
  if (tenant.empty()) fail("\"tenant\" must be a non-empty string", tenant);

  TenantSpec spec;
  spec.tenant = tenant;
  spec.algorithm = require_string(doc, "algorithm", type, tenant);
  spec.seed = uint_or(doc, "seed", 0, tenant);

  const std::uint64_t dim = uint_or(doc, "dim", 0, tenant);
  if (dim < 1 || dim > static_cast<std::uint64_t>(sim::Point::kMaxDim))
    fail("\"dim\" must be 1.." + std::to_string(sim::Point::kMaxDim), tenant);
  spec.dim = static_cast<int>(dim);

  const std::uint64_t k = uint_or(doc, "k", 1, tenant);
  if (k < 1) fail("\"k\" must be >= 1", tenant);
  spec.fleet_size = static_cast<std::size_t>(k);

  spec.speed_factor = number_or(doc, "speed", 1.0, tenant);
  if (spec.speed_factor < 1.0) fail("\"speed\" must be >= 1", tenant);
  if (const Json* policy = doc.find("policy"); policy != nullptr) {
    if (!policy->is_string()) fail("\"policy\" must be a string", tenant);
    spec.policy = policy_from(policy->as_string(), tenant);
  }
  spec.params.move_cost_weight = number_or(doc, "D", 1.0, tenant);
  if (spec.params.move_cost_weight < 1.0) fail("\"D\" must be >= 1", tenant);
  spec.params.max_step = number_or(doc, "m", 1.0, tenant);
  if (spec.params.max_step <= 0.0) fail("\"m\" must be > 0", tenant);
  if (const Json* order = doc.find("order"); order != nullptr) {
    if (!order->is_string()) fail("\"order\" must be a string", tenant);
    spec.params.order = order_from(order->as_string(), tenant);
  }

  spec.rate = number_or(doc, "rate", 0.0, tenant);
  if (spec.rate < 0.0) fail("\"rate\" must be >= 0", tenant);
  spec.rate_burst = number_or(doc, "burst", 0.0, tenant);
  if (spec.rate_burst != 0.0) {
    if (spec.rate <= 0.0) fail("\"burst\" requires a positive \"rate\"", tenant);
    if (spec.rate_burst < 1.0) fail("\"burst\" must be >= 1", tenant);
  }

  const Json* start = doc.find("start");
  const Json* starts = doc.find("starts");
  if (start != nullptr && starts != nullptr)
    fail("give \"start\" (shared) or \"starts\" (per server), not both", tenant);
  if (starts != nullptr) {
    if (!starts->is_array()) fail("\"starts\" must be an array of points", tenant);
    for (const Json& p : starts->as_array())
      spec.starts.push_back(parse_point(p, "\"starts\" entry", tenant));
    if (spec.starts.size() != spec.fleet_size)
      fail("\"starts\" has " + std::to_string(spec.starts.size()) + " points for k = " +
               std::to_string(spec.fleet_size),
           tenant);
  } else {
    const sim::Point shared = start != nullptr
                                  ? parse_point(*start, "\"start\"", tenant)
                                  : sim::Point::zero(spec.dim);
    spec.starts.assign(spec.fleet_size, shared);
  }
  for (const sim::Point& p : spec.starts)
    if (p.dim() != spec.dim)
      fail("start position has " + std::to_string(p.dim()) + " coordinates, \"dim\" says " +
               std::to_string(spec.dim),
           tenant);
  return spec;
}

}  // namespace

Json tenant_spec_to_json(const TenantSpec& spec) {
  Json doc = Json::object();
  doc.set("tenant", spec.tenant);
  doc.set("algorithm", spec.algorithm);
  doc.set("seed", spec.seed);
  doc.set("dim", spec.dim);
  doc.set("k", spec.fleet_size);
  doc.set("speed", spec.speed_factor);
  doc.set("policy", policy_name(spec.policy));
  doc.set("D", spec.params.move_cost_weight);
  doc.set("m", spec.params.max_step);
  doc.set("order", order_name(spec.params.order));
  // Rate members are emitted only when set, keeping rate-less specs (and
  // thus every pre-rate snapshot/`opened` frame) byte-identical to v1.
  if (spec.rate > 0.0) {
    doc.set("rate", spec.rate);
    if (spec.rate_burst > 0.0) doc.set("burst", spec.rate_burst);
  }
  Json starts = Json::array();
  for (const sim::Point& p : spec.starts) starts.push_back(point_to_json(p));
  doc.set("starts", std::move(starts));
  return doc;
}

TenantSpec tenant_spec_from_json(const Json& doc) {
  if (!doc.is_object()) throw FrameError("tenant spec must be a JSON object");
  reject_unknown_members(doc,
                         {"tenant", "algorithm", "seed", "dim", "k", "speed", "policy", "D", "m",
                          "order", "start", "starts", "rate", "burst"},
                         "tenant spec", sniff_tenant(doc));
  return spec_from_members(doc, "tenant spec");
}

namespace {

/// The frame nearly every line is, in the exact shape clients write it:
/// {"type":"req","tenant":"NAME","batch":[[x,...],...]} with no whitespace,
/// no escapes in NAME and at least one request. Reads it without building a
/// Json object and returns true only where parse_client_frame's general
/// path would return the same frame. Anything else (another member order,
/// whitespace, an escape, a bad number, mixed dimensions) returns false and
/// takes the general path, which owns every error message.
bool parse_plain_req(std::string_view line, ClientFrame& frame) {
  constexpr std::string_view kHead = R"({"type":"req","tenant":")";
  constexpr std::string_view kBatch = R"(","batch":[)";
  if (line.substr(0, kHead.size()) != kHead) return false;
  const std::size_t name_end = line.find('"', kHead.size());
  if (name_end == std::string_view::npos) return false;
  const std::string_view name = line.substr(kHead.size(), name_end - kHead.size());
  for (const char c : name)
    if (static_cast<unsigned char>(c) < 0x20 || c == '\\') return false;
  if (line.substr(name_end, kBatch.size()) != kBatch) return false;
  std::size_t pos = name_end + kBatch.size();
  sim::RequestBatch batch;
  int dim = 0;
  for (;;) {
    if (pos >= line.size() || line[pos] != '[') return false;
    ++pos;
    double coords[sim::Point::kMaxDim] = {};
    int n = 0;
    for (;;) {
      const std::string_view token = io::number_token(line.substr(pos));
      Json number;
      if (n == sim::Point::kMaxDim || !io::number_from_token(token, number)) return false;
      coords[n++] = number.as_double();
      pos += token.size();
      if (pos >= line.size()) return false;
      if (line[pos] == ']') break;
      if (line[pos] != ',') return false;
      ++pos;
    }
    ++pos;
    if (dim == 0)
      dim = n;
    else if (n != dim)
      return false;
    sim::Point request(n);
    for (int a = 0; a < n; ++a) request[a] = coords[a];
    batch.requests.push_back(request);
    if (pos >= line.size()) return false;
    if (line[pos] == ']') break;
    if (line[pos] != ',') return false;
    ++pos;
  }
  if (line.substr(pos) != "]}") return false;
  frame.type = FrameType::kReq;
  frame.tenant.assign(name);
  frame.batch = std::move(batch);
  return true;
}

}  // namespace

ClientFrame parse_client_frame(std::string_view line) {
  if (ClientFrame frame; parse_plain_req(line, frame)) return frame;
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const io::JsonError& error) {
    throw FrameError(std::string("malformed JSON: ") + error.what());
  }
  if (!doc.is_object()) throw FrameError("frame must be a JSON object");
  const std::string tenant = sniff_tenant(doc);
  const Json* type_member = doc.find("type");
  if (type_member == nullptr || !type_member->is_string())
    fail("frame is missing its \"type\"", tenant);
  const std::string& type = type_member->as_string();

  ClientFrame frame;
  if (type == "open") {
    frame.type = FrameType::kOpen;
    check_version(doc, /*required=*/true, type, tenant);
    reject_unknown_members(doc,
                           {"type", "v", "tenant", "algorithm", "seed", "dim", "k", "speed",
                            "policy", "D", "m", "order", "start", "starts", "rate", "burst"},
                           type, tenant);
    frame.open = spec_from_members(doc, type);
    frame.tenant = frame.open.tenant;
  } else if (type == "req") {
    frame.type = FrameType::kReq;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v", "tenant", "batch"}, type, tenant);
    frame.tenant = require_string(doc, "tenant", type, tenant);
    const Json& batch = require(doc, "batch", type, tenant);
    if (!batch.is_array()) fail("\"batch\" must be an array of points", tenant);
    frame.batch.requests.reserve(batch.as_array().size());
    int dim = 0;
    for (const Json& request : batch.as_array()) {
      sim::Point p = parse_point(request, "\"batch\" request", tenant);
      if (dim == 0)
        dim = p.dim();
      else if (p.dim() != dim)
        fail("\"batch\" mixes " + std::to_string(dim) + "- and " + std::to_string(p.dim()) +
                 "-dimensional requests",
             tenant);
      frame.batch.requests.push_back(std::move(p));
    }
  } else if (type == "close") {
    frame.type = FrameType::kClose;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v", "tenant"}, type, tenant);
    frame.tenant = require_string(doc, "tenant", type, tenant);
  } else if (type == "stats") {
    frame.type = FrameType::kStats;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v", "tenant"}, type, tenant);
    if (doc.find("tenant") != nullptr)
      frame.tenant = require_string(doc, "tenant", type, tenant);
  } else if (type == "metrics") {
    frame.type = FrameType::kMetrics;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v"}, type, tenant);
  } else if (type == "checkpoint" || type == "shutdown" || type == "kill") {
    frame.type = type == "checkpoint" ? FrameType::kCheckpoint
                 : type == "shutdown" ? FrameType::kShutdown
                                      : FrameType::kKill;
    check_version(doc, /*required=*/false, type, tenant);
    reject_unknown_members(doc, {"type", "v"}, type, tenant);
  } else {
    fail("unknown frame type \"" + type + "\"", tenant);
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Server frame builders.
// ---------------------------------------------------------------------------

std::string opened_frame(const TenantSpec& spec) {
  Json doc = Json::object();
  doc.set("type", "opened");
  doc.set("v", kProtocolVersion);
  Json body = tenant_spec_to_json(spec);
  for (Json::Member& member : body.as_object())
    doc.set(std::move(member.first), std::move(member.second));
  return doc.dump();
}

std::string outcome_frame(const std::string& tenant, std::size_t t, double move_delta,
                          double service_delta, const core::SessionStats& stats, bool lean) {
  // The one frame per consumed step, so it is written straight into the
  // line rather than built as a Json object first (the object's members
  // cost more than the step). The bytes are the ones Json::dump gives for
  // the same members in the same order; test_serve_frames pins that.
  std::string out;
  out.reserve(lean ? 160 : 200);
  out += R"({"type":"outcome","tenant":)";
  io::append_quoted(out, tenant);
  out += R"(,"t":)";
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), t).ptr);
  out += R"(,"move":)";
  io::append_double(out, move_delta);
  out += R"(,"service":)";
  io::append_double(out, service_delta);
  out += R"(,"move_total":)";
  io::append_double(out, stats.move_cost);
  out += R"(,"service_total":)";
  io::append_double(out, stats.service_cost);
  out += R"(,"total":)";
  io::append_double(out, stats.total_cost);
  if (!lean) {
    out += R"(,"positions":[)";
    for (std::size_t i = 0; i < stats.positions.size(); ++i) {
      if (i != 0) out += ',';
      out += '[';
      const sim::Point& p = stats.positions[i];
      for (int a = 0; a < p.dim(); ++a) {
        if (a != 0) out += ',';
        io::append_double(out, p[a]);
      }
      out += ']';
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::string busy_frame(const std::string& tenant, std::uint64_t line, std::size_t queued,
                       std::size_t limit) {
  Json doc = Json::object();
  doc.set("type", "busy");
  doc.set("tenant", tenant);
  doc.set("line", line);
  doc.set("queued", queued);
  doc.set("limit", limit);
  return doc.dump();
}

std::string error_frame(std::uint64_t line, const std::string& message,
                        const std::string& tenant, bool closed_tenant) {
  Json doc = Json::object();
  doc.set("type", "error");
  if (line > 0) doc.set("line", line);
  doc.set("message", message);
  if (!tenant.empty()) {
    doc.set("tenant", tenant);
    doc.set("closed", closed_tenant);
  }
  return doc.dump();
}

Json stats_to_json(const core::SessionStats& stats, const TenantObsRow* row) {
  Json doc = Json::object();
  doc.set("tenant", stats.tenant);
  doc.set("algorithm", stats.algorithm);
  doc.set("k", stats.fleet_size);
  doc.set("steps", stats.steps);
  doc.set("move", stats.move_cost);
  doc.set("service", stats.service_cost);
  doc.set("total", stats.total_cost);
  doc.set("closed", stats.closed);
  if (row != nullptr) {
    // Telemetry members strictly append to the v1 row (byte-compat rule).
    doc.set("queued", stats.horizon - stats.steps);
    doc.set("reqs", row->reqs);
    doc.set("outcomes", row->outcomes);
    doc.set("busys", row->busys);
    doc.set("errors", row->errors);
    doc.set("inflight_hwm", row->inflight_hwm);
    doc.set("throttled", stats.throttled_rounds);
    doc.set("ingest_latency_ns", obs::summary_to_json(row->ingest_latency));
  }
  return doc;
}

std::string closed_frame(const core::SessionStats& stats) {
  Json doc = Json::object();
  doc.set("type", "closed");
  Json body = stats_to_json(stats);
  for (Json::Member& member : body.as_object())
    doc.set(std::move(member.first), std::move(member.second));
  return doc.dump();
}

namespace {

/// Per-tenant rows for stats/metrics frames; \p rows (when given) is
/// indexed by slot id, parallel to \p stats.
Json tenant_rows(const std::vector<core::SessionStats>& stats,
                 const std::vector<TenantObsRow>* rows) {
  if (rows != nullptr)
    MOBSRV_CHECK_MSG(rows->size() == stats.size(),
                     "telemetry rows out of sync with mux snapshot");
  Json tenants = Json::array();
  for (std::size_t i = 0; i < stats.size(); ++i)
    tenants.push_back(stats_to_json(stats[i], rows != nullptr ? &(*rows)[i] : nullptr));
  return tenants;
}

}  // namespace

std::string stats_frame(const std::vector<core::SessionStats>& stats,
                        const core::MuxTotals& totals, const std::vector<TenantObsRow>* rows,
                        bool degraded) {
  Json doc = Json::object();
  doc.set("type", "stats");
  doc.set("tenants", tenant_rows(stats, rows));
  doc.set("sessions", totals.sessions);
  doc.set("live", totals.live);
  doc.set("steps", totals.steps);
  doc.set("move", totals.move_cost);
  doc.set("service", totals.service_cost);
  doc.set("total", totals.total_cost);
  if (rows != nullptr) {
    // Aggregate telemetry, appended after the v1 members (byte-compat).
    doc.set("active_sessions", totals.active);
    doc.set("throttled", totals.throttled);
    doc.set("queue_depth", totals.queue_depth);
    doc.set("step_latency_ns", obs::summary_to_json(totals.step_latency));
    doc.set("steps_per_session", obs::summary_to_json(totals.steps_per_session));
    doc.set("degraded", degraded);
  }
  return doc.dump();
}

std::string metrics_frame(const io::Json::Array& metrics,
                          const std::vector<core::SessionStats>& stats,
                          const std::vector<TenantObsRow>& rows) {
  Json doc = Json::object();
  doc.set("type", "metrics");
  doc.set("v", kProtocolVersion);
  doc.set("metrics", Json(metrics));
  doc.set("tenants", tenant_rows(stats, &rows));
  return doc.dump();
}

std::string checkpointed_frame(const std::string& path, std::size_t sessions, std::size_t steps,
                               const std::string& mode, std::uint64_t bytes,
                               std::size_t segments) {
  Json doc = Json::object();
  doc.set("type", "checkpointed");
  doc.set("path", path);
  doc.set("sessions", sessions);
  doc.set("steps", steps);
  // Segment-chain shape, appended after the v1 members (byte-compat).
  doc.set("mode", mode);
  doc.set("bytes", bytes);
  doc.set("segments", segments);
  return doc.dump();
}

std::string bye_frame(const std::string& reason, const core::MuxTotals& totals) {
  Json doc = Json::object();
  doc.set("type", "bye");
  doc.set("reason", reason);
  doc.set("sessions", totals.sessions);
  doc.set("steps", totals.steps);
  doc.set("total", totals.total_cost);
  return doc.dump();
}

}  // namespace mobsrv::serve
