#include "serve/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace mobsrv::serve {

namespace {

using io::Json;

/// Metrics owned by the multiplexer / journal rather than the serve
/// registry; collect() pulls their values at dump time. Listed here so the
/// catalog, the `metrics` frame and the NDJSON snapshot share one source.
struct ExternalMetric {
  const char* name;
  const char* type;
  const char* unit;
  const char* help;
};

constexpr ExternalMetric kExternal[] = {
    {"mux.queue_depth", "gauge", "steps",
     "pending workload steps summed over open sessions (horizon - cursor)"},
    {"mux.step_latency_ns", "histogram", "ns",
     "wall time of each multiplexer round (empty under --lean)"},
    {"mux.steps_per_session", "histogram", "steps",
     "steps consumed per session, closed sessions included"},
    {"obs.journal_dropped_total", "counter", "events",
     "journal events evicted by the bounded ring"},
    {"mux.active_sessions", "gauge", "sessions",
     "sessions on the scheduler's ready list (the open/parked split)"},
    {"mux.throttled_total", "counter", "rounds",
     "session-rounds starved by per-tenant rate limits"},
};

Json metric_header(const ExternalMetric& metric) {
  Json doc = Json::object();
  doc.set("name", metric.name);
  doc.set("type", metric.type);
  doc.set("unit", metric.unit);
  return doc;
}

void set_summary(Json& doc, const obs::HistogramSummary& summary) {
  doc.set("count", summary.count);
  doc.set("sum", summary.sum);
  doc.set("p50", summary.p50);
  doc.set("p90", summary.p90);
  doc.set("p99", summary.p99);
  doc.set("max", summary.max);
}

/// {"kind": <kind>, ...body members...} — the NDJSON line discriminator
/// leads every snapshot line.
Json with_kind(const char* kind, Json body) {
  Json doc = Json::object();
  doc.set("kind", kind);
  for (Json::Member& member : body.as_object())
    doc.set(std::move(member.first), std::move(member.second));
  return doc;
}

std::uint64_t wall_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void TenantTelemetry::push_accept(std::uint64_t ns) {
  // Compact the consumed prefix once it dominates the buffer.
  if (accepted_head_ > 64 && accepted_head_ * 2 >= accepted_ns_.size()) {
    accepted_ns_.erase(accepted_ns_.begin(),
                       accepted_ns_.begin() + static_cast<std::ptrdiff_t>(accepted_head_));
    accepted_head_ = 0;
  }
  accepted_ns_.push_back(ns);
}

std::uint64_t TenantTelemetry::pop_accept() {
  if (accepted_head_ >= accepted_ns_.size()) return 0;
  return accepted_ns_[accepted_head_++];
}

TenantObsRow TenantTelemetry::row() const {
  TenantObsRow out;
  out.reqs = reqs;
  out.outcomes = outcomes;
  out.busys = busys;
  out.errors = errors;
  out.inflight_hwm = inflight_hwm;
  out.ingest_latency = ingest_latency.summary();
  return out;
}

ServeTelemetry::ServeTelemetry(bool lean)
    : lean_(lean),
      journal_(1024),
      frames(registry_.counter("serve.frames_total", "frames", "input frames processed")),
      reqs(registry_.counter("serve.reqs_total", "frames",
                             "req frames accepted or bounced (accepted + busys)")),
      outcomes(registry_.counter("serve.outcomes_total", "frames", "outcome frames emitted")),
      busys(registry_.counter("serve.busys_total", "frames",
                              "req frames bounced by backpressure")),
      errors(registry_.counter("serve.errors_total", "frames",
                               "error frames that closed a tenant")),
      tenants_opened(registry_.counter("serve.tenants_opened_total", "tenants",
                                       "tenants admitted this process")),
      tenants_closed(registry_.counter("serve.tenants_closed_total", "tenants",
                                       "tenants closed (graceful or error)")),
      snapshots(registry_.counter("serve.snapshots_total", "snapshots",
                                  "checkpoint snapshots saved")),
      checkpoint_bytes(registry_.counter("serve.checkpoint_bytes_total", "bytes",
                                         "encoded snapshot segment bytes written")),
      throttles(registry_.counter("serve.throttles_total", "episodes",
                                  "rate-limit throttle episodes entered by tenants")),
      retries(registry_.counter("serve.retries_total", "attempts",
                                "persistence write retries (snapshot + metrics)")),
      degraded_total(registry_.counter("serve.degraded_total", "episodes",
                                       "degraded-mode episodes entered after exhausted retries")),
      idle_timeouts(registry_.counter("serve.idle_timeouts_total", "tenants",
                                      "tenants closed by the --idle-timeout deadline")),
      flushes(registry_.counter("serve.flushes_total", "flushes",
                                "output flushes (one per input pause, plus the final one)")),
      tenants_open(registry_.gauge("serve.tenants_open", "tenants", "tenants open right now")),
      inflight_hwm(registry_.gauge("serve.inflight_hwm", "steps",
                                   "highest in-flight queue depth any tenant reached")),
      degraded(registry_.gauge("serve.degraded", "bool",
                               "1 while persistence is degraded (saves failing), else 0")),
      ingest_latency(registry_.histogram("serve.ingest_latency_ns", "ns",
                                         "req accepted -> outcome emitted wall time")) {}

TenantTelemetry& ServeTelemetry::tenant_row(std::size_t slot, const std::string& tenant) {
  if (slot >= rows_.size()) rows_.resize(slot + 1);
  if (rows_[slot].tenant.empty()) rows_[slot].tenant = tenant;
  return rows_[slot];
}

const TenantTelemetry* ServeTelemetry::row(std::size_t slot) const noexcept {
  return slot < rows_.size() ? &rows_[slot] : nullptr;
}

std::vector<TenantObsRow> ServeTelemetry::rows(std::size_t count) const {
  std::vector<TenantObsRow> out(count);
  const std::size_t known = std::min(count, rows_.size());
  for (std::size_t slot = 0; slot < known; ++slot) out[slot] = rows_[slot].row();
  return out;
}

io::Json::Array ServeTelemetry::collect(const core::SessionMultiplexer& mux) const {
  io::Json::Array metrics = registry_.to_json();
  const core::MuxTotals totals = mux.totals();

  Json queue = metric_header(kExternal[0]);
  queue.set("value", totals.queue_depth);
  metrics.push_back(std::move(queue));

  Json rounds = metric_header(kExternal[1]);
  set_summary(rounds, totals.step_latency);
  metrics.push_back(std::move(rounds));

  Json per_session = metric_header(kExternal[2]);
  set_summary(per_session, totals.steps_per_session);
  metrics.push_back(std::move(per_session));

  Json dropped = metric_header(kExternal[3]);
  dropped.set("value", journal_.dropped());
  metrics.push_back(std::move(dropped));

  Json active = metric_header(kExternal[4]);
  active.set("value", totals.active);
  metrics.push_back(std::move(active));

  Json throttled = metric_header(kExternal[5]);
  throttled.set("value", totals.throttled);
  metrics.push_back(std::move(throttled));

  return metrics;
}

std::string ServeTelemetry::snapshot_ndjson(const core::SessionMultiplexer& mux,
                                            const std::vector<core::SessionStats>& stats) const {
  std::string out;
  const core::MuxTotals totals = mux.totals();

  Json meta = Json::object();
  meta.set("kind", "meta");
  meta.set("v", std::uint64_t{1});
  meta.set("unix_ms", wall_ms());
  meta.set("sessions", totals.sessions);
  meta.set("live", totals.live);
  meta.set("active", totals.active);
  meta.set("steps", totals.steps);
  out += meta.dump();
  out += '\n';

  for (Json& metric : collect(mux)) {
    out += with_kind("metric", std::move(metric)).dump();
    out += '\n';
  }

  const std::vector<TenantObsRow> obs_rows = rows(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    out += with_kind("tenant", stats_to_json(stats[i], &obs_rows[i])).dump();
    out += '\n';
  }

  for (const obs::Event& event : journal_.events()) {
    out += with_kind("event", obs::Journal::event_to_json(event)).dump();
    out += '\n';
  }
  return out;
}

std::vector<MetricInfo> metric_catalog() {
  std::vector<MetricInfo> catalog;
  const ServeTelemetry telemetry(/*lean=*/false);
  for (const auto& entry : telemetry.registry_entries()) {
    MetricInfo info;
    info.name = entry->name;
    info.type = obs::kind_name(entry->kind);
    info.unit = entry->unit;
    info.help = entry->help;
    catalog.push_back(std::move(info));
  }
  for (const ExternalMetric& metric : kExternal)
    catalog.push_back({metric.name, metric.type, metric.unit, metric.help});
  return catalog;
}

}  // namespace mobsrv::serve
