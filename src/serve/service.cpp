#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "trace/checkpoint.hpp"

namespace mobsrv::serve {

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      mux_(pool_),
      telemetry_(options_.lean) {
  // --lean runs the hot loop clock-free; the counters stay live either way.
  mux_.set_timing_enabled(!options_.lean);
  // A writer killed mid-save leaves a stale ".tmp" beside its target. It is
  // never read (write_bytes_atomic truncates it on the next save), but
  // sweep it so a crashed run leaves nothing an operator could mistake for
  // a real save.
  for (const std::filesystem::path& target : {options_.snapshot_path, options_.metrics_path}) {
    if (target.empty()) continue;
    std::filesystem::path tmp = target;
    tmp += ".tmp";
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
  }
}

void Service::restore(const std::filesystem::path& path) {
  MOBSRV_CHECK_MSG(table_.size() == 0 && mux_.size() == 0,
                   "restore must run before any tenants are admitted");
  const ServiceSnapshot snapshot = read_snapshot(path);
  for (std::size_t i = 0; i < snapshot.tenants.size(); ++i)
    table_.admit_restored(snapshot.tenants[i], snapshot.records[i].cursor, mux_);
  mux_.restore(snapshot.records);
  // Sync the emission ledger with the restored accumulators: outcomes up to
  // the saved cursor were emitted by the previous process.
  for (const auto& tenant : table_.entries()) {
    const core::SessionStats stats = mux_.stats(tenant->slot);
    tenant->emitted = stats.steps;
    tenant->emitted_move = stats.move_cost;
    tenant->emitted_service = stats.service_cost;
  }
  // Telemetry counters are process-local (they start fresh), but the open
  // set is real: rebuild the gauge and the per-slot rows.
  for (const auto& tenant : table_.entries()) {
    telemetry_.tenant_row(tenant->slot, tenant->spec.tenant);
    telemetry_.tenants_open.add(1);
  }
  telemetry_.journal().record(obs::EventType::kRestore, {}, path.string());
}

ExitReason Service::run(std::istream& in, std::ostream& out) {
  std::string line;
  for (;;) {
    if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed))
      return finish(ExitReason::kSignal, out);
    // Input pause: nothing buffered means the client is waiting on us, so
    // consume the queues (and stream outcomes) before blocking on the next
    // line. During a burst, frames keep landing and consumption batches up.
    if (in.rdbuf()->in_avail() <= 0) {
      pump(out);
      flush(out);
    }
    // A failed write means nobody reads the replies any more: stop taking
    // input, but still drain and save what was accepted.
    if (!out) return finish(ExitReason::kHangup, out);
    if (!std::getline(in, line)) {
      // getline also fails when a signal interrupts the read mid-wait.
      if (options_.stop != nullptr && options_.stop->load(std::memory_order_relaxed))
        return finish(ExitReason::kSignal, out);
      return finish(ExitReason::kEof, out);
    }
    ++lines_;
    if (line.empty()) continue;
    if (options_.faults != nullptr) {
      try {
        options_.faults->hit(fault::kSiteServeRead);
      } catch (const std::exception& error) {
        // A `fail` here models a flaky transport read. The line was already
        // read whole, so the honest recovery is to report and keep it —
        // dropping it would deadlock a client waiting on its reply (crash
        // and delay outcomes keep their full effect).
        out << error_frame(lines_, error.what(), "", false) << '\n';
      }
    }
    telemetry_.frames.inc();
    handle_line(line, out);
    if (killed_) return ExitReason::kKill;
    if (shutdown_) return finish(ExitReason::kShutdown, out);
  }
}

void Service::handle_line(const std::string& line, std::ostream& out) {
  ClientFrame frame;
  try {
    frame = parse_client_frame(line);
  } catch (const FrameError& error) {
    // The malformed-frame discipline: close the tenant the frame named (its
    // stream is now unreliable), never the process. Unattributable garbage
    // gets an error frame and nothing else.
    if (!error.tenant().empty() && table_.find(error.tenant()) != nullptr)
      fail_tenant(error.tenant(), error.what(), out);
    else
      out << error_frame(lines_, error.what(), error.tenant(), false) << '\n';
    return;
  }
  switch (frame.type) {
    case FrameType::kOpen:
      handle_open(std::move(frame.open), out);
      break;
    case FrameType::kReq:
      handle_req(frame, out);
      break;
    case FrameType::kClose:
      handle_close(frame.tenant, out);
      break;
    case FrameType::kStats:
      handle_stats(frame.tenant, out);
      break;
    case FrameType::kMetrics:
      handle_metrics(out);
      break;
    case FrameType::kCheckpoint:
      handle_checkpoint(out);
      break;
    case FrameType::kShutdown:
      shutdown_ = true;
      break;
    case FrameType::kKill:
      killed_ = true;
      break;
  }
}

void Service::handle_open(TenantSpec spec, std::ostream& out) {
  const std::string name = spec.tenant;
  // --default-rate fills in an admission rate for tenants that named none;
  // an explicit "rate" (at any value > 0) always wins.
  if (spec.rate == 0.0 && options_.default_rate > 0.0) spec.rate = options_.default_rate;
  try {
    Tenant& tenant = table_.admit(std::move(spec), mux_);
    tenant.last_activity = lines_;
    telemetry_.tenant_row(tenant.slot, name);
    telemetry_.tenants_opened.inc();
    telemetry_.tenants_open.add(1);
    telemetry_.journal().record(obs::EventType::kOpen, name, tenant.spec.algorithm);
    out << opened_frame(tenant.spec) << '\n';
  } catch (const std::exception& error) {
    // Admission failures (duplicate name, unknown algorithm, k > 1 on a
    // single-server strategy) reject the candidate; a tenant already open
    // under this name is untouched.
    out << error_frame(lines_, error.what(), name, false) << '\n';
  }
}

void Service::handle_req(const ClientFrame& frame, std::ostream& out) {
  Tenant* tenant = table_.find(frame.tenant);
  if (tenant == nullptr) {
    out << error_frame(lines_,
                       "unknown tenant \"" + frame.tenant + "\" (send an \"open\" frame first)",
                       frame.tenant, false)
        << '\n';
    return;
  }
  if (!frame.batch.empty() && frame.batch.requests.front().dim() != tenant->spec.dim) {
    fail_tenant(frame.tenant,
                "\"batch\" requests have " +
                    std::to_string(frame.batch.requests.front().dim()) +
                    " coordinates but tenant \"" + frame.tenant + "\" declared dim " +
                    std::to_string(tenant->spec.dim),
                out);
    return;
  }
  // Outside a pump round the emission ledger equals the session cursor, so
  // the queue depth needs no mux stats snapshot (which would allocate
  // position vectors on the req hot path).
  const std::size_t queued = tenant->workload->horizon() - tenant->emitted;
  tenant->last_activity = lines_;  // even a bounced req is a sign of life
  TenantTelemetry& row = telemetry_.tenant_row(tenant->slot, frame.tenant);
  if (queued >= options_.max_inflight) {
    // Bounded in-flight queue: the frame is NOT accepted (the client must
    // re-send it) — an explicit busy beats a silent drop. Consume now so
    // the retry lands. Counted in reqs AND busys, so
    // reqs == outcomes + busys holds at every quiescent point.
    telemetry_.reqs.inc();
    telemetry_.busys.inc();
    ++row.reqs;
    ++row.busys;
    telemetry_.journal().record(obs::EventType::kBusy, frame.tenant,
                                "queued " + std::to_string(queued) + " >= limit " +
                                    std::to_string(options_.max_inflight));
    out << busy_frame(frame.tenant, lines_, queued, options_.max_inflight) << '\n';
    pump(out);
    return;
  }
  tenant->workload->push_step(frame.batch);
  // Re-arm the (possibly parked) slot and bias dispatch toward the deepest
  // queues; enqueue the tenant for the pump's O(pending) sweep.
  mux_.poke(tenant->slot);
  mux_.set_priority(tenant->slot, static_cast<double>(queued + 1));
  if (!tenant->pending) {
    tenant->pending = true;
    pending_slots_.push_back(tenant->slot);
  }
  telemetry_.reqs.inc();
  ++row.reqs;
  if (queued + 1 > row.inflight_hwm) row.inflight_hwm = queued + 1;
  telemetry_.inflight_hwm.raise_to(static_cast<std::int64_t>(queued + 1));
  if (!telemetry_.lean()) row.push_accept(obs::now_ns());
}

void Service::handle_close(const std::string& name, std::ostream& out) {
  Tenant* tenant = table_.find(name);
  if (tenant == nullptr) {
    out << error_frame(lines_, "unknown tenant \"" + name + "\"", name, false) << '\n';
    return;
  }
  pump(out);  // consume its queue (outcomes still stream) before the final bill
  if (table_.find(name) == nullptr) return;  // the pump failed and closed it
  const std::size_t slot = tenant->slot;
  mux_.close(slot);
  telemetry_.tenants_closed.inc();
  telemetry_.tenants_open.add(-1);
  telemetry_.journal().record(obs::EventType::kClose, name);
  out << closed_frame(mux_.stats(slot)) << '\n';
  table_.erase(name);
}

void Service::handle_stats(const std::string& name, std::ostream& out) {
  if (name.empty()) {
    const std::vector<TenantObsRow> rows = telemetry_.rows(mux_.size());
    out << stats_frame(mux_.snapshot(), mux_.totals(), &rows, degraded_) << '\n';
    return;
  }
  Tenant* tenant = table_.find(name);
  if (tenant == nullptr) {
    out << error_frame(lines_, "unknown tenant \"" + name + "\"", name, false) << '\n';
    return;
  }
  tenant->last_activity = lines_;  // a polling client counts as alive
  const TenantTelemetry* row = telemetry_.row(tenant->slot);
  const std::vector<TenantObsRow> rows = {row != nullptr ? row->row() : TenantObsRow{}};
  out << stats_frame({mux_.stats(tenant->slot)}, mux_.totals(), &rows, degraded_) << '\n';
}

void Service::handle_metrics(std::ostream& out) {
  // Quiesce first: with every accepted step consumed, the frame's counters
  // satisfy reqs == outcomes + busys (barring error-closed tenants).
  pump(out);
  out << metrics_frame(telemetry_.collect(mux_), mux_.snapshot(), telemetry_.rows(mux_.size()))
      << '\n';
  write_metrics(out, /*force=*/true);
}

void Service::handle_checkpoint(std::ostream& out) {
  if (options_.snapshot_path.empty()) {
    out << error_frame(lines_,
                       "checkpointing is disabled (start mobsrv_serve with --snapshot PATH)", "",
                       false)
        << '\n';
    return;
  }
  pump(out);  // snapshots are taken at quiescent points only
  maybe_snapshot(out, /*force=*/true);
}

void Service::fail_tenant(const std::string& name, const std::string& message,
                          std::ostream& out) {
  pump(out);  // already-accepted steps still produce their outcomes
  Tenant* tenant = table_.find(name);
  if (tenant == nullptr) {
    // The pump itself failed the tenant and already reported it.
    out << error_frame(lines_, message, name, true) << '\n';
    return;
  }
  const std::size_t slot = tenant->slot;
  mux_.close(slot);
  note_tenant_error(slot, name, message);
  out << error_frame(lines_, message, name, true) << '\n';
  out << closed_frame(mux_.stats(slot)) << '\n';
  table_.erase(name);
}

void Service::note_tenant_error(std::size_t slot, const std::string& name,
                                const std::string& message) {
  telemetry_.errors.inc();
  ++telemetry_.tenant_row(slot, name).errors;
  telemetry_.tenants_closed.inc();
  telemetry_.tenants_open.add(-1);
  telemetry_.journal().record(obs::EventType::kError, name, message);
}

void Service::pump(std::ostream& out) {
  if (!pending_slots_.empty()) {
    // Outcomes stream in slot order within a round — the same order the v1
    // whole-table sweep produced (slot ids are admission-ordered).
    std::sort(pending_slots_.begin(), pending_slots_.end());
    std::vector<core::SessionMultiplexer::SlotError> errors;
    while (!pending_slots_.empty()) {
      // One step per round keeps the per-step cost deltas exact: each live
      // session advances by at most one step between ledger snapshots.
      if (options_.faults != nullptr) {
        try {
          options_.faults->hit(fault::kSiteTenantStep);
        } catch (const std::exception& error) {
          // Observational only (see serve.read): a thrown `fail` on an
          // unconditional rule must not stall the round forever, so the
          // step still runs. Real per-session failures arrive via `errors`.
          out << error_frame(lines_, error.what(), "", false) << '\n';
        }
      }
      errors.clear();
      mux_.step_capturing(1, errors);

      std::size_t keep = 0;
      for (const std::size_t slot : pending_slots_) {
        Tenant* tenant = table_.find_slot(slot);
        if (tenant == nullptr) continue;  // error-closed mid-pump; drop
        const core::SessionStats stats = mux_.stats(slot);
        if (stats.steps > tenant->emitted) {
          tenant->throttling = false;  // the scheduler let it advance again
          out << outcome_frame(tenant->spec.tenant, stats.steps - 1,
                               stats.move_cost - tenant->emitted_move,
                               stats.service_cost - tenant->emitted_service, stats,
                               options_.lean)
              << '\n';
          tenant->emitted = stats.steps;
          tenant->emitted_move = stats.move_cost;
          tenant->emitted_service = stats.service_cost;
          tenant->last_activity = lines_;  // progress counts as life
          ++steps_since_snapshot_;
          ++steps_since_metrics_;
          telemetry_.outcomes.inc();
          TenantTelemetry& row = telemetry_.tenant_row(slot, tenant->spec.tenant);
          ++row.outcomes;
          // Steps restored from a snapshot carry no accept stamp (pop == 0).
          if (const std::uint64_t accepted = row.pop_accept(); accepted != 0) {
            const std::uint64_t latency = obs::now_ns() - accepted;
            row.ingest_latency.record(latency);
            telemetry_.ingest_latency.record(latency);
          }
        } else if (stats.throttled_rounds > tenant->throttled_seen && !tenant->throttling) {
          // Journal one event per throttle EPISODE (entry only), not per
          // starved round — the journal is for rare lifecycle events.
          tenant->throttling = true;
          telemetry_.throttles.inc();
          telemetry_.journal().record(
              obs::EventType::kThrottle, tenant->spec.tenant,
              "rate " + std::to_string(tenant->spec.rate) + " steps/round, queued " +
                  std::to_string(tenant->workload->horizon() - tenant->emitted));
        }
        tenant->throttled_seen = stats.throttled_rounds;
        if (tenant->workload->horizon() > tenant->emitted)
          pending_slots_[keep++] = slot;
        else
          tenant->pending = false;
      }
      pending_slots_.resize(keep);

      // Sessions that threw were closed by the mux (their slot alone);
      // report and drop them — every other tenant keeps streaming.
      for (const core::SessionMultiplexer::SlotError& error : errors) {
        Tenant* tenant = table_.find_slot(error.id);
        if (tenant == nullptr) continue;
        const std::string name = tenant->spec.tenant;
        note_tenant_error(error.id, name, error.message);
        out << error_frame(lines_, error.message, name, true) << '\n';
        out << closed_frame(mux_.stats(error.id)) << '\n';
        table_.erase(name);
      }
    }
  }
  reap_idle(out);
  maybe_snapshot(out, /*force=*/false);
  write_metrics(out, /*force=*/false);
}

void Service::reap_idle(std::ostream& out) {
  if (options_.idle_timeout == 0) return;
  // Collect first: closing mutates the table under iteration otherwise.
  std::vector<std::string> expired;
  for (const auto& tenant : table_.entries()) {
    if (lines_ - tenant->last_activity < options_.idle_timeout) continue;
    // A tenant with queued (possibly throttled) work is waiting on the
    // service, not idle — pausing a rate-limited workload is legitimate.
    if (tenant->workload->horizon() > tenant->emitted) continue;
    expired.push_back(tenant->spec.tenant);
  }
  for (const std::string& name : expired) {
    Tenant* tenant = table_.find(name);
    if (tenant == nullptr) continue;
    const std::size_t slot = tenant->slot;
    const std::string message = "idle timeout: no frames from \"" + name + "\" for " +
                                std::to_string(options_.idle_timeout) + "+ input lines";
    mux_.close(slot);
    telemetry_.idle_timeouts.inc();
    telemetry_.errors.inc();
    ++telemetry_.tenant_row(slot, name).errors;
    telemetry_.tenants_closed.inc();
    telemetry_.tenants_open.add(-1);
    telemetry_.journal().record(obs::EventType::kTimeout, name, message);
    out << error_frame(lines_, message, name, true) << '\n';
    out << closed_frame(mux_.stats(slot)) << '\n';
    table_.erase(name);
  }
}

void Service::maybe_snapshot(std::ostream& out, bool force) {
  if (options_.snapshot_path.empty()) return;
  if (!force &&
      (options_.checkpoint_every == 0 || steps_since_snapshot_ < options_.checkpoint_every))
    return;
  SnapshotWriteOptions write_options;
  write_options.durable = options_.durable;
  write_options.faults = options_.faults;
  std::string last_error;
  for (std::size_t attempt = 0; attempt <= options_.retry_limit; ++attempt) {
    if (attempt != 0) retry_backoff("snapshot save", attempt, last_error);
    try {
      // A fresh base when this process has not written one yet (slot ids
      // are process-local, so appending to a previous process's chain would
      // lie) or when the delta chain has outgrown the compaction threshold.
      // Recomputed per attempt: a failed try clears have_base_ below, so
      // retries always rewrite a fresh base atomically.
      const bool compacting =
          have_base_ && delta_bytes_ >= options_.compact_ratio * static_cast<double>(base_bytes_);
      const bool base = !have_base_ || compacting;
      std::uint64_t bytes = 0;
      if (base) {
        if (compacting)
          telemetry_.journal().record(
              obs::EventType::kCompact, {},
              std::to_string(segments_) + " segments, " + std::to_string(delta_bytes_) +
                  " delta bytes >= " + std::to_string(options_.compact_ratio) + "x base " +
                  std::to_string(base_bytes_));
        bytes = write_snapshot_base(options_.snapshot_path, collect_base_segment(),
                                    write_options);
        base_bytes_ = bytes;
        delta_bytes_ = 0;
        segments_ = 1;
        have_base_ = true;
      } else {
        bytes = append_snapshot_delta(options_.snapshot_path, collect_delta_segment(),
                                      write_options);
        delta_bytes_ += bytes;
        ++segments_;
      }
      mux_.mark_saved();
      saved_slots_.clear();
      for (const auto& tenant : table_.entries()) saved_slots_.insert(tenant->slot);
      steps_since_snapshot_ = 0;
      telemetry_.snapshots.inc();
      telemetry_.checkpoint_bytes.inc(bytes);
      telemetry_.journal().record(obs::EventType::kCheckpoint, {},
                                  options_.snapshot_path.string());
      clear_degraded();
      out << checkpointed_frame(options_.snapshot_path.string(), table_.size(),
                                mux_.totals().steps, base ? "base" : "delta", bytes, segments_)
          << '\n';
      return;
    } catch (const std::exception& error) {
      // A failed save is loud but not fatal: the service keeps running on
      // the previous good snapshot. A failed APPEND may have left a torn
      // tail (the reader drops it), but appending after one would corrupt
      // the chain — every retry rewrites a fresh base atomically.
      have_base_ = false;
      last_error = error.what();
    }
  }
  enter_degraded("snapshot save", last_error, out);
}

SnapshotSegment Service::collect_base_segment() const {
  SnapshotSegment segment;
  segment.opened.reserve(table_.size());
  for (const auto& tenant : table_.entries()) {
    segment.opened.push_back(tenant->spec);
    segment.opened_slots.push_back(tenant->slot);
    segment.record_slots.push_back(tenant->slot);
    segment.records.push_back(mux_.checkpoint_slot(tenant->slot));
  }
  return segment;
}

SnapshotSegment Service::collect_delta_segment() const {
  SnapshotSegment segment;
  for (const auto& tenant : table_.entries()) {
    if (saved_slots_.count(tenant->slot) != 0) continue;
    segment.opened.push_back(tenant->spec);
    segment.opened_slots.push_back(tenant->slot);
  }
  std::unordered_set<std::size_t> current;
  current.reserve(table_.size());
  for (const auto& tenant : table_.entries()) current.insert(tenant->slot);
  for (const std::size_t slot : saved_slots_)
    if (current.count(slot) == 0) segment.closed_slots.push_back(slot);
  std::sort(segment.closed_slots.begin(), segment.closed_slots.end());
  // Only the slots that stepped (or arrived) since mark_saved() are
  // re-serialised — the O(progress) heart of the incremental save.
  for (const std::size_t slot : mux_.dirty_slots()) {
    segment.record_slots.push_back(slot);
    segment.records.push_back(mux_.checkpoint_slot(slot));
  }
  return segment;
}

ExitReason Service::finish(ExitReason reason, std::ostream& out) {
  pump(out);
  maybe_snapshot(out, /*force=*/true);
  const char* why = reason == ExitReason::kEof        ? "eof"
                    : reason == ExitReason::kShutdown ? "shutdown"
                    : reason == ExitReason::kHangup   ? "hangup"
                                                      : "signal";
  telemetry_.journal().record(obs::EventType::kDrain, {}, why);
  write_metrics(out, /*force=*/true);
  out << bye_frame(why, mux_.totals()) << '\n';
  flush(out);
  return reason;
}

void Service::flush(std::ostream& out) {
  telemetry_.flushes.inc();
  out.flush();
}

void Service::write_metrics(std::ostream& out, bool force) {
  if (options_.metrics_path.empty()) return;
  if (!force &&
      (options_.metrics_every == 0 || steps_since_metrics_ < options_.metrics_every))
    return;
  trace::AtomicWriteOptions write_options;
  write_options.durable = options_.durable;
  write_options.faults = options_.faults;
  write_options.write_site = fault::kSiteMetricsWrite;
  std::string last_error;
  for (std::size_t attempt = 0; attempt <= options_.retry_limit; ++attempt) {
    if (attempt != 0) retry_backoff("metrics snapshot", attempt, last_error);
    try {
      trace::write_bytes_atomic(options_.metrics_path,
                                telemetry_.snapshot_ndjson(mux_, mux_.snapshot()), write_options);
      steps_since_metrics_ = 0;
      clear_degraded();
      return;
    } catch (const std::exception& error) {
      // Same discipline as snapshot saves: loud but never fatal, and the
      // previous good file survives (write_bytes_atomic never clobbers it).
      last_error = error.what();
    }
  }
  telemetry_.journal().record(obs::EventType::kError, {},
                              "metrics snapshot failed: " + last_error);
  enter_degraded("metrics snapshot", last_error, out);
}

void Service::retry_backoff(const char* what, std::size_t attempt, const std::string& error) {
  telemetry_.retries.inc();
  telemetry_.journal().record(obs::EventType::kRetry, {},
                              std::string(what) + " retry " + std::to_string(attempt) + "/" +
                                  std::to_string(options_.retry_limit) + ": " + error);
  // Exponential backoff with seeded jitter: base << (attempt-1), scaled by
  // [0.5, 1.5) so a fleet of services never retries in lockstep.
  const double jitter = 0.5 + retry_rng_.uniform();
  const double ms =
      static_cast<double>(options_.retry_base_ms << (attempt - 1)) * jitter;
  if (ms > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

void Service::enter_degraded(const char* what, const std::string& error, std::ostream& out) {
  out << error_frame(0, std::string(what) + " failed: " + error, "", false) << '\n';
  if (degraded_) return;  // one episode, not one per failed save
  degraded_ = true;
  telemetry_.degraded.set(1);
  telemetry_.degraded_total.inc();
  telemetry_.journal().record(obs::EventType::kDegraded, {},
                              std::string("enter: ") + what + " failed: " + error);
}

void Service::clear_degraded() {
  if (!degraded_) return;
  degraded_ = false;
  telemetry_.degraded.set(0);
  telemetry_.journal().record(obs::EventType::kDegraded, {}, "recovered");
}

}  // namespace mobsrv::serve
