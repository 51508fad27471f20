/// \file service.hpp
/// The mobsrv_serve frame loop: live NDJSON ingestion over the multiplexer.
///
/// This is the unglamorous server half the ROADMAP asks for — the layer
/// that turns the streaming engine into traffic-facing infrastructure:
///
///   * admission — every tenant declares fleet size, dimension, speed
///     limit and strategy in its `open` frame; admission failures reject
///     the tenant, never the process;
///   * bounded in-flight queues — each tenant may have at most
///     max_inflight unconsumed steps queued; a `req` beyond that is
///     answered with an explicit `busy` frame (never silently dropped);
///   * batched consumption — frames are read greedily while input is
///     already buffered, then the multiplexer advances every tenant in
///     parallel and per-step `outcome` frames stream back;
///   * loud errors — a malformed frame or a throwing session closes only
///     the offending tenant (`error` frame with the input line number);
///   * graceful drain — EOF, a `shutdown` frame, or SIGTERM (via the stop
///     flag) consumes every queued step, saves a final snapshot and says
///     `bye`;
///   * periodic checkpointing — every checkpoint_every consumed steps the
///     service saves a snapshot (tenant table + engine checkpoint) as an
///     MSRVSS2 segment chain: a fresh base first, then incremental deltas
///     covering only the progress since the previous save, compacted when
///     the chain outgrows compact_ratio; a killed service restores from it
///     and continues bit-identically, proven by the kill/restore tests.
///
/// The loop is transport-agnostic: it speaks std::istream/std::ostream.
/// stdin/stdout, a TCP connection and a Unix socket all reach it through
/// the one fd transport in serve/transport.hpp, and tests drive it
/// in-process over string streams too.
#pragma once

#include <atomic>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/session_multiplexer.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/snapshot.hpp"
#include "serve/telemetry.hpp"
#include "serve/tenant_table.hpp"
#include "stats/rng.hpp"

namespace mobsrv::serve {

/// Service configuration (the mobsrv_serve flags, see docs/CLI.md).
struct ServiceOptions {
  /// Max unconsumed steps a tenant may queue before `req` frames bounce
  /// with `busy`.
  std::size_t max_inflight = 64;
  /// Snapshot every N consumed steps (0 = only on `checkpoint` frames and
  /// graceful exit). Requires snapshot_path.
  std::size_t checkpoint_every = 0;
  /// Snapshot file; empty disables checkpointing entirely.
  std::filesystem::path snapshot_path;
  /// Worker threads for the multiplexer (0 = hardware concurrency).
  unsigned threads = 0;
  /// Omit fleet positions from `outcome` frames (smaller frames), and run
  /// the telemetry layer clock-free: no round timing, no ingest-latency
  /// stamps. Counters stay live either way.
  bool lean = false;
  /// Metrics NDJSON snapshot file (--metrics-out); empty disables the
  /// periodic dump. Written atomically on graceful exit, on every
  /// `metrics` frame, and every metrics_every consumed steps.
  std::filesystem::path metrics_path;
  /// Snapshot the metrics file every N consumed steps (0 = only on exit
  /// and `metrics` frames). Requires metrics_path.
  std::size_t metrics_every = 0;
  /// Rate limit applied at admission when an `open` frame names none:
  /// steps per mux round (fractions allowed; 0 = unlimited).
  double default_rate = 0.0;
  /// Compact the MSRVSS2 segment chain (rewrite a fresh base) once the
  /// summed delta bytes exceed this multiple of the base segment's size.
  double compact_ratio = 4.0;
  /// Close a tenant after this many input lines with no sign of life from
  /// it (no req/stats frame, no outcome emitted) — attributed `timeout`
  /// error frame + closed frame. Tenants with queued or throttled work are
  /// exempt (they are waiting on the service, not idle). 0 disables.
  std::size_t idle_timeout = 0;
  /// fsync persistence writes (snapshot base/delta, metrics file) so saves
  /// survive power loss, not just process crashes. --no-durable opts out.
  bool durable = true;
  /// Fault-injection hook (--fault-plan); null = disabled, zero cost.
  fault::Injector* faults = nullptr;
  /// Extra attempts after a failed persistence write before the service
  /// gives up and enters degraded mode.
  std::size_t retry_limit = 3;
  /// Backoff before retry N is retry_base_ms << (N-1) milliseconds, scaled
  /// by a seeded jitter in [0.5, 1.5).
  std::uint64_t retry_base_ms = 1;
  /// External stop flag (the SIGTERM handler sets it); checked between
  /// frames. May be null.
  const std::atomic<bool>* stop = nullptr;
};

/// Why Service::run returned.
enum class ExitReason {
  kEof,       ///< input ended; queues drained, snapshot saved, bye sent
  kShutdown,  ///< `shutdown` frame; same graceful path
  kKill,      ///< `kill` frame: exited immediately, no drain or snapshot
  kSignal,    ///< stop flag set (SIGTERM/SIGINT); graceful path
  kHangup,    ///< output went bad (the client hung up); graceful path
};

/// One long-running ingestion service over a private multiplexer.
class Service {
 public:
  explicit Service(ServiceOptions options);

  /// Restores the tenant table and every session from a snapshot file, so
  /// the next run() continues bit-identically to the saved service. Must
  /// be called before any frames are processed. Throws trace::TraceError /
  /// ContractViolation on corrupt or mismatched snapshots.
  void restore(const std::filesystem::path& path);

  /// Processes frames from \p in, writing response frames to \p out, until
  /// EOF, a shutdown/kill frame, the stop flag, or \p out going bad. Runs
  /// the graceful-drain path (consume queues, snapshot, bye) for every
  /// reason except kKill.
  ExitReason run(std::istream& in, std::ostream& out);

  /// Accounting access for tests and the soak bench.
  [[nodiscard]] const core::SessionMultiplexer& mux() const noexcept { return mux_; }
  [[nodiscard]] std::uint64_t lines_seen() const noexcept { return lines_; }
  /// The telemetry surface (metrics registry, journal, per-tenant rows)
  /// for tests and the serve/ingest_p99 perf row.
  [[nodiscard]] const ServeTelemetry& telemetry() const noexcept { return telemetry_; }

 private:
  void handle_line(const std::string& line, std::ostream& out);
  void handle_open(TenantSpec spec, std::ostream& out);
  void handle_req(const ClientFrame& frame, std::ostream& out);
  void handle_close(const std::string& name, std::ostream& out);
  void handle_stats(const std::string& name, std::ostream& out);
  void handle_metrics(std::ostream& out);
  void handle_checkpoint(std::ostream& out);

  /// Fails the named tenant: consumes its accepted queue (outcomes still
  /// stream), closes it, emits error + closed frames. The malformed-frame
  /// discipline: one bad tenant, never the process.
  void fail_tenant(const std::string& name, const std::string& message, std::ostream& out);

  /// Consumes every queued step (one parallel round per step) and emits
  /// per-step outcome frames; sessions that throw are closed and reported.
  /// O(pending tenants) per round — it walks the pending list (fed by
  /// handle_req), never the whole table.
  void pump(std::ostream& out);

  /// Saves a snapshot if due (cadence) or \p force. The first save of a
  /// process writes a fresh MSRVSS2 base; later saves append a delta
  /// carrying only the tenants opened/closed and the slots stepped since
  /// the previous save (O(progress)), compacting back into a base when
  /// the chain outgrows compact_ratio. Reports save failures as error
  /// frames without killing the service.
  void maybe_snapshot(std::ostream& out, bool force);
  [[nodiscard]] SnapshotSegment collect_base_segment() const;
  [[nodiscard]] SnapshotSegment collect_delta_segment() const;

  /// Writes the --metrics-out NDJSON snapshot if due (cadence) or \p
  /// force. Atomic (tmp + rename); failures retry with backoff, then go
  /// degraded — loud error frames + journal, never fatal.
  void write_metrics(std::ostream& out, bool force);

  /// Closes tenants past the --idle-timeout deadline (see
  /// ServiceOptions::idle_timeout). Runs at the pump's quiescent point.
  void reap_idle(std::ostream& out);

  /// Books retry \p attempt of \p what: retries counter, kRetry journal
  /// event, then sleeps retry_base_ms << (attempt-1) ms x jitter.
  void retry_backoff(const char* what, std::size_t attempt, const std::string& error);

  /// Emits the failure's error frame and (first failure only) flips the
  /// service into degraded mode: serve.degraded gauge 1, degraded_total
  /// counter, kDegraded journal entry. Stepping continues throughout.
  void enter_degraded(const char* what, const std::string& error, std::ostream& out);
  /// Re-arms after a successful persistence write: gauge back to 0 plus a
  /// kDegraded "recovered" journal entry.
  void clear_degraded();

  /// Books a tenant's error-close in the telemetry (error counters,
  /// journal, open-tenant gauge).
  void note_tenant_error(std::size_t slot, const std::string& name, const std::string& message);

  ExitReason finish(ExitReason reason, std::ostream& out);
  /// Flushes \p out and counts it (serve.flushes_total).
  void flush(std::ostream& out);

  ServiceOptions options_;
  par::ThreadPool pool_;
  core::SessionMultiplexer mux_;
  TenantTable table_;
  ServeTelemetry telemetry_;
  std::uint64_t lines_ = 0;             ///< input lines seen (error attribution)
  std::size_t steps_since_snapshot_ = 0;
  std::size_t steps_since_metrics_ = 0;
  bool shutdown_ = false;
  bool killed_ = false;
  /// True while persistence is failing (exhausted retries); cleared by the
  /// next successful write. The service keeps stepping either way.
  bool degraded_ = false;
  /// Seeded jitter for the retry backoff (observational only: it shapes
  /// sleep times, never results).
  stats::Rng retry_rng_{0x6d6f62737276'10ULL};
  /// Mux slots with consumed-but-unemitted or queued steps — the pump's
  /// work list (deduped by Tenant::pending). Slot ids are never reused, so
  /// a stale entry for an error-closed tenant is simply skipped.
  std::vector<std::size_t> pending_slots_;
  /// MSRVSS2 chain state. have_base_ is false until this process writes
  /// its base (slot ids are process-local, so a restored service must not
  /// append to the previous process's chain).
  bool have_base_ = false;
  std::uint64_t base_bytes_ = 0;   ///< encoded size of the current base segment
  std::uint64_t delta_bytes_ = 0;  ///< summed encoded size of appended deltas
  std::size_t segments_ = 0;       ///< chain length (base + deltas)
  /// Slots open as of the last successful save (the delta's open/close
  /// diff base).
  std::unordered_set<std::size_t> saved_slots_;
};

}  // namespace mobsrv::serve
