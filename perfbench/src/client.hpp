/// \file client.hpp
/// The load generator: drives one real mobsrv_serve process over one
/// connection (stdin/stdout pipes or a Unix socket) from one thread.
///
/// A run has these phases against the same server, then a recovery drill:
///   setup   start the server setup_reps times, spread over a few seconds,
///           and open every tenant; the last start is kept (setup_s is the
///           median start-to-last-opened);
///   closed  every hot tenant keeps `window` req frames outstanding until
///           it has sent its fixed share of closed_rate * seconds / 2 reqs,
///           with periodic checkpoint frames and cold-tenant churn if
///           configured; window rates over the fixed work give steps_per_s;
///   open    req frames on a fixed schedule (open_rate) for seconds / 2,
///           timed from their scheduled send time, whatever the server's
///           pace; the closed and the open loop run in kRounds alternating
///           parts, so that both sample the host over the whole run;
///   quiet   kQuietCheckpoints times: one req per hot tenant, drained, then
///           a checkpoint frame timed on the quiet server (checkpoint_p50_ms);
///   tail    kTailSteps more reqs per tenant after the last checkpoint;
///   resume  `kill`, then resume_reps restarts with --resume, spread over a
///           few seconds, that re-send the post-checkpoint reqs and must
///           reproduce their outcomes.
/// The client and the server run on CPUs of their own, each server thread
/// on its own CPU, and the server without address-space randomisation;
/// idle spinners keep those CPUs from halting while the run measures.
/// Every outcome is kept (per tenant, per step) for the reference check.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// What the server returned for one hot tenant.
struct TenantLedger {
  std::size_t tenant = 0;
  /// Generator step indices the server accepted, in acceptance order: the
  /// batches the reference replay must push.
  std::vector<std::uint32_t> accepted;
  std::uint32_t next_index = 0;
  /// Per-step `move`/`service` as received (index = the outcome's `t`).
  std::vector<double> move;
  std::vector<double> service;
  /// Running totals of the last outcome received.
  double move_total = 0.0;
  double service_total = 0.0;
  double total = 0.0;
  /// Outstanding reqs: (step index, scheduled send ns; 0 = closed loop).
  std::deque<std::pair<std::uint32_t, std::int64_t>> outstanding;
};

struct E2EResult {
  std::vector<std::string> problems;  ///< empty = every check passed
  std::uint64_t attempted = 0;        ///< req frames sent in the closed and open phases
  std::uint64_t failed = 0;           ///< busy + error + missing among them
  std::vector<std::pair<std::string, double>> metrics;  ///< name -> value
  std::vector<TenantLedger> ledgers;  ///< one per hot tenant
  double ns_per_step = 0.0;           ///< closed-loop wall ns per outcome
};

[[nodiscard]] E2EResult run_e2e(const Workload& w, const std::string& serve_bin,
                                const std::string& rundir, double seconds);

[[nodiscard]] std::int64_t now_ns();
/// The q-quantile (nearest rank) of \p values; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// Bit-for-bit equality: the server's doubles must round-trip exactly.
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench
