/// \file replay.hpp
/// In-process replays of a workload through the library's public layers.
///
///   check_reference  pushes every batch the server accepted through a
///                    fresh sim::Session per tenant and compares each
///                    step's move/service and the final totals, bit for
///                    bit, with the outcome frames the server sent.
///   traced_replay    re-runs the workload's traffic through the same
///                    calls Service makes (parse_client_frame,
///                    TenantTable, SessionMultiplexer, outcome_frame,
///                    the snapshot writers) and times every call, which
///                    yields the per-layer metrics without touching src/.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "client.hpp"
#include "workload.hpp"

namespace perfbench {

/// Returns the mismatches found (empty = the server's outcomes are exact).
[[nodiscard]] std::vector<std::string> check_reference(const Workload& w,
                                                       const std::vector<TenantLedger>& ledgers,
                                                       unsigned threads);

/// Per-layer metrics of one traced replay lasting about \p budget_s.
/// \p e2e gives the untraced run's numbers the attribution is made against
/// (ns per step at saturation, setup_s).
[[nodiscard]] std::vector<std::pair<std::string, double>> traced_replay(
    const Workload& w, const std::string& rundir, double budget_s, const E2EResult& e2e);

}  // namespace perfbench
