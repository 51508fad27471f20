/// \file batch_runner.hpp
/// The corpus cell runner (run_cells, shared by batch replay and the
/// scenario tournament) and sharded replay of a trace corpus on it.
///
/// Given a directory (or explicit list) of trace files, run_batch decodes
/// whole files across the pool, runs every requested algorithm on each
/// workload, verifies any recorded runs bit-identically, and aggregates
/// per-algorithm cost/ratio summaries. Results are deterministic and
/// independent of thread count: every entry is computed into its own slot
/// and aggregation happens after the join.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/session_multiplexer.hpp"
#include "io/json.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/summary.hpp"
#include "trace/codec.hpp"
#include "trace/replay.hpp"

namespace mobsrv::trace {

struct BatchOptions {
  /// Algorithms to run on every workload; empty → all registered names.
  std::vector<std::string> algorithms;
  double speed_factor = 1.5;  ///< (1+δ) granted to each online algorithm
  std::uint64_t algo_seed = 0;
  /// Also re-run the traces' recorded runs and verify them bit-identically.
  bool verify_recorded = true;
};

/// One (file, algorithm) measurement.
struct BatchEntry {
  std::string file;       ///< file name (no directory)
  std::string scenario;   ///< meta.name
  std::string algorithm;
  double cost = 0.0;
  /// cost / min-cost-across-algorithms on this file (>= 1, best = 1).
  /// 0 when unavailable: the best cost on the file is 0, so a nonzero cost
  /// has no finite ratio (0-cost algorithms still report 1).
  double ratio_vs_best = 0.0;
  /// cost / adversary cost when the trace carries one, else 0.
  double ratio_vs_adversary = 0.0;
};

/// Per-algorithm aggregate over all files.
struct BatchAlgoSummary {
  std::string algorithm;
  stats::Summary cost;
  stats::Summary ratio_vs_best;
  stats::Summary ratio_vs_adversary;  ///< only files with an adversary solution
  int wins = 0;  ///< files where this algorithm was strictly cheapest
};

struct BatchResult {
  std::vector<BatchEntry> entries;          ///< file-major, algorithm-minor order
  std::vector<BatchAlgoSummary> summaries;  ///< one per algorithm, input order
  std::size_t files = 0;
  std::size_t replay_checks = 0;      ///< recorded runs re-verified
  std::size_t replay_mismatches = 0;  ///< recorded runs that failed bit-identity
  double wall_seconds = 0.0;
};

/// cost / best, the ratio convention of every corpus runner: the best run
/// reports exactly 1. A free best run admits no finite ratio for a costly
/// run, which reports 0 ("unavailable") rather than being silently called
/// tied-for-best; every other free run reports 1.
[[nodiscard]] double ratio_vs_best(double cost, double best);

/// One workload of a corpus run and the cells that play it.
struct CellGroup {
  std::shared_ptr<const sim::Instance> workload;
  double adversary_cost = 0.0;  ///< 0 when the workload carries no adversary solution
  /// One session per cell; run_cells gives each the group's workload.
  std::vector<core::SessionSpec> cells;
};

/// One cell's outcome.
struct CellResult {
  double total_cost = 0.0;
  double move_cost = 0.0;
  double service_cost = 0.0;
  double ratio_vs_best = 0.0;       ///< ratio_vs_best against the group's cheapest cell
  double ratio_vs_adversary = 0.0;  ///< cost / adversary cost, else 0
};

/// Runs every cell of every group to completion through one session
/// multiplexer on \p pool. Returns one result per cell in submission order
/// (group-major), identical at any thread count.
[[nodiscard]] std::vector<CellResult> run_cells(par::ThreadPool& pool,
                                                const std::vector<CellGroup>& groups);

/// All trace files (*.jsonl, *.mtb) directly inside \p dir, sorted by name.
/// Throws TraceError when the directory is missing or holds no traces.
[[nodiscard]] std::vector<std::filesystem::path> list_trace_files(
    const std::filesystem::path& dir);

/// Replays \p files on \p pool. File-level errors (corrupt trace, unknown
/// algorithm) propagate as exceptions — a batch is an all-or-nothing
/// verification artifact.
[[nodiscard]] BatchResult run_batch(par::ThreadPool& pool,
                                    const std::vector<std::filesystem::path>& files,
                                    const BatchOptions& options);

/// Machine-readable form of a batch result (for --json surfaces).
[[nodiscard]] io::Json batch_to_json(const BatchResult& result);

/// Human-readable summary table + footer shared by `mobsrv_trace batch`
/// and `mobsrv_bench --replay`. \p source names the replayed input (a
/// directory); \p threads is the pool size used.
void print_batch_summary(std::ostream& os, const std::string& source, const BatchResult& result,
                         const BatchOptions& options, unsigned threads);

}  // namespace mobsrv::trace
