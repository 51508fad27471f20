#include "trace/batch_runner.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <ostream>

#include "algorithms/registry.hpp"
#include "io/table.hpp"
#include "parallel/parallel_for.hpp"

namespace mobsrv::trace {

double ratio_vs_best(double cost, double best) {
  if (best > 0.0) return cost / best;
  return cost == 0.0 ? 1.0 : 0.0;
}

std::vector<std::filesystem::path> list_trace_files(const std::filesystem::path& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    throw TraceError(dir.string() + ": not a directory");
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".jsonl" || ext == ".mtb") files.push_back(entry.path());
  }
  if (files.empty())
    throw TraceError(dir.string() + ": no trace files (*.jsonl, *.mtb) found");
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<CellResult> run_cells(par::ThreadPool& pool, const std::vector<CellGroup>& groups) {
  // Grain 1: each cell drains a whole workload in one task, and small
  // corpora must still spread across the pool.
  core::SessionMultiplexer mux(pool, /*grain=*/1);
  for (const CellGroup& group : groups)
    for (core::SessionSpec spec : group.cells) {
      spec.workload = group.workload;
      mux.add(std::move(spec));
    }
  mux.drain();

  std::vector<CellResult> results;
  for (const CellGroup& group : groups) {
    const std::size_t first = results.size();
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < group.cells.size(); ++c) {
      const core::SessionStats s = mux.stats(results.size());
      results.push_back({s.total_cost, s.move_cost, s.service_cost, 0.0,
                         group.adversary_cost > 0.0 ? s.total_cost / group.adversary_cost : 0.0});
      best = std::min(best, s.total_cost);
    }
    for (std::size_t i = first; i < results.size(); ++i)
      results[i].ratio_vs_best = ratio_vs_best(results[i].total_cost, best);
  }
  return results;
}

BatchResult run_batch(par::ThreadPool& pool, const std::vector<std::filesystem::path>& files,
                      const BatchOptions& options) {
  MOBSRV_CHECK_MSG(!files.empty(), "batch replay needs at least one trace file");
  const std::vector<std::string> algorithms =
      options.algorithms.empty() ? alg::algorithm_names() : options.algorithms;

  const auto wall_start = std::chrono::steady_clock::now();

  // Phase 1 — load: decode whole files across the pool (one slot per file;
  // decoding dominates I/O).
  std::vector<std::optional<TraceFile>> traces(files.size());
  par::parallel_for(pool, 0, files.size(), 1,
                    [&](std::size_t i) { traces[i].emplace(read_trace(files[i])); });

  // Phase 2 — run: one cell per (file, algorithm). Each file's workload is
  // shared read-only across its algorithm sessions, and sharding happens at
  // session granularity, so one huge trace does not serialise a worker.
  std::vector<CellGroup> groups(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    // Non-owning share: `traces` outlives run_cells, so no instance copy.
    groups[i].workload =
        std::shared_ptr<const sim::Instance>(std::shared_ptr<void>(), &traces[i]->instance);
    groups[i].adversary_cost = traces[i]->adversary ? traces[i]->adversary->cost : 0.0;
    for (const std::string& name : algorithms) {
      core::SessionSpec spec;
      spec.algorithm = name;
      spec.algo_seed = options.algo_seed;
      spec.speed_factor = options.speed_factor;
      spec.tenant = files[i].filename().string();
      groups[i].cells.push_back(std::move(spec));
    }
  }
  const std::vector<CellResult> cells = run_cells(pool, groups);

  // Phase 3 — verify recorded runs bit-identically (per file, in parallel).
  std::vector<std::pair<std::size_t, std::size_t>> checks(files.size(), {0, 0});
  if (options.verify_recorded) {
    par::parallel_for(pool, 0, files.size(), 1, [&](std::size_t i) {
      const ReplayReport report = replay(*traces[i]);
      checks[i].first = report.outcomes.size();
      for (const ReplayOutcome& o : report.outcomes)
        if (!o.match) ++checks[i].second;
    });
  }

  BatchResult result;
  result.files = files.size();
  result.summaries.resize(algorithms.size());
  for (std::size_t a = 0; a < algorithms.size(); ++a)
    result.summaries[a].algorithm = algorithms[a];

  for (std::size_t i = 0; i < files.size(); ++i) {
    const CellResult* row = &cells[i * algorithms.size()];
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      BatchEntry entry;
      entry.file = files[i].filename().string();
      entry.scenario = traces[i]->meta.name;
      entry.algorithm = algorithms[a];
      entry.cost = row[a].total_cost;
      entry.ratio_vs_best = row[a].ratio_vs_best;
      entry.ratio_vs_adversary = row[a].ratio_vs_adversary;

      BatchAlgoSummary& summary = result.summaries[a];
      summary.cost.add(entry.cost);
      if (entry.ratio_vs_best > 0.0) summary.ratio_vs_best.add(entry.ratio_vs_best);
      if (entry.ratio_vs_adversary > 0.0)
        summary.ratio_vs_adversary.add(entry.ratio_vs_adversary);
      bool strictly_best = true;
      for (std::size_t b = 0; b < algorithms.size(); ++b)
        if (b != a && row[b].total_cost <= row[a].total_cost) strictly_best = false;
      if (strictly_best) ++summary.wins;

      result.entries.push_back(std::move(entry));
    }
    result.replay_checks += checks[i].first;
    result.replay_mismatches += checks[i].second;
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

io::Json batch_to_json(const BatchResult& result) {
  io::Json root = io::Json::object();
  root.set("files", result.files);
  root.set("replay_checks", result.replay_checks);
  root.set("replay_mismatches", result.replay_mismatches);
  root.set("wall_seconds", result.wall_seconds);

  io::Json summaries = io::Json::array();
  for (const BatchAlgoSummary& s : result.summaries) {
    io::Json row = io::Json::object();
    row.set("algorithm", s.algorithm);
    row.set("mean_cost", s.cost.mean());
    row.set("mean_ratio_vs_best", s.ratio_vs_best.mean());
    if (s.ratio_vs_adversary.count() > 0)
      row.set("mean_ratio_vs_adversary", s.ratio_vs_adversary.mean());
    row.set("wins", s.wins);
    summaries.push_back(std::move(row));
  }
  root.set("algorithms", std::move(summaries));

  io::Json entries = io::Json::array();
  for (const BatchEntry& e : result.entries) {
    io::Json row = io::Json::object();
    row.set("file", e.file);
    row.set("scenario", e.scenario);
    row.set("algorithm", e.algorithm);
    row.set("cost", e.cost);
    row.set("ratio_vs_best", e.ratio_vs_best);
    if (e.ratio_vs_adversary > 0.0) row.set("ratio_vs_adversary", e.ratio_vs_adversary);
    entries.push_back(std::move(row));
  }
  root.set("entries", std::move(entries));
  return root;
}

void print_batch_summary(std::ostream& os, const std::string& source, const BatchResult& result,
                         const BatchOptions& options, unsigned threads) {
  io::Table table("Batch replay of " + source + " (" + std::to_string(result.files) +
                      " traces, speed factor " + io::format_double(options.speed_factor) + ")",
                  {"algorithm", "mean cost", "mean ratio vs best", "wins"});
  for (const BatchAlgoSummary& s : result.summaries)
    table.row()
        .cell(s.algorithm)
        .cell(s.cost.mean(), 5)
        .cell(s.ratio_vs_best.mean(), 4)
        .cell(s.wins)
        .done();
  table.print(os);
  os << "  replayed " << result.files << " trace(s) in "
     << io::format_double(result.wall_seconds, 3) << " s on " << threads
     << " thread(s); recorded-run checks: " << result.replay_checks << " ("
     << result.replay_mismatches << " mismatches)\n";
}

}  // namespace mobsrv::trace
