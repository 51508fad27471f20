#include "scenario/tournament.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "algorithms/registry.hpp"
#include "common/contracts.hpp"
#include "core/session_multiplexer.hpp"
#include "ext/multi_server.hpp"
#include "stats/rng.hpp"
#include "trace/batch_runner.hpp"

namespace mobsrv::scenario {

namespace {

/// Classic Elo update constants: everyone starts at 1000, K = 32.
constexpr double kInitialElo = 1000.0;
constexpr double kEloK = 32.0;

struct LoadedScenario {
  Scenario scenario;
  std::filesystem::path base_dir;
};

/// The roster slice allowed to play \p sc: fleet scenarios (size > 1) are
/// driven only by fleet-native strategies — the single-server adapters are
/// k = 1 by construction.
std::vector<std::string> roster_for(const Scenario& sc, const std::vector<std::string>& roster,
                                    const std::vector<std::string>& fleet_native) {
  if (!sc.fleet || sc.fleet->size <= 1) return roster;
  std::vector<std::string> allowed;
  for (const std::string& algorithm : roster)
    if (std::find(fleet_native.begin(), fleet_native.end(), algorithm) != fleet_native.end())
      allowed.push_back(algorithm);
  return allowed;
}

}  // namespace

TournamentResult run_tournament(const std::vector<std::filesystem::path>& files,
                                par::ThreadPool& pool, const TournamentOptions& options) {
  const std::vector<std::string> known = alg::fleet_algorithm_names();
  std::vector<std::string> roster;
  for (const std::string& algorithm :
       options.algorithms.empty() ? known : options.algorithms) {
    if (std::find(known.begin(), known.end(), algorithm) == known.end())
      throw ContractViolation("unknown algorithm '" + algorithm + "' (see --algorithms)");
    if (std::find(roster.begin(), roster.end(), algorithm) == roster.end())
      roster.push_back(algorithm);
  }
  const std::vector<std::string> fleet_native = alg::fleet_native_names();

  std::vector<LoadedScenario> loaded;
  loaded.reserve(files.size());
  for (const std::filesystem::path& path : files)
    loaded.push_back({load(path), path.parent_path()});

  if (!options.only.empty()) {
    for (const std::string& name : options.only) {
      const bool found = std::any_of(loaded.begin(), loaded.end(), [&name](const LoadedScenario& l) {
        return l.scenario.name == name;
      });
      if (!found) throw ContractViolation("--only: no scenario named '" + name + "' in the corpus");
    }
    std::vector<LoadedScenario> filtered;
    for (LoadedScenario& l : loaded)
      if (std::find(options.only.begin(), options.only.end(), l.scenario.name) !=
          options.only.end())
        filtered.push_back(std::move(l));
    loaded = std::move(filtered);
  }

  TournamentResult result;
  result.seed = options.seed;
  result.algorithms = roster;

  // Ratings and per-algorithm accumulators, indexed by roster position.
  std::vector<double> elo(roster.size(), kInitialElo);
  std::vector<LeaderboardRow> rows(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) rows[i].algorithm = roster[i];
  const auto roster_index = [&roster](const std::string& algorithm) {
    return static_cast<std::size_t>(
        std::find(roster.begin(), roster.end(), algorithm) - roster.begin());
  };

  const std::size_t chunk = options.chunk == 0 ? 1 : options.chunk;
  for (std::size_t begin = 0; begin < loaded.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, loaded.size());

    struct PendingCell {
      std::size_t session = 0;
      std::string scenario;
      std::string algorithm;
      std::size_t fleet_size = 1;
      double adversary_cost = 0.0;
      bool last_of_scenario = false;
    };
    std::vector<PendingCell> pending;
    core::SessionMultiplexer mux(pool);

    for (std::size_t s = begin; s < end; ++s) {
      const Scenario& sc = loaded[s].scenario;
      const std::vector<std::string> players = roster_for(sc, roster, fleet_native);
      if (players.empty()) {
        result.skipped.push_back(sc.name);
        continue;
      }
      result.scenarios.push_back(sc.name);

      trace::TraceFile file = materialize(sc, loaded[s].base_dir);
      const double adversary_cost = file.adversary ? file.adversary->cost : 0.0;
      const auto workload = std::make_shared<const sim::Instance>(std::move(file.instance));
      const std::size_t fleet_size = sc.fleet ? sc.fleet->size : 1;
      std::vector<sim::Point> starts;
      if (fleet_size > 1)
        starts = ext::spread_starts(*workload, static_cast<int>(fleet_size), sc.fleet->spread);

      for (const std::string& algorithm : players) {
        core::SessionSpec spec;
        spec.workload = workload;
        spec.algorithm = algorithm;
        // --seed steers every algorithm's coin flips without touching the
        // workloads (those are pinned by each file's own "seed" member).
        spec.algo_seed = stats::mix_keys({stats::hash_name("tournament"),
                                          stats::hash_name(sc.name), stats::hash_name(algorithm),
                                          options.seed});
        spec.speed_factor = sc.speed_factor;
        spec.tenant = sc.name;
        spec.fleet_size = fleet_size;
        spec.starts = starts;
        PendingCell cell;
        cell.session = mux.add(std::move(spec));
        cell.scenario = sc.name;
        cell.algorithm = algorithm;
        cell.fleet_size = fleet_size;
        cell.adversary_cost = adversary_cost;
        cell.last_of_scenario = algorithm == players.back();
        pending.push_back(std::move(cell));
      }
    }

    mux.drain();

    // Harvest chunk cells in submission order (scenario-major, roster order
    // within), then close out each scenario group: ratios against the
    // group's best cost, pairwise Elo in roster order.
    std::size_t group_begin = result.cells.size();
    for (const PendingCell& cell : pending) {
      const core::SessionStats stats = mux.stats(cell.session);
      TournamentCell out;
      out.scenario = cell.scenario;
      out.algorithm = cell.algorithm;
      out.fleet_size = cell.fleet_size;
      out.total_cost = stats.total_cost;
      out.move_cost = stats.move_cost;
      out.service_cost = stats.service_cost;
      if (cell.adversary_cost > 0.0) out.ratio_vs_adversary = stats.total_cost / cell.adversary_cost;
      result.cells.push_back(std::move(out));

      if (!cell.last_of_scenario) continue;
      const std::size_t group_end = result.cells.size();
      double best = result.cells[group_begin].total_cost;
      for (std::size_t i = group_begin; i < group_end; ++i)
        best = std::min(best, result.cells[i].total_cost);
      for (std::size_t i = group_begin; i < group_end; ++i) {
        TournamentCell& played = result.cells[i];
        played.ratio_vs_best = trace::ratio_vs_best(played.total_cost, best);
        LeaderboardRow& row = rows[roster_index(played.algorithm)];
        row.scenarios += 1;
        row.total_cost += played.total_cost;
        if (played.ratio_vs_best > 0.0) row.ratio_vs_best.add(played.ratio_vs_best);
      }
      for (std::size_t i = group_begin; i < group_end; ++i) {
        for (std::size_t j = i + 1; j < group_end; ++j) {
          const std::size_t a = roster_index(result.cells[i].algorithm);
          const std::size_t b = roster_index(result.cells[j].algorithm);
          const double cost_a = result.cells[i].total_cost;
          const double cost_b = result.cells[j].total_cost;
          const double score_a = cost_a < cost_b ? 1.0 : (cost_a == cost_b ? 0.5 : 0.0);
          if (score_a == 1.0) {
            rows[a].wins += 1;
            rows[b].losses += 1;
          } else if (score_a == 0.0) {
            rows[a].losses += 1;
            rows[b].wins += 1;
          } else {
            rows[a].draws += 1;
            rows[b].draws += 1;
          }
          const double expected_a = 1.0 / (1.0 + std::pow(10.0, (elo[b] - elo[a]) / 400.0));
          const double delta = kEloK * (score_a - expected_a);
          elo[a] += delta;  // zero-sum by construction
          elo[b] -= delta;
        }
      }
      group_begin = group_end;
    }
  }

  for (std::size_t i = 0; i < roster.size(); ++i) rows[i].elo = elo[i];
  result.leaderboard = std::move(rows);
  std::stable_sort(result.leaderboard.begin(), result.leaderboard.end(),
                   [](const LeaderboardRow& a, const LeaderboardRow& b) { return a.elo > b.elo; });
  return result;
}

TournamentResult run_tournament(const std::filesystem::path& corpus_dir, par::ThreadPool& pool,
                                const TournamentOptions& options) {
  return run_tournament(list_scenario_files(corpus_dir), pool, options);
}

io::Json tournament_to_json(const TournamentResult& result) {
  io::Json doc = io::Json::object();
  doc.set("v", io::Json(1U));
  doc.set("seed", io::Json(result.seed));

  io::Json algorithms = io::Json::array();
  for (const std::string& name : result.algorithms) algorithms.push_back(io::Json(name));
  doc.set("algorithms", std::move(algorithms));

  io::Json scenarios = io::Json::array();
  for (const std::string& name : result.scenarios) scenarios.push_back(io::Json(name));
  doc.set("scenarios", std::move(scenarios));

  io::Json skipped = io::Json::array();
  for (const std::string& name : result.skipped) skipped.push_back(io::Json(name));
  doc.set("skipped", std::move(skipped));

  io::Json leaderboard = io::Json::array();
  for (const LeaderboardRow& row : result.leaderboard) {
    io::Json entry = io::Json::object();
    entry.set("algorithm", io::Json(row.algorithm));
    entry.set("elo", io::Json(row.elo));
    entry.set("scenarios", io::Json(row.scenarios));
    entry.set("wins", io::Json(row.wins));
    entry.set("draws", io::Json(row.draws));
    entry.set("losses", io::Json(row.losses));
    entry.set("mean_ratio_vs_best",
              io::Json(row.ratio_vs_best.count() > 0 ? row.ratio_vs_best.mean() : 0.0));
    entry.set("total_cost", io::Json(row.total_cost));
    leaderboard.push_back(std::move(entry));
  }
  doc.set("leaderboard", std::move(leaderboard));

  io::Json cells = io::Json::array();
  for (const TournamentCell& cell : result.cells) {
    io::Json entry = io::Json::object();
    entry.set("scenario", io::Json(cell.scenario));
    entry.set("algorithm", io::Json(cell.algorithm));
    entry.set("fleet_size", io::Json(cell.fleet_size));
    entry.set("total_cost", io::Json(cell.total_cost));
    entry.set("move_cost", io::Json(cell.move_cost));
    entry.set("service_cost", io::Json(cell.service_cost));
    entry.set("ratio_vs_best", io::Json(cell.ratio_vs_best));
    entry.set("ratio_vs_adversary", io::Json(cell.ratio_vs_adversary));
    cells.push_back(std::move(entry));
  }
  doc.set("cells", std::move(cells));
  return doc;
}

std::string leaderboard_markdown(const TournamentResult& result) {
  std::string out;
  out += "| rank | algorithm | Elo | W/D/L | mean ratio vs best | total cost |\n";
  out += "|-----:|-----------|----:|:-----:|-------------------:|-----------:|\n";
  std::size_t rank = 1;
  for (const LeaderboardRow& row : result.leaderboard) {
    out += "| " + std::to_string(rank++) + " | " + row.algorithm + " | ";
    io::append_double(out, std::round(row.elo * 10.0) / 10.0);
    out += " | " + std::to_string(row.wins) + "/" + std::to_string(row.draws) + "/" +
           std::to_string(row.losses) + " | ";
    const double mean = row.ratio_vs_best.count() > 0 ? row.ratio_vs_best.mean() : 0.0;
    io::append_double(out, std::round(mean * 1000.0) / 1000.0);
    out += " | ";
    io::append_double(out, std::round(row.total_cost * 100.0) / 100.0);
    out += " |\n";
  }
  if (!result.skipped.empty()) {
    out += "\nskipped (no fleet-native algorithm in the roster):";
    for (const std::string& name : result.skipped) out += " " + name;
    out += "\n";
  }
  return out;
}

}  // namespace mobsrv::scenario
