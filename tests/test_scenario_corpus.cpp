// Sweep over the committed scenarios/ corpus: every file parses, validates
// and materialises; every key in every file is load-bearing (injecting an
// unknown key anywhere must fail); the files are byte-identical to
// canonical_text(starter_corpus()). A differential golden pins what the
// params layer makes of several hundred mutated documents, down to the
// error text and the materialised bytes, and a second golden pins the
// compiled corpus (the starter corpus's generator scenarios, materialised).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "io/json.hpp"
#include "scenario/scenario.hpp"
#include "stats/rng.hpp"
#include "trace/codec.hpp"

#ifndef MOBSRV_SCENARIOS_DIR
#error "MOBSRV_SCENARIOS_DIR must point at the committed scenarios/ directory"
#endif
#ifndef MOBSRV_GOLDEN_DIR
#error "MOBSRV_GOLDEN_DIR must point at the committed tests/golden/ directory"
#endif

namespace mobsrv::scenario {
namespace {

namespace fs = std::filesystem;

fs::path corpus_dir() { return fs::path(MOBSRV_SCENARIOS_DIR); }

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Counts JSON objects in \p value (document order, root first).
std::size_t count_objects(const io::Json& value) {
  std::size_t n = 0;
  if (value.is_object()) {
    ++n;
    for (const io::Json::Member& member : value.as_object()) n += count_objects(member.second);
  } else if (value.is_array()) {
    for (const io::Json& element : value.as_array()) n += count_objects(element);
  }
  return n;
}

/// Injects an unknown member into the \p target-th object (document order).
/// Returns true once injected.
bool inject_unknown(io::Json& value, std::size_t& target) {
  if (value.is_object()) {
    if (target == 0) {
      value.set("__unknown_member__", io::Json(1));
      return true;
    }
    --target;
    for (io::Json::Member& member : value.as_object())
      if (inject_unknown(member.second, target)) return true;
  } else if (value.is_array()) {
    for (io::Json& element : value.as_array())
      if (inject_unknown(element, target)) return true;
  }
  return false;
}

TEST(ScenarioCorpus, FilesMatchStarterCorpusByteForByte) {
  const std::vector<fs::path> files = list_scenario_files(corpus_dir());
  std::set<std::string> on_disk;
  for (const fs::path& path : files) on_disk.insert(path.stem().string());

  std::set<std::string> expected;
  for (const Scenario& sc : starter_corpus()) {
    expected.insert(sc.name);
    const fs::path path = corpus_dir() / (sc.name + ".json");
    EXPECT_EQ(read_file(path), canonical_text(sc))
        << path << " is out of sync with starter_corpus() — regenerate it from code";
  }
  EXPECT_EQ(on_disk, expected);
}

TEST(ScenarioCorpus, EveryFileParsesValidatesAndMaterializes) {
  for (const fs::path& path : list_scenario_files(corpus_dir())) {
    SCOPED_TRACE(path.string());
    const Scenario sc = load(path);
    EXPECT_EQ(sc.name, path.stem().string());
    const trace::TraceFile file = materialize(sc, corpus_dir());
    EXPECT_EQ(file.meta.name, sc.name);
    EXPECT_EQ(file.meta.source, "scenario");
    EXPECT_GT(file.instance.horizon(), 0u);
  }
}

TEST(ScenarioCorpus, EveryFieldInEveryFileIsRecognized) {
  // Injecting one unknown key into *any* object of *any* committed file
  // must fail validation — proof that every existing key sits inside an
  // allowlist and none is silently ignored.
  for (const fs::path& path : list_scenario_files(corpus_dir())) {
    const io::Json doc = io::Json::parse(read_file(path));
    const std::size_t objects = count_objects(doc);
    ASSERT_GT(objects, 0u) << path;
    for (std::size_t i = 0; i < objects; ++i) {
      io::Json mutated = doc;
      std::size_t target = i;
      ASSERT_TRUE(inject_unknown(mutated, target)) << path;
      EXPECT_THROW((void)from_json(mutated, path.string()), ScenarioError)
          << path << ": unknown key in object #" << i << " was not rejected";
    }
  }
}

TEST(ScenarioCorpus, CommittedCsvDataRoundTrips) {
  // The CSV-backed scenarios exercise the PR 2 importers through the
  // scenario layer; their data files live inside the corpus directory.
  const Scenario demand = load(corpus_dir() / "demand-csv.json");
  const trace::TraceFile demand_file = materialize(demand, corpus_dir());
  EXPECT_GT(demand_file.instance.horizon(), 0u);
  EXPECT_FALSE(demand_file.moving_client.has_value());

  const Scenario waypoints = load(corpus_dir() / "waypoints-csv.json");
  const trace::TraceFile waypoints_file = materialize(waypoints, corpus_dir());
  ASSERT_TRUE(waypoints_file.moving_client.has_value());
  EXPECT_GE(waypoints_file.moving_client->agents.size(), 2u);
}

// ---------------------------------------------------------------------------
// Differential golden of the params layer. tests/golden/scenario_params.golden
// holds one JSON record per line: an input document and what parse and
// materialize made of it. That is either the exact ScenarioError text, or
// canonical_text plus an FNV-1a digest of the materialised trace in the
// binary codec; the digest catches a knob copied into the wrong generator
// field. Where a generator refuses an accepted document, only the exception
// type is recorded (contract messages carry source paths).
//
// The documents mutate one small document per kind, covering every knob:
// omitted, on and just past its bounds, wrong JSON type, non-integer
// counts, unknown keys, keys of other kinds and swapped r_min/r_max, plus
// seeded combinations of accepted values. Regenerate only when a change in
// behaviour is intended:
//   MOBSRV_WRITE_SCENARIO_GOLDEN=1 ./test_scenario_corpus --gtest_filter='ScenarioGolden.*'

fs::path golden_path() { return fs::path(MOBSRV_GOLDEN_DIR) / "scenario_params.golden"; }

/// FNV-1a digest of \p file in the binary codec, as 16 hex digits.
std::string trace_digest(const trace::TraceFile& file) {
  const std::string bytes = trace::encode_trace(file, trace::Codec::kBinary);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(stats::hash_name(bytes)));
  return digest;
}

io::Json golden_record(const std::string& doc) {
  io::Json record = io::Json::object();
  record.set("doc", io::Json(doc));
  Scenario sc;
  try {
    sc = parse(doc, "<golden>");
  } catch (const ScenarioError& error) {
    record.set("error", io::Json(std::string(error.what())));
    return record;
  }
  record.set("canonical", io::Json(canonical_text(sc)));
  try {
    record.set("trace_fnv1a", io::Json(trace_digest(materialize(sc, corpus_dir()))));
  } catch (const ContractViolation&) {
    record.set("materialize", io::Json("ContractViolation"));
  }
  return record;
}

io::Json& params_of(io::Json& doc) {
  for (io::Json::Member& member : doc.as_object())
    if (member.first == "params") return member.second;
  throw std::logic_error("document without params");
}

void erase_member(io::Json& obj, const std::string& key) {
  std::erase_if(obj.as_object(), [&key](const io::Json::Member& m) { return m.first == key; });
}

/// A small document of \p kind: short horizon, or minimal importer data.
io::Json golden_base(const std::string& kind) {
  io::Json params = io::Json::object();
  if (kind == "demand")
    params.set("steps", io::Json::parse("[[[0, 0]], [], [[1.5, 2], [3, -1]]]"));
  else if (kind == "waypoints")
    params.set("file", io::Json("data/helpers.csv"));
  else
    params.set("horizon", io::Json(16));
  io::Json doc = io::Json::object();
  doc.set("v", io::Json(1));
  doc.set("name", io::Json("golden-" + kind));
  doc.set("kind", io::Json(kind));
  doc.set("seed", io::Json(5));
  doc.set("params", std::move(params));
  return doc;
}

/// Every params member \p kind accepts, read off its canonical form.
std::vector<std::string> golden_keys(const std::string& kind) {
  std::vector<std::string> keys;
  const io::Json canonical = to_json(parse(golden_base(kind).dump(), "<golden>"));
  for (const io::Json::Member& member : canonical.at("params").as_object())
    keys.push_back(member.first);
  if (kind == "demand") keys.insert(keys.end(), {"start", "file"});
  return keys;
}

/// Values for one member: both sides of every bound the format has (0, 1,
/// dim 8, kMaxRounds), non-integers and wrong JSON types.
std::vector<io::Json> golden_probes(const std::string& kind, const std::string& key) {
  using io::Json;
  if (key == "order") return {"move-then-serve", "serve-then-move", "sideways", 1};
  if (key == "start")
    return {Json::parse("[0, 0]"), Json::parse("[1]"), Json::parse("[]"), "origin",
            Json::parse("[1, 2, 3, 4, 5, 6, 7, 8, 9]")};
  if (key == "file") return {kind == "demand" ? "data/edge_demand.csv" : "data/helpers.csv", "", 7};
  if (key == "steps")
    return {Json::parse("[[[0], [1]], [[2]]]"), Json::parse("[]"), Json::parse("[[], []]"), "x",
            Json::parse("[[[0, 0]], [[1]]]")};
  std::vector<Json> probes = {-0.5, 0, 0.5, 1, 1.5, 8, kMaxRounds + 1, "1"};
  if (key == "dim") probes.emplace_back(9);
  // A request-count knob at 2^22 would build millions of requests.
  if (key != "horizon" && key != "requests_per_step" && key != "r_min" && key != "r_max")
    probes.emplace_back(kMaxRounds);
  return probes;
}

std::vector<std::string> golden_documents() {
  std::map<std::string, std::vector<std::string>> keys_of;
  std::set<std::string> all_keys;
  for (const std::string& kind : scenario_kinds()) {
    keys_of[kind] = golden_keys(kind);
    all_keys.insert(keys_of[kind].begin(), keys_of[kind].end());
  }

  std::vector<std::string> docs;
  std::set<std::string> seen;
  const auto add = [&docs, &seen](const io::Json& doc) {
    if (seen.insert(doc.dump()).second) docs.push_back(doc.dump());
  };
  for (const std::string& kind : scenario_kinds()) {
    const io::Json base = golden_base(kind);
    const std::vector<std::string>& keys = keys_of[kind];
    const auto with = [&base](const std::vector<std::pair<std::string, io::Json>>& members) {
      io::Json doc = base;
      for (const auto& [key, value] : members) {
        // "file" and "steps" are alternatives: a probe of one replaces the other.
        if (key == "file") erase_member(params_of(doc), "steps");
        if (key == "steps") erase_member(params_of(doc), "file");
        params_of(doc).set(key, value);
      }
      return doc;
    };

    add(base);
    for (const io::Json::Member& member : base.at("params").as_object()) {
      io::Json doc = base;
      erase_member(params_of(doc), member.first);
      add(doc);
    }

    std::map<std::string, std::vector<io::Json>> accepted;
    for (const std::string& key : keys) {
      for (const io::Json& probe : golden_probes(kind, key)) {
        const io::Json doc = with({{key, probe}});
        add(doc);
        try {
          (void)parse(doc.dump(), "<golden>");
          accepted[key].push_back(probe);
        } catch (const ScenarioError&) {
        }
      }
    }

    stats::Rng rng({stats::hash_name("scenario-golden"), stats::hash_name(kind)});
    for (const char* key : {"hroizon", "D", "params"}) add(with({{key, io::Json(1)}}));
    std::vector<std::string> foreign;
    for (const std::string& key : all_keys)
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) foreign.push_back(key);
    for (int i = 0; i < 3; ++i) add(with({{foreign[rng() % foreign.size()], io::Json(1)}}));
    if (std::find(keys.begin(), keys.end(), "r_min") != keys.end()) {
      add(with({{"r_min", io::Json(3)}, {"r_max", io::Json(2)}}));
      add(with({{"r_max", io::Json(2)}, {"r_min", io::Json(3)}}));
      add(with({{"r_min", io::Json(2)}, {"r_max", io::Json(3)}}));
      add(with({{"r_min", io::Json(5)}, {"r_max", io::Json(5)}}));
    }

    // Seeded combinations: each scalar knob set with probability 1/2 to a
    // value it is accepted with on its own.
    for (int i = 0; i < 8; ++i) {
      std::vector<std::pair<std::string, io::Json>> members;
      for (const std::string& key : keys) {
        if (key == "start" || key == "file" || key == "steps" || accepted[key].empty()) continue;
        if (rng.coin()) continue;
        members.emplace_back(key, accepted[key][rng() % accepted[key].size()]);
      }
      io::Json doc = with(members);
      doc.set("seed", io::Json(rng() % 1000));
      add(doc);
    }
  }
  return docs;
}

TEST(ScenarioGolden, ParamsLayerMatchesRecordedOutput) {
  if (std::getenv("MOBSRV_WRITE_SCENARIO_GOLDEN") != nullptr) {
    std::ofstream out(golden_path());
    for (const std::string& doc : golden_documents()) out << golden_record(doc).dump() << '\n';
    GTEST_SKIP() << "wrote " << golden_path();
  }
  std::ifstream in(golden_path());
  ASSERT_TRUE(in) << golden_path();
  std::size_t records = 0;
  std::size_t mismatches = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++records;
    const std::string got = golden_record(io::Json::parse(line).at("doc").as_string()).dump();
    if (got != line && ++mismatches <= 5)
      ADD_FAILURE() << "golden record " << records << "\n want: " << line << "\n got:  " << got;
    // Every document the parser accepts, its generator must build.
    EXPECT_EQ(line.find("ContractViolation"), std::string::npos)
        << "golden record " << records << " is accepted but refused by its generator: " << line;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << records << " records";
  EXPECT_GE(records, 800u);
}

// ---------------------------------------------------------------------------
// Golden of the compiled corpus. tests/golden/corpus_traces.golden holds one
// JSON record per (scenario, seed, scale): the horizon make_corpus_trace
// chose and an FNV-1a digest of the trace in the binary codec. It pins every
// corpus generator's pinned parameters, its horizon scaling (16-step floor
// included) and its RNG keying. Regenerate only when a change in behaviour
// is intended:
//   MOBSRV_WRITE_CORPUS_GOLDEN=1 ./test_scenario_corpus --gtest_filter='ScenarioGolden.*'

io::Json corpus_record(const std::string& name, std::uint64_t seed, double scale) {
  const trace::TraceFile file = make_corpus_trace(name, seed, scale);
  io::Json record = io::Json::object();
  record.set("name", io::Json(name));
  record.set("seed", io::Json(seed));
  record.set("scale", io::Json(scale));
  record.set("horizon", io::Json(file.instance.horizon()));
  record.set("trace_fnv1a", io::Json(trace_digest(file)));
  return record;
}

TEST(ScenarioGolden, CompiledCorpusMatchesRecordedTraces) {
  const fs::path path = fs::path(MOBSRV_GOLDEN_DIR) / "corpus_traces.golden";
  if (std::getenv("MOBSRV_WRITE_CORPUS_GOLDEN") != nullptr) {
    std::ofstream out(path);
    for (const CorpusScenario& scenario : corpus_scenarios())
      for (const std::uint64_t seed : {0, 3, 7, 11})
        for (const double scale : {0.01, 0.05, 0.1, 1.0})
          out << corpus_record(scenario.name, seed, scale).dump() << '\n';
    GTEST_SKIP() << "wrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << path;
  std::set<std::string> names;
  std::size_t records = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++records;
    const io::Json want = io::Json::parse(line);
    const std::string name = want.at("name").as_string();
    names.insert(name);
    EXPECT_EQ(corpus_record(name, want.at("seed").as_uint64(), want.at("scale").as_double()).dump(),
              line);
  }
  EXPECT_EQ(records, 12u * 4u * 4u);
  EXPECT_EQ(names.size(), 12u);
}

}  // namespace
}  // namespace mobsrv::scenario
