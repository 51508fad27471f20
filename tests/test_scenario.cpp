// Unit tests for scenario/scenario: the declarative JSON format parses with
// kind-appropriate defaults, round-trips through to_json/canonical_text, and
// rejects every malformed document loudly — unknown members, wrong types,
// out-of-range values, missing required members — with the scenario name
// attached. Importer kinds materialise inline and CSV data.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.hpp"
#include "trace/trace.hpp"

namespace mobsrv::scenario {
namespace {

namespace fs = std::filesystem;

Scenario parse_text(const std::string& text) { return parse(text, "<test>"); }

/// EXPECT that parsing \p text throws a ScenarioError mentioning \p needle.
void expect_rejected(const std::string& text, const std::string& needle) {
  try {
    (void)parse_text(text);
    FAIL() << "expected rejection mentioning '" << needle << "' for: " << text;
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "message '" << error.what() << "' does not mention '" << needle << "'";
  }
}

class ScenarioFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_scenario_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write_text(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << text;
    return path;
  }

  fs::path dir_;
};

TEST(ScenarioParse, MinimalDocumentFillsGeneratorDefaults) {
  const Scenario sc = parse_text(R"({"v": 1, "name": "lb", "kind": "theorem1"})");
  EXPECT_EQ(sc.name, "lb");
  EXPECT_EQ(sc.kind, "theorem1");
  EXPECT_EQ(sc.seed, 0u);
  EXPECT_DOUBLE_EQ(sc.speed_factor, 1.5);
  EXPECT_FALSE(sc.fleet.has_value());
  // Defaults come from adv::Theorem1Params itself.
  EXPECT_EQ(sc.params.horizon, 1024u);
  EXPECT_DOUBLE_EQ(sc.params.move_cost_weight, 1.0);
  EXPECT_EQ(sc.params.dim, 1);
  EXPECT_EQ(sc.params.x, 0u);
}

TEST(ScenarioParse, OverridesApplyAndNameAttributesErrors) {
  const Scenario sc = parse_text(
      R"({"v": 1, "name": "tuned", "kind": "uniform-noise", "seed": 9,
          "speed_factor": 2.0,
          "params": {"horizon": 64, "dim": 3, "half_width": 2.5}})");
  EXPECT_EQ(sc.seed, 9u);
  EXPECT_DOUBLE_EQ(sc.speed_factor, 2.0);
  EXPECT_EQ(sc.params.horizon, 64u);
  EXPECT_EQ(sc.params.dim, 3);
  EXPECT_DOUBLE_EQ(sc.params.half_width, 2.5);

  // Once the name is known, it shows up in every later error message.
  expect_rejected(R"({"v": 1, "name": "tuned", "kind": "uniform-noise",
                      "params": {"horizon": 0}})",
                  "scenario \"tuned\"");
}

TEST(ScenarioParse, MissingRequiredMembersFail) {
  expect_rejected(R"({"name": "x", "kind": "theorem1"})", "missing required member \"v\"");
  expect_rejected(R"({"v": 1, "kind": "theorem1"})", "missing required member \"name\"");
  expect_rejected(R"({"v": 1, "name": "x"})", "missing required member \"kind\"");
}

TEST(ScenarioParse, WrongVersionFails) {
  expect_rejected(R"({"v": 2, "name": "x", "kind": "theorem1"})", "unsupported format version");
  expect_rejected(R"({"v": 1.5, "name": "x", "kind": "theorem1"})", "unsupported format version");
  expect_rejected(R"({"v": "1", "name": "x", "kind": "theorem1"})", "unsupported format version");
}

TEST(ScenarioParse, UnknownTopLevelMemberFails) {
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "sede": 3})",
                  "unknown member \"sede\"");
}

TEST(ScenarioParse, UnknownParamMemberFailsAndListsAllowed) {
  // The classic typo: "hroizon" must never silently run the default horizon.
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"hroizon": 64}})",
                  "unknown member \"hroizon\"");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"hroizon": 64}})",
                  "allowed: horizon");
  // Parameters of a *different* kind are unknown members here.
  expect_rejected(R"({"v": 1, "name": "x", "kind": "uniform-noise", "params": {"delta": 0.5}})",
                  "unknown member \"delta\"");
}

TEST(ScenarioParse, Theorem3RejectsTheoremOneOnlyKnob) {
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem3", "params": {"x": 4}})",
                  "unknown member \"x\"");
}

TEST(ScenarioParse, UnknownKindFailsAndListsKinds) {
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem9"})", "unknown kind \"theorem9\"");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem9"})", "known kinds: theorem1");
}

TEST(ScenarioParse, WrongTypesFail) {
  expect_rejected(R"([1, 2, 3])", "must be a JSON object");
  expect_rejected(R"({"v": 1, "name": 7, "kind": "theorem1"})", "\"name\" must be a string");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "seed": "abc"})",
                  "\"seed\" must be a number");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "seed": -1})",
                  "\"seed\" must be a non-negative integer");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": [1]})",
                  "\"params\" must be an object");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"horizon": "64"}})",
                  "\"horizon\" must be a number");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"horizon": 64.5}})",
                  "\"horizon\" must be a non-negative integer");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand", "params": {"steps": 3}})",
                  "\"steps\" must be an array");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand",
                      "params": {"order": "sideways", "steps": [[[0]]]}})",
                  "\"order\" must be");
}

TEST(ScenarioParse, OutOfRangeValuesFail) {
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "speed_factor": 0.5})",
                  "\"speed_factor\" must be >= 1");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"horizon": 0}})",
                  "\"horizon\" must be >= 1");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"horizon": 4194305}})",
                  "exceeds the limit");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"dim": 0}})", "\"dim\"");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"dim": 9}})",
                  "\"dim\" must be in [1, 8]");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"m": 0}})",
                  "\"m\" must be > 0");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem1", "params": {"d": 0.5}})",
                  "\"d\" must be >= 1");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem2",
                      "params": {"r_min": 4, "r_max": 2}})",
                  "\"r_max\" must be >= \"r_min\"");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "bursts",
                      "params": {"burst_probability": 1.5}})",
                  "\"burst_probability\" must be in [0, 1]");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "random-waypoint",
                      "params": {"min_speed_fraction": 0}})",
                  "\"min_speed_fraction\" must be in (0, 1]");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "theorem8-moving-client",
                      "params": {"epsilon": 0}})",
                  "\"epsilon\" must be > 0");
}

TEST(ScenarioParse, RequestTotalIsCappedForEveryBatchedKind) {
  // Each count is capped on its own, but a generator builds horizon × batch
  // size requests: that product is capped too, before anything is built.
  const std::vector<std::pair<std::string, std::string>> batched = {
      {"theorem1", "requests_per_step"}, {"theorem2", "r_max"},
      {"theorem3", "requests_per_step"}, {"drifting-hotspot", "r_max"},
      {"bursts", "r_max"},               {"commute", "requests_per_step"},
      {"uniform-noise", "requests_per_step"},
  };
  for (const auto& [kind, key] : batched) {
    SCOPED_TRACE(kind);
    const auto doc = [&](std::size_t batch) {
      return R"({"v": 1, "name": "big", "kind": ")" + kind + R"(", "params": {"horizon": 1024, ")" +
             key + "\": " + std::to_string(batch) + "}}";
    };
    EXPECT_EQ(parse_text(doc(4096)).params.horizon, 1024u);  // exactly kMaxRounds requests
    expect_rejected(doc(4097), "scenario \"big\": \"horizon\" 1024 times \"" + key +
                                   "\" 4097 asks for more than 4194304 requests");
  }
  // The two shapes that used to parse: 2^44 uniform-noise requests, and a
  // hotspot whose every batch holds 2^22 requests.
  expect_rejected(R"({"v": 1, "name": "big", "kind": "uniform-noise",
                      "params": {"horizon": 4194304, "requests_per_step": 4194304}})",
                  "asks for more than 4194304 requests");
  expect_rejected(R"({"v": 1, "name": "big", "kind": "drifting-hotspot",
                      "params": {"r_min": 4194304, "r_max": 4194304}})",
                  "asks for more than 4194304 requests");
}

TEST(ScenarioParse, NonFiniteNumbersFail) {
  expect_rejected(R"({"v": 1, "name": "x", "kind": "uniform-noise",
                      "params": {"half_width": 1e999}})",
                  "");  // the JSON layer itself rejects the overflow
}

TEST(ScenarioParse, BadNameCharsetFails) {
  expect_rejected(R"({"v": 1, "name": "has space", "kind": "theorem1"})",
                  "\"name\" must use only");
  expect_rejected(R"({"v": 1, "name": "", "kind": "theorem1"})", "\"name\" must not be empty");
}

TEST(ScenarioParse, FleetSpecValidated) {
  const Scenario sc = parse_text(
      R"({"v": 1, "name": "x", "kind": "uniform-noise", "fleet": {"size": 4, "spread": 3.0}})");
  ASSERT_TRUE(sc.fleet.has_value());
  EXPECT_EQ(sc.fleet->size, 4u);
  EXPECT_DOUBLE_EQ(sc.fleet->spread, 3.0);

  expect_rejected(R"({"v": 1, "name": "x", "kind": "uniform-noise", "fleet": {"size": 0}})",
                  "\"size\" must be >= 1");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "uniform-noise", "fleet": {"size": 4097}})",
                  "\"size\" must be in [1, 4096]");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "uniform-noise", "fleet": {"spread": 0}})",
                  "\"spread\" must be > 0");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "uniform-noise", "fleet": {"sise": 2}})",
                  "unknown member \"sise\"");
}

TEST(ScenarioParse, DemandRequiresExactlyOneOfFileAndSteps) {
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand", "params": {}})",
                  "exactly one of \"file\" and \"steps\"");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand",
                      "params": {"file": "a.csv", "steps": [[[0]]]}})",
                  "exactly one of \"file\" and \"steps\"");
}

TEST(ScenarioParse, InlineStepsValidateDimensions) {
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand",
                      "params": {"steps": [[[0, 0]], [[1]]]}})",
                  "inconsistent dimension");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand",
                      "params": {"start": [0], "steps": [[[1, 2]]]}})",
                  "inconsistent dimension");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand", "params": {"steps": [[], []]}})",
                  "cannot infer the dimension");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand", "params": {"steps": []}})",
                  "at least one step");
  expect_rejected(R"({"v": 1, "name": "x", "kind": "demand",
                      "params": {"steps": [[[1, 2, 3, 4, 5, 6, 7, 8, 9]]]}})",
                  "1-8 coordinates");
}

TEST(ScenarioParse, InlineDemandMaterializes) {
  const Scenario sc = parse_text(
      R"({"v": 1, "name": "inline", "kind": "demand",
          "params": {"d": 3.0, "order": "serve-then-move",
                     "steps": [[], [[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]]}})");
  const trace::TraceFile file = materialize(sc);
  EXPECT_EQ(file.meta.name, "inline");
  EXPECT_EQ(file.meta.source, "scenario");
  EXPECT_EQ(file.instance.horizon(), 3u);
  // No explicit start: the first request becomes the start.
  EXPECT_EQ(file.instance.start().dim(), 2);
  EXPECT_DOUBLE_EQ(file.instance.start()[0], 1.0);
  EXPECT_DOUBLE_EQ(file.instance.start()[1], 2.0);
  EXPECT_DOUBLE_EQ(file.instance.params().move_cost_weight, 3.0);
  EXPECT_EQ(file.instance.params().order, sim::ServiceOrder::kServeThenMove);
  EXPECT_TRUE(file.instance.step(0).empty());
  EXPECT_EQ(file.instance.step(2).size(), 2u);
}

TEST_F(ScenarioFileTest, CsvDemandMaterializesRelativeToBaseDir) {
  fs::create_directories(dir_ / "data");
  write_text("data/demand.csv", "0 1.5 2.5\n1 2.0 3.0\n3 4.0 5.0\n");
  const Scenario sc = parse_text(
      R"({"v": 1, "name": "csv-demand", "kind": "demand",
          "seed": 5, "params": {"d": 2.0, "file": "data/demand.csv"}})");
  const trace::TraceFile file = materialize(sc, dir_);
  // The importer's "import:" meta is overwritten with the scenario's own.
  EXPECT_EQ(file.meta.name, "csv-demand");
  EXPECT_EQ(file.meta.source, "scenario");
  EXPECT_EQ(file.meta.seed, 5u);
  EXPECT_EQ(file.instance.horizon(), 4u);  // rounds 0..3
  EXPECT_DOUBLE_EQ(file.instance.params().move_cost_weight, 2.0);
}

TEST_F(ScenarioFileTest, CsvWaypointsMaterializeRelativeToBaseDir) {
  fs::create_directories(dir_ / "data");
  write_text("data/agents.csv",
             "0 0 0.0 0.0\n0 16 8.0 0.0\n"
             "1 0 4.0 4.0\n1 16 4.0 -4.0\n");
  const Scenario sc = parse_text(
      R"({"v": 1, "name": "csv-agents", "kind": "waypoints",
          "params": {"d": 2.0, "agent_speed": 1.25, "file": "data/agents.csv"}})");
  const trace::TraceFile file = materialize(sc, dir_);
  EXPECT_EQ(file.meta.name, "csv-agents");
  EXPECT_EQ(file.meta.source, "scenario");
  ASSERT_TRUE(file.moving_client.has_value());
  EXPECT_EQ(file.moving_client->agents.size(), 2u);
  EXPECT_DOUBLE_EQ(file.moving_client->agent_speed, 1.25);
  EXPECT_EQ(file.instance.horizon(), 16u);
}

TEST_F(ScenarioFileTest, MissingCsvFailsAtMaterializeTime) {
  const Scenario sc = parse_text(
      R"({"v": 1, "name": "x", "kind": "demand", "params": {"file": "no/such.csv"}})");
  EXPECT_THROW((void)materialize(sc, dir_), std::exception);
}

TEST_F(ScenarioFileTest, LoadReadsFilesAndFailsOnMissingOnes) {
  const fs::path path =
      write_text("ok.json", R"({"v": 1, "name": "ok", "kind": "zigzag"})" "\n");
  const Scenario sc = load(path);
  EXPECT_EQ(sc.name, "ok");
  EXPECT_THROW((void)load(dir_ / "absent.json"), ScenarioError);

  // A syntax error carries the file path as context.
  const fs::path bad = write_text("bad.json", "{\"v\": 1,,}");
  try {
    (void)load(bad);
    FAIL() << "expected a parse failure";
  } catch (const ScenarioError& error) {
    EXPECT_NE(std::string(error.what()).find("bad.json"), std::string::npos);
  }
}

TEST_F(ScenarioFileTest, ListScenarioFilesSortsAndRejectsEmptyDirs) {
  EXPECT_THROW((void)list_scenario_files(dir_ / "absent"), ScenarioError);
  EXPECT_THROW((void)list_scenario_files(dir_), ScenarioError);  // no *.json yet
  write_text("b.json", "{}");
  write_text("a.json", "{}");
  write_text("notes.txt", "ignored");
  const std::vector<fs::path> files = list_scenario_files(dir_);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].filename(), "a.json");
  EXPECT_EQ(files[1].filename(), "b.json");
}

TEST(ScenarioRoundTrip, EveryStarterScenarioSurvivesToJsonAndBack) {
  for (const Scenario& sc : starter_corpus()) {
    const std::string text = canonical_text(sc);
    const Scenario back = parse(text, "<round-trip>");
    EXPECT_EQ(back.name, sc.name);
    EXPECT_EQ(back.kind, sc.kind);
    EXPECT_EQ(back.seed, sc.seed);
    EXPECT_EQ(back.fleet.has_value(), sc.fleet.has_value());
    // Canonical form is a fixed point: parse(canonical_text(s)) re-emits the
    // same bytes.
    EXPECT_EQ(canonical_text(back), text) << sc.name;
  }
}

TEST(ScenarioRoundTrip, MaterializeIsDeterministic) {
  const Scenario sc = parse_text(
      R"({"v": 1, "name": "det", "kind": "uniform-noise", "seed": 3,
          "params": {"horizon": 64}})");
  const trace::TraceFile a = materialize(sc);
  const trace::TraceFile b = materialize(sc);
  EXPECT_TRUE(trace::identical(a.instance, b.instance));

  // A different seed steers the generator elsewhere.
  Scenario other = sc;
  other.seed = 4;
  EXPECT_FALSE(trace::identical(a.instance, materialize(other).instance));
}

}  // namespace
}  // namespace mobsrv::scenario
