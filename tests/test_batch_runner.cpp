// Unit tests for trace/batch_runner: sharded directory replay aggregates
// correctly, is deterministic across thread counts, and verifies recorded
// runs along the way.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "trace/batch_runner.hpp"
#include "trace/corpus.hpp"

namespace mobsrv::trace {
namespace {

namespace fs = std::filesystem;

class BatchRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_batch_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes a small mixed-codec corpus with recorded MtC runs.
  std::vector<fs::path> write_small_corpus(std::size_t count) {
    const std::vector<CorpusScenario>& scenarios = corpus_scenarios();
    std::vector<fs::path> files;
    for (std::size_t i = 0; i < count; ++i) {
      TraceFile file = make_corpus_trace(scenarios[i % scenarios.size()].name, i, 0.05);
      file.runs.push_back(record_run(file.instance, "MtC", i, 1.5));
      const Codec codec = i % 2 == 0 ? Codec::kJsonl : Codec::kBinary;
      const fs::path path =
          dir_ / ("corpus-" + std::to_string(i) + extension(codec));
      write_trace(path, file, codec);
      files.push_back(path);
    }
    return files;
  }

  fs::path dir_;
};

TEST(RatioVsBest, BestIsOneAndAFreeBestLeavesCostlyRunsUnavailable) {
  EXPECT_DOUBLE_EQ(ratio_vs_best(6.0, 4.0), 1.5);
  EXPECT_DOUBLE_EQ(ratio_vs_best(4.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(ratio_vs_best(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ratio_vs_best(3.0, 0.0), 0.0);
}

TEST_F(BatchRunnerTest, ListTraceFilesFindsBothCodecsSorted) {
  write_small_corpus(4);
  const std::vector<fs::path> files = list_trace_files(dir_);
  ASSERT_EQ(files.size(), 4u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  EXPECT_THROW((void)list_trace_files(dir_ / "missing"), TraceError);
  const fs::path empty = dir_ / "empty";
  fs::create_directories(empty);
  EXPECT_THROW((void)list_trace_files(empty), TraceError);
}

TEST_F(BatchRunnerTest, AggregatesMatchSingleFileReplays) {
  const std::vector<fs::path> files = write_small_corpus(6);
  BatchOptions options;
  options.algorithms = {"MtC", "Lazy"};

  par::ThreadPool pool(4);
  const BatchResult result = run_batch(pool, files, options);

  EXPECT_EQ(result.files, 6u);
  EXPECT_EQ(result.entries.size(), 12u);  // file-major × 2 algorithms
  ASSERT_EQ(result.summaries.size(), 2u);
  EXPECT_EQ(result.summaries[0].algorithm, "MtC");
  EXPECT_EQ(result.summaries[1].algorithm, "Lazy");
  EXPECT_EQ(result.summaries[0].cost.count(), 6u);
  EXPECT_EQ(result.replay_checks, 6u);       // one recorded MtC run per file
  EXPECT_EQ(result.replay_mismatches, 0u);   // bit-identical by construction

  // Cross-check every entry against a direct sequential computation.
  for (const BatchEntry& entry : result.entries) {
    const TraceFile file = read_trace(dir_ / entry.file);
    const sim::RunResult direct = run_on_trace(file, entry.algorithm, options.algo_seed, 1.5);
    EXPECT_EQ(entry.cost, direct.total_cost) << entry.file << " / " << entry.algorithm;
    EXPECT_GE(entry.ratio_vs_best, 1.0);
  }

  // Wins: exactly one strict winner per file at most, and ratio 1 for it.
  int wins = 0;
  for (const BatchAlgoSummary& s : result.summaries) wins += s.wins;
  EXPECT_LE(wins, 6);
  EXPECT_GT(wins, 0);
}

TEST_F(BatchRunnerTest, DeterministicAcrossThreadCounts) {
  const std::vector<fs::path> files = write_small_corpus(5);
  BatchOptions options;
  options.algorithms = {"MtC", "GreedyCenter"};
  par::ThreadPool one(1);
  par::ThreadPool eight(8);
  const BatchResult a = run_batch(one, files, options);
  const BatchResult b = run_batch(eight, files, options);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].file, b.entries[i].file);
    EXPECT_EQ(a.entries[i].algorithm, b.entries[i].algorithm);
    EXPECT_EQ(a.entries[i].cost, b.entries[i].cost);  // exact
  }
}

TEST_F(BatchRunnerTest, AdversaryRatiosOnlyWhereAvailable) {
  // theorem1 carries an adversary solution; uniform-noise does not.
  TraceFile with = make_corpus_trace("theorem1", 1, 0.05);
  TraceFile without = make_corpus_trace("uniform-noise", 1, 0.05);
  write_trace(dir_ / "with.jsonl", with, Codec::kJsonl);
  write_trace(dir_ / "without.jsonl", without, Codec::kJsonl);

  BatchOptions options;
  options.algorithms = {"MtC"};
  par::ThreadPool pool(2);
  const BatchResult result = run_batch(pool, list_trace_files(dir_), options);
  ASSERT_EQ(result.summaries.size(), 1u);
  EXPECT_EQ(result.summaries[0].ratio_vs_adversary.count(), 1u);
  for (const BatchEntry& entry : result.entries) {
    if (entry.scenario == "theorem1") {
      EXPECT_GT(entry.ratio_vs_adversary, 0.0);
    }
    if (entry.scenario == "uniform-noise") {
      EXPECT_EQ(entry.ratio_vs_adversary, 0.0);
    }
  }
}

TEST_F(BatchRunnerTest, TamperedRecordedRunIsCountedAsMismatch) {
  TraceFile file = make_corpus_trace("commute", 1, 0.05);
  file.runs.push_back(record_run(file.instance, "MtC", 1, 1.5));
  file.runs.front().total_cost *= 1.0000001;  // corrupt the recorded cost
  write_trace(dir_ / "tampered.jsonl", file, Codec::kJsonl);

  BatchOptions options;
  options.algorithms = {"MtC"};
  par::ThreadPool pool(2);
  const BatchResult result = run_batch(pool, {dir_ / "tampered.jsonl"}, options);
  EXPECT_EQ(result.replay_checks, 1u);
  EXPECT_EQ(result.replay_mismatches, 1u);
}

TEST_F(BatchRunnerTest, CorruptFileInBatchPropagates) {
  write_small_corpus(2);
  std::ofstream bad(dir_ / "bad.jsonl");
  bad << "{\"format\":\"nope\"}\n";
  bad.close();
  BatchOptions options;
  options.algorithms = {"MtC"};
  par::ThreadPool pool(2);
  EXPECT_THROW((void)run_batch(pool, list_trace_files(dir_), options), TraceError);
}

TEST_F(BatchRunnerTest, JsonSerialisationIsWellFormed) {
  write_small_corpus(3);
  BatchOptions options;
  options.algorithms = {"MtC", "Lazy"};
  par::ThreadPool pool(2);
  const BatchResult result = run_batch(pool, list_trace_files(dir_), options);
  const io::Json json = io::Json::parse(batch_to_json(result).dump());
  EXPECT_EQ(json.at("files").as_uint64(), 3u);
  EXPECT_EQ(json.at("algorithms").as_array().size(), 2u);
  EXPECT_EQ(json.at("entries").as_array().size(), 6u);
  EXPECT_EQ(json.at("replay_mismatches").as_uint64(), 0u);
}

}  // namespace
}  // namespace mobsrv::trace
