/// \file main.cpp
/// perfbench_load — the benchmark's load generator and replays.
///
///   perfbench_load run --serve=BIN --rundir=DIR --seconds=S --trace=0|1
///                      --seed=N [workload flags]
///   perfbench_load calibrate --threads=N
///
/// `run` drives BIN (mobsrv_serve) through one workload (client.hpp),
/// checks every outcome against an in-process replay, and with --trace=1
/// adds the traced per-layer replay. `calibrate` times a fixed spin loop on
/// 1 and N threads. Both print one JSON object as their last line;
/// perfbench/run.py turns it into the benchmark's result.
#include <algorithm>
#include <iostream>
#include <thread>

#include "client.hpp"
#include "io/args.hpp"
#include "io/json.hpp"
#include "replay.hpp"

namespace {

using mobsrv::io::Json;

/// Seconds to run \p total spin iterations split over \p threads.
double spin_seconds(unsigned threads, std::uint64_t total) {
  const std::int64_t start = perfbench::now_ns();
  std::vector<std::thread> pool;
  std::vector<double> sink(threads * 8, 0.0);  // one cache line apart
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      double x = 1.0;
      for (std::uint64_t i = 0; i < total / threads; ++i) x = x * 1.0000001 + 1e-9;
      sink[t * 8] = x;
    });
  for (std::thread& t : pool) t.join();
  volatile double keep = sink[0];  // the loops' results stay observable
  (void)keep;
  return static_cast<double>(perfbench::now_ns() - start) * 1e-9;
}

int calibrate(const mobsrv::io::Args& args) {
  const auto threads = static_cast<unsigned>(args.get_uint64("threads", 4));
  constexpr std::uint64_t kSpin = 100'000'000;
  const double one = spin_seconds(1, kSpin);
  const double many = spin_seconds(threads, kSpin);
  Json doc = Json::object();
  doc.set("threads", threads);
  doc.set("spin_1_thread_s", one);
  doc.set("spin_n_threads_s", many);
  doc.set("spin_speedup", one / many);
  std::cout << doc.dump() << std::endl;
  return 0;
}

int run(const mobsrv::io::Args& args) {
  const perfbench::Workload w = perfbench::workload_from_args(args);
  const std::string rundir = args.get_string("rundir", "");
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;

  perfbench::E2EResult e2e = perfbench::run_e2e(w, args.get_string("serve", ""), rundir, seconds);
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (std::string& problem : perfbench::check_reference(w, e2e.ledgers, cpus))
    e2e.problems.push_back(std::move(problem));

  Json report = Json::object();
  report.set("correct", e2e.problems.empty());
  Json problems = Json::array();
  for (const std::string& p : e2e.problems) problems.push_back(p);
  report.set("problems", std::move(problems));
  report.set("attempted", e2e.attempted);
  report.set("failed", e2e.failed);
  Json metrics = Json::object();
  for (const auto& [name, value] : e2e.metrics) metrics.set(name, value);
  if (trace)
    for (const auto& [name, value] :
         perfbench::traced_replay(w, rundir, std::min(seconds / 4.0, 3.0), e2e))
      metrics.set(name, value);
  report.set("metrics", std::move(metrics));
  std::cout << report.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const mobsrv::io::Args args(argc, argv);
  const std::string command = args.positionals().empty() ? "" : args.positionals().front();
  try {
    if (command == "run") return run(args);
    if (command == "calibrate") return calibrate(args);
    std::cerr << "usage: perfbench_load run|calibrate [flags]\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_load: " << error.what() << "\n";
    return 1;
  }
}
