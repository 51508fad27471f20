/// \file perf_engine.cpp
/// Engine microbenchmarks: the `mobsrv_perf` binary.
///
/// Measures steps/second of the simulation core and pins the SoA refactor's
/// speedup to a number:
///   * engine/aos_baseline     — a frozen copy of the PRE-refactor inner loop
///                               (vector<RequestBatch> of 72-byte Points,
///                               Point-arithmetic service costs);
///   * engine/session_soa      — sim::Session streaming BatchViews over the
///                               flat RequestStore (the current hot path);
///   * engine/run_wrapper      — sim::run(), showing the wrapper adds nothing;
///   * mux/drain               — core::SessionMultiplexer throughput over
///                               many concurrent sessions;
///   * fleet/copy_baseline     — a frozen copy of the pre-redesign k-server
///                               loop (per-step servers-vector copy in the
///                               step view, decide() returning a fresh
///                               vector);
///   * fleet/session           — the unified fleet Session (span-based
///                               FleetStepView, in-place proposals): the
///                               k-server hot loop after the redesign.
///   * solver/descent_aos_baseline — a frozen copy of the PRE-refactor
///                               convex-descent offline solver (AoS
///                               vector<Point> trajectories, Point-temporary
///                               gradient math, fresh clamp/cost vectors per
///                               iteration);
///   * solver/descent_soa      — the same solve on flat TrajectoryStore
///                               buffers with dimension-specialized kernels
///                               and a zero-allocation iteration loop;
///   * solver/grid_dp          — the 1-D DP oracle (flat request scan,
///                               caller-owned service-cost scratch);
///   * serve/ingest            — the live-ingestion soak: an NDJSON script
///                               (opens, interleaved req frames, shutdown)
///                               pushed end-to-end through serve::Service —
///                               frame parsing, tenant routing, mux stepping
///                               and outcome emission all on the clock.
///   * serve/pipe_ingest       — the same soak through serve::serve_fds
///                               over a real pipe fed by a writer thread
///                               (the fd transport mobsrv_serve runs), with
///                               the Service built off the clock.
///   * obs/overhead            — the telemetry overhead gate: the same mux
///                               drain stepped one round at a time with
///                               per-round timing on (lean:0) and off
///                               (lean:1); the acceptance bar is lean:0
///                               within 2% of lean:1.
///   * serve/ingest_p99        — the ingest soak with full telemetry
///                               (lean=false); reports the accept->outcome
///                               ingest-latency p50/p99 from the service's
///                               own serve.ingest_latency_ns histogram.
///   * engine/step_latency     — sim::Session with the RunOptions
///                               step_latency hook attached: per-push wall
///                               time from the histogram the engine fills.
///   * mux/soak_1m_uniform     — a frozen copy of the pre-active-set
///                               scheduler at soak population (10^5 smoke,
///                               10^6 full; 1% hot): every round sweeps every
///                               open slot to find the few with work.
///   * mux/soak_1m_active      — the same soak on the intrusive ready list:
///                               parked slots cost nothing, rounds are
///                               O(active). Acceptance: >= 5x the uniform
///                               row's steps/sec. Also reports round-latency
///                               p50/p99 from a bench-side histogram.
///   * mux/soak_1m_ckpt        — the soak with incremental checkpoints: the
///                               dirty slots are encoded and mark_saved()
///                               every few rounds; ckpt_bytes is the encode
///                               throughput and dirty_per_save shows the
///                               save cost tracking progress, not population.
/// Each engine benchmark runs at dim 1, 2 and 8 so the dead-coordinate cost
/// of the AoS layout is visible: at dim 1 the old layout reads 72 bytes per
/// request for 8 useful ones. Solver benchmarks run at dim 1 and 2 (the
/// paper's embedding dimensions, where e11 lives); the acceptance bar for
/// the trajectory refactor is descent_soa/dim:1 >= 2x descent_aos_baseline.
///
///   mobsrv_perf                         # full measurement
///   mobsrv_perf --smoke                 # small workloads, short timings (CI)
///   mobsrv_perf --out=BENCH_perf.json   # also write google-benchmark JSON
///   mobsrv_perf --benchmark_filter=...  # forwarded to google-benchmark
///
/// The per-second `steps` counter is the comparison metric; the acceptance
/// bar for the refactor is session_soa/dim:1 >= 2x aos_baseline/dim:1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "core/mobsrv.hpp"
#include "fault/injector.hpp"
#include "io/cli.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"
#include "trace/checkpoint.hpp"

namespace {

using mobsrv::geo::Point;
namespace sim = mobsrv::sim;
namespace core = mobsrv::core;
namespace par = mobsrv::par;
namespace stats = mobsrv::stats;

// ---------------------------------------------------------------------------
// Frozen pre-refactor baseline. This reproduces the seed engine verbatim:
// AoS request storage, Point-temporary distance math in the service-cost
// accumulation, and virtual dispatch into the policy — so the comparison
// against sim::Session isolates the storage layout, not the harness.
// ---------------------------------------------------------------------------

struct AosWorkload {
  Point start;
  sim::ModelParams params;
  std::vector<sim::RequestBatch> steps;  // the old nested layout
};

struct AosPolicy {
  virtual ~AosPolicy() = default;
  virtual Point decide(const sim::RequestBatch& batch, const Point& server) = 0;
};

/// Never moves — the accounting loop dominates, which is what we measure.
struct AosLazy final : AosPolicy {
  Point decide(const sim::RequestBatch&, const Point& server) override { return server; }
};

double run_aos(const AosWorkload& workload, AosPolicy& policy) {
  const sim::ModelParams& params = workload.params;
  Point server = workload.start;
  double move_cost = 0.0, service_cost = 0.0;
  for (const sim::RequestBatch& batch : workload.steps) {
    const Point proposal = policy.decide(batch, server);
    move_cost += params.move_cost_weight * mobsrv::geo::distance(server, proposal);
    const Point& serve_from =
        params.order == sim::ServiceOrder::kMoveThenServe ? proposal : server;
    double s = 0.0;
    for (const auto& v : batch.requests) s += mobsrv::geo::distance(serve_from, v);
    service_cost += s;
    server = proposal;
  }
  return move_cost + service_cost;
}

// ---------------------------------------------------------------------------
// Shared workload generation (identical request streams for every variant).
// ---------------------------------------------------------------------------

AosWorkload make_workload(int dim, std::size_t horizon, std::size_t requests_per_step) {
  stats::Rng rng({0xBE7Cu, static_cast<std::uint64_t>(dim)});
  AosWorkload workload;
  workload.start = Point::zero(dim);
  workload.params.move_cost_weight = 4.0;
  workload.params.max_step = 1.0;
  workload.steps.resize(horizon);
  for (auto& step : workload.steps) {
    step.requests.reserve(requests_per_step);
    for (std::size_t i = 0; i < requests_per_step; ++i) {
      Point v(dim);
      for (int d = 0; d < dim; ++d) v[d] = rng.uniform(-10.0, 10.0);
      step.requests.push_back(v);
    }
  }
  return workload;
}

sim::Instance to_instance(const AosWorkload& workload) {
  return sim::Instance(workload.start, workload.params, workload.steps);
}

// ---------------------------------------------------------------------------
// Benchmarks. All report a per-second `steps` counter (engine rounds) and,
// for the engine loops, `requests` (distance evaluations).
// ---------------------------------------------------------------------------

struct Sizes {
  std::size_t horizon;
  std::size_t requests_per_step;
  std::size_t mux_sessions;
  std::size_t mux_horizon;
  std::size_t soak_sessions;
  std::size_t soak_horizon;
};

void set_throughput(benchmark::State& state, const Sizes& sizes) {
  const auto steps = static_cast<std::int64_t>(state.iterations() * sizes.horizon);
  state.counters["steps"] = benchmark::Counter(static_cast<double>(steps),
                                               benchmark::Counter::kIsRate);
  state.counters["requests"] = benchmark::Counter(
      static_cast<double>(steps) * static_cast<double>(sizes.requests_per_step),
      benchmark::Counter::kIsRate);
}

void BM_AosBaseline(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const AosWorkload workload = make_workload(dim, sizes.horizon, sizes.requests_per_step);
  AosLazy lazy;
  for (auto _ : state) benchmark::DoNotOptimize(run_aos(workload, lazy));
  set_throughput(state, sizes);
}

void BM_SessionSoa(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const sim::Instance instance =
      to_instance(make_workload(dim, sizes.horizon, sizes.requests_per_step));
  sim::RunOptions options;
  options.record_positions = false;  // a streaming tenant keeps no history
  for (auto _ : state) {
    mobsrv::alg::Lazy lazy;
    sim::Session session(instance.start(), instance.params(), lazy, options);
    for (std::size_t t = 0; t < instance.horizon(); ++t) session.push(instance.step(t));
    benchmark::DoNotOptimize(session.total_cost());
  }
  set_throughput(state, sizes);
}

void BM_RunWrapper(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const sim::Instance instance =
      to_instance(make_workload(dim, sizes.horizon, sizes.requests_per_step));
  for (auto _ : state) {
    mobsrv::alg::Lazy lazy;
    const sim::RunResult result = sim::run(instance, lazy);
    benchmark::DoNotOptimize(result.total_cost);
  }
  set_throughput(state, sizes);
}

void BM_MuxDrain(benchmark::State& state, Sizes sizes) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto workload = std::make_shared<const sim::Instance>(
      to_instance(make_workload(1, sizes.mux_horizon, 4)));
  par::ThreadPool pool(threads);
  for (auto _ : state) {
    core::SessionMultiplexer mux(pool);
    for (std::size_t s = 0; s < sizes.mux_sessions; ++s) {
      core::SessionSpec spec;
      spec.workload = workload;
      spec.algorithm = "Lazy";
      mux.add(std::move(spec));
    }
    mux.drain();
    benchmark::DoNotOptimize(mux.totals().total_cost);
  }
  const auto steps =
      static_cast<double>(state.iterations() * sizes.mux_sessions * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.mux_sessions);
}

// ---------------------------------------------------------------------------
// Fleet engine: frozen pre-redesign loop vs the unified fleet Session.
// The baseline reproduces the seed ext::run_multi engine verbatim — its step
// view OWNED a std::vector<Point> copy of the fleet and decide() returned a
// fresh vector, so every step paid two O(k) allocations/copies before any
// real work. The redesigned engine hands out spans and writes proposals in
// place; a parked fleet isolates exactly that overhead.
// ---------------------------------------------------------------------------

struct FrozenFleetView {
  std::size_t t = 0;
  sim::BatchView batch;
  std::vector<Point> servers;  // the old copying layout
  double speed_limit = 0.0;
  const sim::ModelParams* params = nullptr;
};

struct FrozenFleetPolicy {
  virtual ~FrozenFleetPolicy() = default;
  virtual std::vector<Point> decide(const FrozenFleetView& view) = 0;
};

struct FrozenFleetStatic final : FrozenFleetPolicy {
  std::vector<Point> decide(const FrozenFleetView& view) override { return view.servers; }
};

double run_frozen_fleet(const sim::Instance& instance, std::vector<Point> starts,
                        FrozenFleetPolicy& policy) {
  const sim::ModelParams& params = instance.params();
  const double limit = params.max_step;
  std::vector<Point> servers = std::move(starts);
  double move_cost = 0.0, service_cost = 0.0;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    FrozenFleetView view;
    view.t = t;
    view.batch = instance.step(t);
    view.servers = servers;  // the per-step copy the redesign removed
    view.speed_limit = limit;
    view.params = &params;
    std::vector<Point> proposals = policy.decide(view);
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const Point next = mobsrv::geo::move_toward(servers[i], proposals[i], limit);
      move_cost += params.move_cost_weight * mobsrv::geo::distance(servers[i], next);
      servers[i] = next;
    }
    service_cost += mobsrv::sim::nearest_service_cost({servers.data(), servers.size()},
                                                      instance.step(t));
  }
  return move_cost + service_cost;
}

std::vector<Point> fleet_starts(const sim::Instance& instance, int k) {
  std::vector<Point> starts;
  starts.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    Point p = instance.start();
    p[0] += static_cast<double>(i);
    starts.push_back(p);
  }
  return starts;
}

void BM_FleetCopyBaseline(benchmark::State& state, Sizes sizes) {
  const auto k = static_cast<int>(state.range(0));
  const sim::Instance instance =
      to_instance(make_workload(2, sizes.horizon, sizes.requests_per_step));
  const std::vector<Point> starts = fleet_starts(instance, k);
  FrozenFleetStatic parked;
  for (auto _ : state)
    benchmark::DoNotOptimize(run_frozen_fleet(instance, starts, parked));
  set_throughput(state, sizes);
}

void BM_FleetSession(benchmark::State& state, Sizes sizes) {
  const auto k = static_cast<int>(state.range(0));
  const sim::Instance instance =
      to_instance(make_workload(2, sizes.horizon, sizes.requests_per_step));
  const std::vector<Point> starts = fleet_starts(instance, k);
  sim::RunOptions options;
  options.policy = sim::SpeedLimitPolicy::kClamp;
  options.record_positions = false;
  for (auto _ : state) {
    mobsrv::ext::StaticServers parked;
    sim::Session session(starts, instance.params(), parked, options);
    for (std::size_t t = 0; t < instance.horizon(); ++t) session.push(instance.step(t));
    benchmark::DoNotOptimize(session.total_cost());
  }
  set_throughput(state, sizes);
}

// ---------------------------------------------------------------------------
// Offline solver: frozen pre-refactor convex descent vs the flat-buffer
// solver. The baseline reproduces the seed solver verbatim — trajectories as
// vector<Point> (72 bytes/position), Point-temporary arithmetic in the
// gradient/projection loops, and a fresh clamp vector + cost pass allocated
// every iteration — so the comparison isolates the trajectory storage
// refactor, not solver logic: both sides run the identical operation
// sequence (including the final reachability_lower_bound pass).
// tests/test_offline_parity.cpp freezes this same pre-refactor
// implementation and asserts the library solver reproduces it bit-
// identically.
// ---------------------------------------------------------------------------

namespace frozen_descent {

namespace med = mobsrv::med;
namespace opt = mobsrv::opt;
namespace geo = mobsrv::geo;

std::size_t serve_index(const sim::ModelParams& params, std::size_t t) {
  return params.order == sim::ServiceOrder::kMoveThenServe ? t + 1 : t;
}

std::vector<Point> chase_init(const sim::Instance& instance, bool damped) {
  std::vector<Point> x;
  x.reserve(instance.horizon() + 1);
  x.push_back(instance.start());
  const double m = instance.params().max_step;
  const double D = instance.params().move_cost_weight;
  std::vector<Point> reqs;
  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    const sim::BatchView batch = instance.step(t);
    if (batch.empty()) {
      x.push_back(x.back());
      continue;
    }
    batch.copy_to(reqs);
    const Point center = med::closest_center(reqs, x.back());
    double step = m;
    if (damped) {
      const double dist = geo::distance(x.back(), center);
      step = std::min(m, dist * std::min(1.0, static_cast<double>(reqs.size()) / D));
    }
    x.push_back(geo::move_toward(x.back(), center, step));
  }
  return x;
}

std::vector<Point> forward_clamp(const sim::Instance& instance, const std::vector<Point>& x) {
  std::vector<Point> y(x.size());
  y[0] = instance.start();
  const double m = instance.params().max_step;
  for (std::size_t t = 0; t + 1 < x.size(); ++t) y[t + 1] = geo::move_toward(y[t], x[t + 1], m);
  return y;
}

Point smooth_norm_grad(const Point& u, double mu) {
  return u / std::sqrt(u.norm2() + mu * mu);
}

void gradient(const sim::Instance& instance, const std::vector<Point>& x, double mu,
              std::vector<Point>& grad) {
  const auto& params = instance.params();
  const double D = params.move_cost_weight;
  for (auto& g : grad) g = Point::zero(instance.dim());

  for (std::size_t t = 0; t < instance.horizon(); ++t) {
    const Point move_grad = smooth_norm_grad(x[t + 1] - x[t], mu) * D;
    grad[t + 1] += move_grad;
    if (t > 0) grad[t] -= move_grad;

    const std::size_t s = serve_index(params, t);
    if (s == 0) continue;
    for (const Point v : instance.step(t)) grad[s] += smooth_norm_grad(x[s] - v, mu);
  }
}

void projection_sweeps(std::vector<Point>& x, double m, int sweeps) {
  const std::size_t n = x.size();
  for (int s = 0; s < sweeps; ++s) {
    for (std::size_t t = 0; t + 1 < n; ++t) {
      const double d = geo::distance(x[t], x[t + 1]);
      if (d <= m || d == 0.0) continue;
      const double excess = d - m;
      const Point dir = (x[t + 1] - x[t]) / d;
      if (t == 0) {
        x[t + 1] -= dir * excess;
      } else {
        x[t] += dir * (excess / 2.0);
        x[t + 1] -= dir * (excess / 2.0);
      }
    }
  }
}

double solve(const sim::Instance& instance, const opt::ConvexDescentOptions& options) {
  const double m = instance.params().max_step;
  const double mu = options.smoothing * m;

  double best_cost = 0.0;
  std::vector<Point> best_positions;
  if (instance.horizon() == 0) return 0.0;

  std::vector<std::vector<Point>> candidates;
  candidates.push_back(chase_init(instance, /*damped=*/false));
  candidates.push_back(chase_init(instance, /*damped=*/true));

  std::vector<Point> x;
  best_cost = std::numeric_limits<double>::infinity();
  for (auto& candidate : candidates) {
    std::vector<Point> feasible = forward_clamp(instance, candidate);
    const double cost =
        sim::trajectory_cost(instance, std::span<const Point>(feasible));
    if (cost < best_cost) {
      best_cost = cost;
      best_positions = std::move(feasible);
      x = std::move(candidate);
    }
  }

  const double r_max = static_cast<double>(instance.request_bounds().second);
  const double lipschitz = 2.0 * instance.params().move_cost_weight + r_max;

  std::vector<Point> grad(x.size(), Point::zero(instance.dim()));
  for (int k = 0; k < options.iterations; ++k) {
    gradient(instance, x, mu, grad);
    const double step =
        options.initial_step * m / (lipschitz * std::sqrt(static_cast<double>(k) + 1.0));
    for (std::size_t t = 1; t < x.size(); ++t) x[t] -= grad[t] * step;
    projection_sweeps(x, m, options.projection_sweeps);
    std::vector<Point> candidate = forward_clamp(instance, x);
    const double cost =
        sim::trajectory_cost(instance, std::span<const Point>(candidate));
    if (cost < best_cost) {
      best_cost = cost;
      best_positions = std::move(candidate);
    }
  }
  // The production solver ends every solve with this pass; charge it here
  // too so the benchmarked work is identical on both sides.
  benchmark::DoNotOptimize(opt::reachability_lower_bound(instance));
  return best_cost;
}

}  // namespace frozen_descent

/// Descent iterations per solve: enough for the step schedule and
/// improvement bookkeeping to matter, small enough that one solve is a
/// reasonable benchmark iteration at e11 scale (T = 512).
constexpr int kDescentIterations = 40;

void set_solver_throughput(benchmark::State& state, const Sizes& sizes, int iters_per_solve) {
  const auto steps = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(sizes.horizon) *
                     static_cast<std::int64_t>(iters_per_solve);
  state.counters["steps"] = benchmark::Counter(static_cast<double>(steps),
                                               benchmark::Counter::kIsRate);
  state.counters["requests"] = benchmark::Counter(
      static_cast<double>(steps) * static_cast<double>(sizes.requests_per_step),
      benchmark::Counter::kIsRate);
}

void BM_DescentAosBaseline(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const sim::Instance instance =
      to_instance(make_workload(dim, sizes.horizon, sizes.requests_per_step));
  mobsrv::opt::ConvexDescentOptions options;
  options.iterations = kDescentIterations;
  for (auto _ : state) benchmark::DoNotOptimize(frozen_descent::solve(instance, options));
  set_solver_throughput(state, sizes, kDescentIterations);
}

void BM_DescentSoa(benchmark::State& state, Sizes sizes) {
  const auto dim = static_cast<int>(state.range(0));
  const sim::Instance instance =
      to_instance(make_workload(dim, sizes.horizon, sizes.requests_per_step));
  mobsrv::opt::ConvexDescentOptions options;
  options.iterations = kDescentIterations;
  for (auto _ : state)
    benchmark::DoNotOptimize(mobsrv::opt::solve_convex_descent(instance, options).cost);
  set_solver_throughput(state, sizes, kDescentIterations);
}

void BM_GridDp(benchmark::State& state, Sizes sizes) {
  const sim::Instance instance =
      to_instance(make_workload(1, sizes.horizon, sizes.requests_per_step));
  for (auto _ : state)
    benchmark::DoNotOptimize(mobsrv::opt::solve_grid_dp_1d(instance).solution.cost);
  const auto steps = static_cast<std::int64_t>(state.iterations() * sizes.horizon);
  state.counters["steps"] = benchmark::Counter(static_cast<double>(steps),
                                               benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------------
// Service soak: the whole mobsrv_serve data path on the clock. One NDJSON
// script — tenant opens, interleaved req frames, shutdown — is built once;
// each iteration feeds it through a fresh serve::Service, so the measurement
// covers frame parsing, admission, per-tenant routing, mux stepping and
// outcome-frame emission end to end. Lean output keeps positions off the
// wire, matching a high-throughput deployment.
// ---------------------------------------------------------------------------

std::string make_ingest_script(std::size_t tenants, std::size_t steps_per_tenant, int dim) {
  stats::Rng rng({0x5E47Eu, static_cast<std::uint64_t>(dim)});
  std::ostringstream out;
  for (std::size_t s = 0; s < tenants; ++s)
    out << R"({"type":"open","v":1,"tenant":"t)" << s
        << R"(","algorithm":"Lazy","dim":)" << dim << R"(,"speed":1.5})" << '\n';
  for (std::size_t t = 0; t < steps_per_tenant; ++t) {
    for (std::size_t s = 0; s < tenants; ++s) {
      out << R"({"type":"req","tenant":"t)" << s << R"(","batch":[)";
      for (std::size_t r = 0; r < 4; ++r) {
        if (r > 0) out << ',';
        out << '[';
        for (int d = 0; d < dim; ++d) {
          if (d > 0) out << ',';
          out << rng.uniform(-10.0, 10.0);
        }
        out << ']';
      }
      out << "]}\n";
    }
  }
  out << R"({"type":"shutdown"})" << '\n';
  return out.str();
}

void BM_ServeIngest(benchmark::State& state, Sizes sizes) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const std::string script = make_ingest_script(tenants, sizes.mux_horizon, 2);
  std::uint64_t frames = 0;
  for (auto _ : state) {
    mobsrv::serve::ServiceOptions options;
    options.lean = true;
    mobsrv::serve::Service service(std::move(options));
    std::istringstream in(script);
    std::ostringstream out;
    const mobsrv::serve::ExitReason reason = service.run(in, out);
    if (reason != mobsrv::serve::ExitReason::kShutdown) state.SkipWithError("bad exit");
    frames += service.lines_seen();
    benchmark::DoNotOptimize(out.str().size());
  }
  const auto steps =
      static_cast<double>(state.iterations() * tenants * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["frames"] =
      benchmark::Counter(static_cast<double>(frames), benchmark::Counter::kIsRate);
  state.counters["tenants"] = static_cast<double>(tenants);
}

// The same soak through the fd transport mobsrv_serve runs: a writer thread
// pushes the script into a real pipe, Service::run reads it through
// serve::serve_fds and writes to /dev/null. The Service and the pipe are
// built outside the timed region. serve/ingest reads an istringstream,
// which always reports buffered input, so it never saw what a transport
// that cannot batch a burst costs; this row does. The in-flight cap is
// lifted to the whole horizon so every req is accepted however the reads
// split the script.
void BM_ServePipeIngest(benchmark::State& state, Sizes sizes) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const std::string script = make_ingest_script(tenants, sizes.mux_horizon, 2);
  const int sink = ::open("/dev/null", O_WRONLY);
  std::uint64_t outcomes = 0;
  std::uint64_t flushes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mobsrv::serve::ServiceOptions options;
    options.lean = true;
    options.max_inflight = sizes.mux_horizon;
    mobsrv::serve::Service service(std::move(options));
    int fds[2];
    if (::pipe(fds) != 0) {
      state.SkipWithError("pipe failed");
      break;
    }
    state.ResumeTiming();
    std::thread writer([&script, fd = fds[1]] {
      for (std::size_t done = 0; done < script.size();) {
        const ssize_t n = ::write(fd, script.data() + done, script.size() - done);
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
      ::close(fd);
    });
    const mobsrv::serve::ExitReason reason = mobsrv::serve::serve_fds(service, fds[0], sink);
    writer.join();
    ::close(fds[0]);
    if (reason != mobsrv::serve::ExitReason::kShutdown) state.SkipWithError("bad exit");
    outcomes += service.telemetry().outcomes.value();
    flushes += service.telemetry().flushes.value();
  }
  ::close(sink);
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(outcomes), benchmark::Counter::kIsRate);
  state.counters["outcomes_per_flush"] =
      static_cast<double>(outcomes) / static_cast<double>(std::max<std::uint64_t>(flushes, 1));
  state.counters["tenants"] = static_cast<double>(tenants);
}

// ---------------------------------------------------------------------------
// Telemetry rows (PR 7). obs/overhead is the 2% gate behind --lean's
// contract: the identical single-round drain with the per-round clock reads
// on (lean:0) and off (lean:1). Stepping one round at a time maximises the
// relative cost of the two obs::now_ns() calls per round, so the gate is
// conservative. serve/ingest_p99 and engine/step_latency reuse the
// obs::Histogram machinery the service itself runs, so the percentiles in
// BENCH_perf.json come from the production code path, not a bench-side
// timer.
// ---------------------------------------------------------------------------

void BM_ObsOverhead(benchmark::State& state, Sizes sizes) {
  const bool lean = state.range(0) != 0;
  const auto workload = std::make_shared<const sim::Instance>(
      to_instance(make_workload(1, sizes.mux_horizon, 4)));
  par::ThreadPool pool(1);
  for (auto _ : state) {
    core::SessionMultiplexer mux(pool);
    mux.set_timing_enabled(!lean);
    for (std::size_t s = 0; s < sizes.mux_sessions; ++s) {
      core::SessionSpec spec;
      spec.workload = workload;
      spec.algorithm = "Lazy";
      mux.add(std::move(spec));
    }
    while (mux.step(1) > 0) {
    }
    benchmark::DoNotOptimize(mux.totals().total_cost);
  }
  const auto steps =
      static_cast<double>(state.iterations() * sizes.mux_sessions * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.mux_sessions);
}

void BM_ServeIngestP99(benchmark::State& state, Sizes sizes) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  const std::string script = make_ingest_script(tenants, sizes.mux_horizon, 2);
  mobsrv::obs::Histogram ingest;
  for (auto _ : state) {
    mobsrv::serve::ServiceOptions options;
    options.lean = false;  // full telemetry: the clocked ingest path
    mobsrv::serve::Service service(std::move(options));
    std::istringstream in(script);
    std::ostringstream out;
    const mobsrv::serve::ExitReason reason = service.run(in, out);
    if (reason != mobsrv::serve::ExitReason::kShutdown) state.SkipWithError("bad exit");
    ingest.merge(service.telemetry().ingest_latency);
    benchmark::DoNotOptimize(out.str().size());
  }
  const auto steps =
      static_cast<double>(state.iterations() * tenants * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  const mobsrv::obs::HistogramSummary summary = ingest.summary();
  state.counters["p50_ns"] = static_cast<double>(summary.p50);
  state.counters["p99_ns"] = static_cast<double>(summary.p99);
  state.counters["tenants"] = static_cast<double>(tenants);
}

// The PR 10 gate: the fault hooks on the serve hot path (serve.read per
// input line, tenant.step per pump round, plus the persistence sites) must
// be free when no injector is armed. armed:0 runs with options.faults ==
// nullptr (the production default — one pointer test per site); armed:1
// wires an injector holding a rule that can never fire, so every hit pays
// the site lookup and rule walk. perf_diff.py pins armed:0 against the
// committed baseline; the armed:1 row documents the worst-case hook cost.
void BM_FaultHookOverhead(benchmark::State& state, Sizes sizes) {
  const bool armed = state.range(0) != 0;
  constexpr std::size_t kTenants = 8;
  const std::string script = make_ingest_script(kTenants, sizes.mux_horizon, 2);
  mobsrv::fault::Injector injector;
  if (armed) {
    mobsrv::fault::SiteRule rule;
    rule.site = mobsrv::fault::kSiteServeRead;
    rule.nth = std::numeric_limits<std::uint64_t>::max();  // inert: never fires
    injector.add_rule(rule);
  }
  for (auto _ : state) {
    mobsrv::serve::ServiceOptions options;
    options.lean = true;
    options.faults = armed ? &injector : nullptr;
    mobsrv::serve::Service service(std::move(options));
    std::istringstream in(script);
    std::ostringstream out;
    const mobsrv::serve::ExitReason reason = service.run(in, out);
    if (reason != mobsrv::serve::ExitReason::kShutdown) state.SkipWithError("bad exit");
    benchmark::DoNotOptimize(out.str().size());
  }
  const auto steps = static_cast<double>(state.iterations() * kTenants * sizes.mux_horizon);
  state.counters["steps"] = benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["armed"] = armed ? 1.0 : 0.0;
}

void BM_EngineStepLatency(benchmark::State& state, Sizes sizes) {
  const sim::Instance instance =
      to_instance(make_workload(1, sizes.horizon, sizes.requests_per_step));
  mobsrv::obs::Histogram latency;
  sim::RunOptions options;
  options.record_positions = false;
  options.step_latency = &latency;
  for (auto _ : state) {
    mobsrv::alg::Lazy lazy;
    sim::Session session(instance.start(), instance.params(), lazy, options);
    for (std::size_t t = 0; t < instance.horizon(); ++t) session.push(instance.step(t));
    benchmark::DoNotOptimize(session.total_cost());
  }
  set_throughput(state, sizes);
  const mobsrv::obs::HistogramSummary summary = latency.summary();
  state.counters["p50_ns"] = static_cast<double>(summary.p50);
  state.counters["p99_ns"] = static_cast<double>(summary.p99);
}

// ---------------------------------------------------------------------------
// Million-session soak (PR 8): sparse activity at population scale. One slot
// in a hundred is hot (soak_horizon pending steps); the other 99% sit open
// with nothing queued — the shape of a live multiplexer where most tenants
// are idle between bursts. Session construction is excluded from the clock
// (PauseTiming) so the rows compare scheduling, not setup.
// ---------------------------------------------------------------------------

constexpr std::size_t kSoakHotStride = 100;  // 1% of the population is hot
constexpr std::size_t kSoakSaveEvery = 32;   // rounds between incremental saves

struct SoakSources {
  AosWorkload hot;
  AosWorkload cold;
};

SoakSources make_soak_sources(std::size_t horizon) {
  // Hot sessions carry the whole soak horizon; cold ones are open with
  // nothing queued — a live multiplexer's idle tenants between bursts.
  // Single-request dim-1 steps keep the per-step engine work small, so the
  // rows measure the scheduler's visit cost, not distance arithmetic.
  return {make_workload(1, horizon, 1), make_workload(1, 0, 1)};
}

/// Every tenant owns its workload object, as in the live service — the
/// sweep's horizon check dereferences per-slot memory, exactly what the
/// pre-refactor scheduler paid on every visit.
std::shared_ptr<const sim::Instance> soak_instance(const SoakSources& sources, std::size_t s) {
  return std::make_shared<const sim::Instance>(
      to_instance(s % kSoakHotStride == 0 ? sources.hot : sources.cold));
}

std::size_t soak_steps(const Sizes& sizes) {
  return (sizes.soak_sessions / kSoakHotStride) * sizes.soak_horizon;
}

/// Frozen copy of the pre-refactor scheduler slot: the seed multiplexer kept
/// one of these per session — the full SessionSpec (tenant/algorithm
/// strings, workload pointer, start layout) plus engine and cursor — and
/// every round walked all of them, touching each slot's cachelines just to
/// discover `cursor == horizon`.
struct FrozenMuxSlot {
  core::SessionSpec spec;
  std::unique_ptr<mobsrv::alg::Lazy> algo;
  std::unique_ptr<sim::Session> session;
  std::string error;
  std::size_t cursor = 0;
  bool open = true;
};

std::vector<FrozenMuxSlot> make_frozen_soak(const SoakSources& sources, std::size_t sessions) {
  sim::RunOptions options;
  options.record_positions = false;
  std::vector<FrozenMuxSlot> slots(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    FrozenMuxSlot& slot = slots[s];
    slot.spec.tenant = "t" + std::to_string(s);
    slot.spec.algorithm = "Lazy";
    slot.spec.workload = soak_instance(sources, s);
    slot.algo = std::make_unique<mobsrv::alg::Lazy>();
    slot.session = std::make_unique<sim::Session>(
        slot.spec.workload->start(), slot.spec.workload->params(), *slot.algo, options);
  }
  return slots;
}

/// One pre-refactor round: visit every open slot, advance the ones with
/// pending steps. Returns how many advanced (0 = drained).
std::size_t frozen_uniform_round(std::vector<FrozenMuxSlot>& slots) {
  std::size_t advanced = 0;
  for (FrozenMuxSlot& slot : slots) {
    if (!slot.open || slot.cursor >= slot.spec.workload->horizon()) continue;
    slot.session->push(slot.spec.workload->step(slot.cursor));
    ++slot.cursor;
    ++advanced;
  }
  return advanced;
}

void fill_soak_mux(core::SessionMultiplexer& mux, const SoakSources& sources,
                   std::size_t sessions) {
  for (std::size_t s = 0; s < sessions; ++s) {
    core::SessionSpec spec;
    spec.workload = soak_instance(sources, s);
    spec.algorithm = "Lazy";
    mux.add(std::move(spec));
  }
}

void BM_MuxSoakUniform(benchmark::State& state, Sizes sizes) {
  const SoakSources sources = make_soak_sources(sizes.soak_horizon);
  double total = 0.0;
  std::vector<FrozenMuxSlot> slots;
  for (auto _ : state) {
    state.PauseTiming();
    slots = make_frozen_soak(sources, sizes.soak_sessions);
    state.ResumeTiming();
    while (frozen_uniform_round(slots) > 0) {
    }
    state.PauseTiming();
    for (const FrozenMuxSlot& slot : slots) total += slot.session->total_cost();
    slots.clear();  // teardown off the clock, like construction
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(total);
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(soak_steps(sizes)),
      benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.soak_sessions);
}

void BM_MuxSoakActive(benchmark::State& state, Sizes sizes) {
  const SoakSources sources = make_soak_sources(sizes.soak_horizon);
  par::ThreadPool pool(1);
  mobsrv::obs::Histogram round_latency;
  double total = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto mux = std::make_unique<core::SessionMultiplexer>(pool);
    fill_soak_mux(*mux, sources, sizes.soak_sessions);
    state.ResumeTiming();
    for (;;) {
      const std::uint64_t start = mobsrv::obs::now_ns();
      const std::size_t live = mux->step(1);
      round_latency.record(mobsrv::obs::now_ns() - start);
      if (live == 0) break;
    }
    state.PauseTiming();
    total += mux->totals().total_cost;
    mux.reset();  // teardown off the clock, like construction
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(total);
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(soak_steps(sizes)),
      benchmark::Counter::kIsRate);
  state.counters["sessions"] = static_cast<double>(sizes.soak_sessions);
  const mobsrv::obs::HistogramSummary summary = round_latency.summary();
  state.counters["p50_ns"] = static_cast<double>(summary.p50);
  state.counters["p99_ns"] = static_cast<double>(summary.p99);
}

void BM_MuxSoakCkpt(benchmark::State& state, Sizes sizes) {
  const SoakSources sources = make_soak_sources(sizes.soak_horizon);
  par::ThreadPool pool(1);
  std::uint64_t bytes = 0, saves = 0, dirty_records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto mux = std::make_unique<core::SessionMultiplexer>(pool);
    fill_soak_mux(*mux, sources, sizes.soak_sessions);
    // The base save is taken at admission and stays off the clock — the row
    // measures the incremental steady state, where only hot slots dirty.
    mux->mark_saved();
    std::vector<core::SessionCheckpointRecord> records;
    state.ResumeTiming();
    std::size_t round = 0;
    const auto save_dirty = [&] {
      records.clear();
      for (const std::size_t slot : mux->dirty_slots())
        records.push_back(mux->checkpoint_slot(slot));
      bytes += mobsrv::trace::encode_checkpoint(records).size();
      dirty_records += records.size();
      ++saves;
      mux->mark_saved();
    };
    while (mux->step(1) > 0)
      if (++round % kSoakSaveEvery == 0) save_dirty();
    save_dirty();
    state.PauseTiming();
    mux.reset();  // teardown off the clock, like construction
    state.ResumeTiming();
  }
  state.counters["steps"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(soak_steps(sizes)),
      benchmark::Counter::kIsRate);
  state.counters["ckpt_bytes"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
  state.counters["dirty_per_save"] =
      saves == 0 ? 0.0 : static_cast<double>(dirty_records) / static_cast<double>(saves);
  state.counters["sessions"] = static_cast<double>(sizes.soak_sessions);
}

// ---------------------------------------------------------------------------
// Scenario layer (PR 9): scenario files parsed + validated per second over
// the starter corpus, rendered to canonical text once up front. The
// per-second `steps` counter counts files, so perf_diff.py gates this row
// like every other.
// ---------------------------------------------------------------------------

void BM_ScenarioParseCorpus(benchmark::State& state) {
  std::vector<std::string> texts;
  for (const mobsrv::scenario::Scenario& sc : mobsrv::scenario::starter_corpus())
    texts.push_back(mobsrv::scenario::canonical_text(sc));
  std::size_t parsed = 0;
  for (auto _ : state) {
    for (const std::string& text : texts) {
      const mobsrv::scenario::Scenario sc = mobsrv::scenario::parse(text, "<perf>");
      benchmark::DoNotOptimize(sc.seed);
      ++parsed;
    }
  }
  state.counters["steps"] =
      benchmark::Counter(static_cast<double>(parsed), benchmark::Counter::kIsRate);
  state.counters["files"] = static_cast<double>(texts.size());
}

void print_usage(std::ostream& os) {
  os << "usage: mobsrv_perf [--smoke] [--out=PATH] [--benchmark_*...]\n"
        "  --smoke      small workloads + short timings (CI smoke artifact)\n"
        "  --out=PATH   write google-benchmark JSON to PATH\n";
}

}  // namespace

int main(int argc, char** argv) {
  const mobsrv::io::Args args(argc, argv);
  if (args.get_bool("help", false)) {
    print_usage(std::cout);
    return 0;
  }
  // The shared exit discipline: unknown flags, stray positionals and
  // malformed values ("--smoke=maybe") all exit 2 with a message.
  bool smoke = false;
  std::string out_path;
  try {
    mobsrv::io::require_known_flags(args, {"smoke", "out", "benchmark*"});
    mobsrv::io::require_no_positionals(args);
    smoke = args.get_bool("smoke", false);
    out_path = args.get_string("out", "");
  } catch (const mobsrv::ContractViolation& error) {
    return mobsrv::io::usage_error("mobsrv_perf", error.what(), print_usage);
  }
  std::vector<std::string> flags;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) flags.emplace_back(argv[i]);
  if (!out_path.empty()) {
    flags.push_back("--benchmark_out=" + out_path);
    flags.push_back("--benchmark_out_format=json");
  }

  // Full runs size the hot loop well past L2 so the AoS-vs-SoA comparison is
  // a memory-bandwidth statement, not a cache accident; smoke runs just
  // prove the binary and its JSON artifact end-to-end.
  const Sizes sizes =
      smoke ? Sizes{64, 16, 256, 16, 100'000, 256} : Sizes{512, 64, 2048, 64, 1'000'000, 1024};
  const double min_time = smoke ? 0.02 : 0.25;

  for (const int dim : {1, 2, 8}) {
    benchmark::RegisterBenchmark("engine/aos_baseline", BM_AosBaseline, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
    benchmark::RegisterBenchmark("engine/session_soa", BM_SessionSoa, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
    benchmark::RegisterBenchmark("engine/run_wrapper", BM_RunWrapper, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
  }
  for (const int k : {4, 16}) {
    benchmark::RegisterBenchmark("fleet/copy_baseline", BM_FleetCopyBaseline, sizes)
        ->Arg(k)
        ->ArgName("k")
        ->MinTime(min_time);
    benchmark::RegisterBenchmark("fleet/session", BM_FleetSession, sizes)
        ->Arg(k)
        ->ArgName("k")
        ->MinTime(min_time);
  }
  for (const int dim : {1, 2}) {
    benchmark::RegisterBenchmark("solver/descent_aos_baseline", BM_DescentAosBaseline, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
    benchmark::RegisterBenchmark("solver/descent_soa", BM_DescentSoa, sizes)
        ->Arg(dim)
        ->ArgName("dim")
        ->MinTime(min_time);
  }
  benchmark::RegisterBenchmark("solver/grid_dp", BM_GridDp, sizes)->MinTime(min_time);
  for (const int threads : {1, 4}) {
    benchmark::RegisterBenchmark("mux/drain", BM_MuxDrain, sizes)
        ->Arg(threads)
        ->ArgName("threads")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  for (const int tenants : {1, 32}) {
    benchmark::RegisterBenchmark("serve/ingest", BM_ServeIngest, sizes)
        ->Arg(tenants)
        ->ArgName("tenants")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  for (const int tenants : {1, 32}) {
    benchmark::RegisterBenchmark("serve/pipe_ingest", BM_ServePipeIngest, sizes)
        ->Arg(tenants)
        ->ArgName("tenants")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  for (const int lean : {0, 1}) {
    benchmark::RegisterBenchmark("obs/overhead", BM_ObsOverhead, sizes)
        ->Arg(lean)
        ->ArgName("lean")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  benchmark::RegisterBenchmark("serve/ingest_p99", BM_ServeIngestP99, sizes)
      ->Arg(8)
      ->ArgName("tenants")
      ->MinTime(min_time)
      ->UseRealTime();
  for (const int armed : {0, 1}) {
    benchmark::RegisterBenchmark("serve/fault_hook_overhead", BM_FaultHookOverhead, sizes)
        ->Arg(armed)
        ->ArgName("armed")
        ->MinTime(min_time)
        ->UseRealTime();
  }
  benchmark::RegisterBenchmark("engine/step_latency", BM_EngineStepLatency, sizes)
      ->Arg(1)
      ->ArgName("dim")
      ->MinTime(min_time);
  benchmark::RegisterBenchmark("mux/soak_1m_uniform", BM_MuxSoakUniform, sizes)
      ->MinTime(min_time)
      ->UseRealTime();
  benchmark::RegisterBenchmark("mux/soak_1m_active", BM_MuxSoakActive, sizes)
      ->MinTime(min_time)
      ->UseRealTime();
  benchmark::RegisterBenchmark("mux/soak_1m_ckpt", BM_MuxSoakCkpt, sizes)
      ->MinTime(min_time)
      ->UseRealTime();
  benchmark::RegisterBenchmark("scenario/parse_corpus", BM_ScenarioParseCorpus)
      ->MinTime(min_time);

  std::vector<char*> bench_argv{argv[0]};
  for (std::string& flag : flags) bench_argv.push_back(flag.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
