/// \file workload.hpp
/// A perfbench workload: the traffic mix one run drives through
/// mobsrv_serve, and the deterministic generator behind it.
///
/// Every request coordinate is a pure function of (seed, tenant, step
/// index, request, axis), so the load generator, the reference replay and
/// the traced replay all see the same batches without storing them. The
/// server only ever receives the generated frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/args.hpp"
#include "sim/model.hpp"

namespace perfbench {

/// mobsrv_serve --max-inflight for every workload: room for the closed-loop
/// windows and for open-loop bursts after a host stall, so no req bounces.
inline constexpr std::size_t kMaxInflight = 256;
/// Reqs per hot tenant sent after the last checkpoint; each --resume must
/// reproduce their outcomes.
inline constexpr std::size_t kTailSteps = 8;

struct Workload {
  std::string transport = "pipe";  ///< "pipe" (stdin/stdout) or "unix"
  std::size_t tenants = 16;
  /// Every hot_stride-th tenant sends requests; the rest stay parked.
  std::size_t hot_stride = 1;
  std::string algorithm = "Lazy";
  int dim = 1;
  std::size_t batch = 1;  ///< requests per `req` frame
  bool lean = true;
  unsigned server_threads = 1;
  std::size_t window = 16;  ///< closed loop: outstanding reqs per hot tenant
  /// Closed loop: the rate its fixed work is sized for, about the
  /// saturation rate of the program this benchmark was added to. The phase
  /// sends closed_rate * seconds / 2 reqs, split evenly over the hot
  /// tenants, however fast the server is, so every run leaves the server in
  /// the same state (memory, snapshot chain, what a --resume restores) and
  /// only the time the work takes changes.
  double closed_rate = 10000.0;
  double open_rate = 1000.0;  ///< open loop: req frames per second
  std::size_t open_burst = 1;  ///< open loop: reqs sent together per burst
  /// Closed loop: send a `checkpoint` frame every N outcomes (0 = never).
  std::size_t checkpoint_every = 0;
  /// Closed loop: close and reopen a cold tenant every N outcomes (0 = never).
  std::size_t churn_every = 0;
  std::size_t setup_reps = 5;   ///< server starts per run (setup_s is their median)
  std::size_t resume_reps = 3;  ///< kill -> --resume cycles per run
  std::uint64_t seed = 1;

  [[nodiscard]] std::vector<std::size_t> hot() const;
  [[nodiscard]] bool is_hot(std::size_t tenant) const { return tenant % hot_stride == 0; }
};

/// Reads the workload from `--name=value` flags (run.py passes the
/// perfbench/workloads.json entry this way).
[[nodiscard]] Workload workload_from_args(const mobsrv::io::Args& args);

[[nodiscard]] std::string tenant_name(std::size_t tenant);
[[nodiscard]] std::string open_line(const Workload& w, std::size_t tenant);
/// Appends the `req` frame (with its newline) for step \p index of \p tenant.
void append_req_line(std::string& out, const Workload& w, std::size_t tenant,
                     std::uint32_t index);
[[nodiscard]] mobsrv::sim::RequestBatch make_batch(const Workload& w, std::size_t tenant,
                                                   std::uint32_t index);

/// mobsrv_serve flags for this workload (snapshot file and socket are
/// relative to the server's working directory).
[[nodiscard]] std::vector<std::string> server_args(const Workload& w, bool resume);

}  // namespace perfbench
