#include "workload.hpp"

#include <charconv>

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A coordinate in [-8, 8) on a 1/64 grid: exact in binary and short in
/// decimal, so the text the server parses is the double the replay uses.
double coord(const Workload& w, std::size_t tenant, std::uint32_t index, std::size_t request,
             int axis) {
  std::uint64_t h = splitmix(w.seed);
  h = splitmix(h ^ tenant);
  h = splitmix(h ^ index);
  h = splitmix(h ^ (request * 16 + static_cast<std::size_t>(axis)));
  return static_cast<double>(h % 1024) / 64.0 - 8.0;
}

void append_double(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

}  // namespace

std::vector<std::size_t> Workload::hot() const {
  std::vector<std::size_t> ids;
  for (std::size_t t = 0; t < tenants; t += hot_stride) ids.push_back(t);
  return ids;
}

Workload workload_from_args(const mobsrv::io::Args& args) {
  Workload w;
  w.transport = args.get_string("transport", w.transport);
  w.tenants = args.get_uint64("tenants", w.tenants);
  w.hot_stride = args.get_uint64("hot-stride", w.hot_stride);
  w.algorithm = args.get_string("algorithm", w.algorithm);
  w.dim = args.get_int("dim", w.dim);
  w.batch = args.get_uint64("batch", w.batch);
  w.lean = args.get_bool("lean", w.lean);
  w.server_threads = static_cast<unsigned>(args.get_uint64("server-threads", w.server_threads));
  w.window = args.get_uint64("window", w.window);
  w.closed_rate = args.get_double("closed-rate", w.closed_rate);
  w.open_rate = args.get_double("open-rate", w.open_rate);
  w.open_burst = args.get_uint64("open-burst", w.open_burst);
  w.checkpoint_every = args.get_uint64("checkpoint-every", w.checkpoint_every);
  w.churn_every = args.get_uint64("churn-every", w.churn_every);
  w.setup_reps = args.get_uint64("setup-reps", w.setup_reps);
  w.resume_reps = args.get_uint64("resume-reps", w.resume_reps);
  w.seed = args.get_uint64("seed", w.seed);
  MOBSRV_CHECK_MSG(w.transport == "pipe" || w.transport == "unix", "transport: pipe or unix");
  MOBSRV_CHECK_MSG(w.hot_stride >= 1 && w.tenants >= 1, "need tenants and a hot stride >= 1");
  MOBSRV_CHECK_MSG(w.window >= 1 && w.window <= kMaxInflight,
                   "the closed-loop window must fit under --max-inflight");
  MOBSRV_CHECK_MSG(w.setup_reps >= 1 && w.resume_reps >= 1, "need at least one setup/resume");
  MOBSRV_CHECK_MSG(w.open_rate > 0.0 && w.open_burst >= 1, "need a positive open-loop rate");
  MOBSRV_CHECK_MSG(w.closed_rate > 0.0, "need a positive closed-loop rate");
  return w;
}

std::string tenant_name(std::size_t tenant) { return "t" + std::to_string(tenant); }

std::string open_line(const Workload& w, std::size_t tenant) {
  std::string line = R"({"type":"open","v":1,"tenant":")";
  line += tenant_name(tenant);
  line += R"(","algorithm":")";
  line += w.algorithm;
  line += R"(","seed":)";
  line += std::to_string(tenant);
  line += R"(,"dim":)";
  line += std::to_string(w.dim);
  line += "}\n";
  return line;
}

void append_req_line(std::string& out, const Workload& w, std::size_t tenant,
                     std::uint32_t index) {
  out += R"({"type":"req","tenant":"t)";
  out += std::to_string(tenant);
  out += R"(","batch":[)";
  for (std::size_t r = 0; r < w.batch; ++r) {
    if (r != 0) out += ',';
    out += '[';
    for (int a = 0; a < w.dim; ++a) {
      if (a != 0) out += ',';
      append_double(out, coord(w, tenant, index, r, a));
    }
    out += ']';
  }
  out += "]}\n";
}

mobsrv::sim::RequestBatch make_batch(const Workload& w, std::size_t tenant, std::uint32_t index) {
  mobsrv::sim::RequestBatch batch;
  batch.requests.reserve(w.batch);
  for (std::size_t r = 0; r < w.batch; ++r) {
    mobsrv::sim::Point p(w.dim);
    for (int a = 0; a < w.dim; ++a) p[a] = coord(w, tenant, index, r, a);
    batch.requests.push_back(p);
  }
  return batch;
}

std::vector<std::string> server_args(const Workload& w, bool resume) {
  std::vector<std::string> args = {
      "--threads=" + std::to_string(w.server_threads),
      "--max-inflight=" + std::to_string(kMaxInflight),
      "--snapshot=state.msrvss",
      "--no-durable",
  };
  if (w.lean) args.emplace_back("--lean");
  if (w.transport == "unix") args.emplace_back("--unix=s.sock");
  if (resume) args.emplace_back("--resume");
  return args;
}

}  // namespace perfbench
