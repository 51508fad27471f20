#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "algorithms/registry.hpp"
#include "core/session_multiplexer.hpp"
#include "io/json.hpp"
#include "serve/frames.hpp"
#include "serve/snapshot.hpp"
#include "serve/tenant_table.hpp"
#include "sim/session.hpp"

namespace perfbench {

namespace {

using mobsrv::serve::TenantSpec;

TenantSpec parse_open(const Workload& w, std::size_t tenant) {
  std::string line = open_line(w, tenant);
  line.pop_back();  // the newline
  return mobsrv::serve::parse_client_frame(line).open;
}

/// A session built the way SessionMultiplexer builds a tenant's engine.
struct Reference {
  explicit Reference(const TenantSpec& spec)
      : algorithm(mobsrv::alg::make_fleet_algorithm(spec.algorithm, spec.seed)),
        session(spec.starts, spec.params, *algorithm, options(spec)) {}

  static mobsrv::sim::RunOptions options(const TenantSpec& spec) {
    mobsrv::sim::RunOptions o;
    o.speed_factor = spec.speed_factor;
    o.policy = spec.policy;
    o.record_positions = false;
    return o;
  }

  mobsrv::sim::FleetAlgorithmPtr algorithm;
  mobsrv::sim::Session session;
};

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

/// Clock overhead of one now_ns() pair, subtracted from every span.
double timer_overhead_ns() {
  std::vector<double> pairs;
  for (int i = 0; i < 10001; ++i) {
    const std::int64_t a = now_ns();
    pairs.push_back(static_cast<double>(now_ns() - a));
  }
  return percentile(pairs, 0.5);
}

/// Times calls into one layer: span samples (ns, clock overhead removed).
struct Spans {
  double overhead = 0.0;
  std::vector<double> ns;

  template <class F>
  decltype(auto) time(F&& f) {
    const std::int64_t a = now_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      ns.push_back(std::max(0.0, static_cast<double>(now_ns() - a) - overhead));
    } else {
      auto result = f();
      ns.push_back(std::max(0.0, static_cast<double>(now_ns() - a) - overhead));
      return result;
    }
  }
  [[nodiscard]] double sum() const { return std::accumulate(ns.begin(), ns.end(), 0.0); }
};

}  // namespace

std::vector<std::string> check_reference(const Workload& w,
                                         const std::vector<TenantLedger>& ledgers,
                                         unsigned threads) {
  std::vector<std::vector<std::string>> found(threads);
  auto check = [&](unsigned id) {
    for (std::size_t h = id; h < ledgers.size(); h += threads) {
      const TenantLedger& ledger = ledgers[h];
      const std::string name = tenant_name(ledger.tenant);
      if (ledger.move.size() != ledger.accepted.size()) {
        found[id].push_back(name + ": " + std::to_string(ledger.move.size()) + " outcomes for " +
                            std::to_string(ledger.accepted.size()) + " accepted reqs");
        continue;
      }
      Reference ref(parse_open(w, ledger.tenant));
      double move = 0.0, service = 0.0;
      for (std::size_t t = 0; t < ledger.accepted.size(); ++t) {
        (void)ref.session.push(make_batch(w, ledger.tenant, ledger.accepted[t]));
        const double dm = ref.session.move_cost() - move;
        const double ds = ref.session.service_cost() - service;
        move = ref.session.move_cost();
        service = ref.session.service_cost();
        if (!same_bits(dm, ledger.move[t]) || !same_bits(ds, ledger.service[t])) {
          found[id].push_back(name + " step " + std::to_string(t) + ": server move/service " +
                              std::to_string(ledger.move[t]) + "/" +
                              std::to_string(ledger.service[t]) + ", replay " +
                              std::to_string(dm) + "/" + std::to_string(ds));
          break;
        }
      }
      if (!ledger.move.empty() && (!same_bits(move, ledger.move_total) ||
                                   !same_bits(service, ledger.service_total) ||
                                   !same_bits(ref.session.total_cost(), ledger.total)))
        found[id].push_back(name + ": final totals differ from the replay");
    }
  };
  auto worker = [&](unsigned id) {
    try {
      check(id);
    } catch (const std::exception& error) {
      found[id].push_back(std::string("reference replay failed: ") + error.what());
    }
  };
  std::vector<std::thread> pool;
  for (unsigned id = 1; id < threads; ++id) pool.emplace_back(worker, id);
  worker(0);
  for (std::thread& t : pool) t.join();
  std::vector<std::string> all;
  for (auto& f : found) all.insert(all.end(), f.begin(), f.end());
  return all;
}

std::vector<std::pair<std::string, double>> traced_replay(const Workload& w,
                                                          const std::string& rundir,
                                                          double budget_s,
                                                          const E2EResult& e2e) {
  namespace serve = mobsrv::serve;
  const double overhead = timer_overhead_ns();
  Spans admit{overhead, {}}, parse{overhead, {}}, dom{overhead, {}}, append{overhead, {}};
  Spans round{overhead, {}}, stats{overhead, {}}, format{overhead, {}}, engine{overhead, {}};
  Spans save{overhead, {}}, read{overhead, {}}, open_parse{overhead, {}}, opened{overhead, {}};
  std::vector<double> per_round, outcome_bytes, save_bytes;

  mobsrv::par::ThreadPool pool(w.server_threads);
  mobsrv::core::SessionMultiplexer mux(pool);
  mux.set_timing_enabled(!w.lean);
  serve::TenantTable table;

  // serve/tenant_table: admission, with the open frame's parse and the
  // `opened` echo around it, as handle_line/handle_open do it.
  for (std::size_t t = 0; t < w.tenants; ++t) {
    std::string open = open_line(w, t);
    open.pop_back();
    serve::ClientFrame frame = open_parse.time([&] { return serve::parse_client_frame(open); });
    serve::Tenant* tenant = admit.time([&] { return &table.admit(std::move(frame.open), mux); });
    (void)opened.time([&] { return serve::opened_frame(tenant->spec); });
  }

  // The closed-loop traffic: `group` reqs between pumps, round robin over
  // the hot tenants, as Service::handle_req and Service::pump do.
  const std::vector<std::size_t> hot = w.hot();
  std::vector<std::uint32_t> next(hot.size(), 0);
  std::vector<std::size_t> pending;
  std::size_t cursor = 0, outcomes = 0;
  std::string line;
  std::vector<mobsrv::core::SessionMultiplexer::SlotError> errors;

  auto feed = [&](std::size_t reqs) {
    for (std::size_t k = 0; k < reqs; ++k) {
      const std::size_t h = cursor++ % hot.size();
      line.clear();
      append_req_line(line, w, hot[h], next[h]++);
      line.pop_back();
      serve::ClientFrame frame = parse.time([&] { return serve::parse_client_frame(line); });
      (void)dom.time([&] { return mobsrv::io::Json::parse(line); });
      serve::Tenant* tenant = append.time([&] {
        serve::Tenant* found = table.find(frame.tenant);
        found->workload->push_step(frame.batch);
        return found;
      });
      const std::size_t queued = tenant->workload->horizon() - 1 - tenant->emitted;
      mux.poke(tenant->slot);
      mux.set_priority(tenant->slot, static_cast<double>(queued + 1));
      if (!tenant->pending) {
        tenant->pending = true;
        pending.push_back(tenant->slot);
      }
    }
  };
  auto pump = [&] {
    std::sort(pending.begin(), pending.end());
    while (!pending.empty()) {
      round.time([&] { return mux.step_capturing(1, errors); });
      if (!errors.empty()) throw std::runtime_error("traced replay: " + errors.front().message);
      std::size_t advanced = 0, keep = 0;
      for (const std::size_t slot : pending) {
        serve::Tenant* tenant = table.find_slot(slot);
        const mobsrv::core::SessionStats s = stats.time([&] { return mux.stats(slot); });
        if (s.steps > tenant->emitted) {
          const std::string frame = format.time([&] {
            return serve::outcome_frame(tenant->spec.tenant, s.steps - 1,
                                        s.move_cost - tenant->emitted_move,
                                        s.service_cost - tenant->emitted_service, s, w.lean);
          });
          outcome_bytes.push_back(static_cast<double>(frame.size() + 1));
          tenant->emitted = s.steps;
          tenant->emitted_move = s.move_cost;
          tenant->emitted_service = s.service_cost;
          ++advanced;
        }
        if (tenant->workload->horizon() > tenant->emitted)
          pending[keep++] = slot;
        else
          tenant->pending = false;
      }
      pending.resize(keep);
      per_round.push_back(static_cast<double>(advanced));
      outcomes += advanced;
    }
  };

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(budget_s * 0.6 * 1e9);
  // Outside --lean the server's own round count says how many sessions its
  // rounds advanced in the untraced run; the replay batches the same way.
  // Under --lean (no round clock) the transport decides: stdin pumps after
  // every line, socket intake hands a pump one req per hot tenant.
  double e2e_per_round = 0.0;
  for (const auto& [name, value] : e2e.metrics)
    if (name == "e2e.sessions_per_round") e2e_per_round = value;
  const std::size_t group = !w.lean && e2e_per_round >= 1.0
                                ? static_cast<std::size_t>(e2e_per_round + 0.5)
                            : w.transport == "pipe" ? 1
                                                    : hot.size();
  while (now_ns() < deadline) {
    feed(group);
    pump();
  }

  // sim/session: the same batches through one single-threaded Session per
  // tenant (the engine's share of a step, without the mux around it).
  const std::int64_t engine_deadline = now_ns() + static_cast<std::int64_t>(budget_s * 0.3 * 1e9);
  for (std::size_t h = 0; h < hot.size() && now_ns() < engine_deadline; ++h) {
    Reference ref(parse_open(w, hot[h]));
    for (std::uint32_t i = 0; i < next[h] && now_ns() < engine_deadline; ++i) {
      const mobsrv::sim::RequestBatch batch = make_batch(w, hot[h], i);
      engine.time([&] { return ref.session.push(batch); });
    }
  }

  // serve/snapshot: a base, then deltas after more traffic, then a read.
  const std::filesystem::path path = rundir + "/traced.msrvss";
  serve::SnapshotWriteOptions no_fsync;
  no_fsync.durable = false;
  {
    serve::SnapshotSegment base;
    for (const auto& tenant : table.entries()) {
      base.opened.push_back(tenant->spec);
      base.opened_slots.push_back(tenant->slot);
      base.record_slots.push_back(tenant->slot);
      base.records.push_back(mux.checkpoint_slot(tenant->slot));
    }
    save_bytes.push_back(static_cast<double>(
        save.time([&] { return serve::write_snapshot_base(path, base, no_fsync); })));
    mux.mark_saved();
  }
  const std::size_t delta_reqs = std::max<std::size_t>(
      w.checkpoint_every != 0 ? w.checkpoint_every : hot.size() * w.window, group);
  for (int d = 0; d < 8; ++d) {
    for (std::size_t fed = 0; fed < delta_reqs; fed += group) {
      feed(group);
      pump();
    }
    serve::SnapshotSegment delta;
    for (const std::size_t slot : mux.dirty_slots()) {
      delta.record_slots.push_back(slot);
      delta.records.push_back(mux.checkpoint_slot(slot));
    }
    save_bytes.push_back(static_cast<double>(
        save.time([&] { return serve::append_snapshot_delta(path, delta, no_fsync); })));
    mux.mark_saved();
  }
  for (int r = 0; r < 3; ++r) (void)read.time([&] { return serve::read_snapshot(path); });
  std::filesystem::remove(path);

  // Attribution: the library's self time per outcome against the untraced
  // run's wall time per step at saturation.
  const double steps = static_cast<double>(std::max<std::size_t>(1, outcomes));
  const double library_ns =
      (parse.sum() + append.sum() + round.sum() + stats.sum() + format.sum()) / steps;
  double setup_s = 0.0;
  for (const auto& [name, value] : e2e.metrics)
    if (name == "setup_s") setup_s = value;

  std::vector<std::pair<std::string, double>> m;
  m.emplace_back("frames.parse_ns", percentile(parse.ns, 0.5));
  m.emplace_back("json.dom_ns", percentile(dom.ns, 0.5));
  m.emplace_back("frames.format_ns", percentile(format.ns, 0.5));
  m.emplace_back("frames.outcome_bytes", mean(outcome_bytes));
  m.emplace_back("tenant_table.admit_ns", mean(admit.ns));
  m.emplace_back("frames.open_parse_ns", mean(open_parse.ns));
  m.emplace_back("frames.opened_format_ns", mean(opened.ns));
  m.emplace_back("tenant_table.append_ns", percentile(append.ns, 0.5));
  m.emplace_back("mux.round_p50_ns", percentile(round.ns, 0.5));
  m.emplace_back("mux.round_p99_ns", percentile(round.ns, 0.99));
  m.emplace_back("mux.sessions_per_round", mean(per_round));
  m.emplace_back("mux.stats_ns", percentile(stats.ns, 0.5));
  m.emplace_back("engine.step_ns", percentile(engine.ns, 0.5));
  m.emplace_back("snapshot.save_ms", percentile(save.ns, 0.5) * 1e-6);
  m.emplace_back("snapshot.bytes", percentile(save_bytes, 0.5));
  m.emplace_back("snapshot.read_ms", percentile(read.ns, 0.5) * 1e-6);
  m.emplace_back("library_ns_per_step", library_ns);
  m.emplace_back("unattributed_ns_per_step", e2e.ns_per_step - library_ns);
  m.emplace_back("engine.share_of_step", mean(engine.ns) / e2e.ns_per_step);
  m.emplace_back("tenant_table.admit_share_of_setup",
                 setup_s > 0.0 ? admit.sum() * 1e-9 / setup_s : 0.0);
  m.emplace_back("setup.library_share",
                 setup_s > 0.0 ? (open_parse.sum() + admit.sum() + opened.sum()) * 1e-9 / setup_s
                               : 0.0);
  m.emplace_back("replay.steps", steps);
  return m;
}

}  // namespace perfbench
