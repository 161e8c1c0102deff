// s2t_batch: one client session on an in-process service::Server repeats
// SELECT S2T_MEMBERS over a static aircraft MOD (the paper's Scenario 1)
// in a closed loop. Almost all of the time is the S2T pipeline; there is
// no wire, shard, WAL or ReTraTree work.

#include <algorithm>
#include <array>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/s2t_clustering.h"
#include "datagen/aircraft.h"
#include "exec/exec_context.h"
#include "service/client_session.h"
#include "service/server.h"
#include "sql/parser.h"
#include "sql/statement_executor.h"

namespace hermesbench {

namespace {

using namespace hermes;

// One statement takes roughly 50-150 ms at four threads on a 4-core box.
constexpr size_t kFlights = 200;
constexpr double kSigma = 1500.0;
constexpr double kEpsilon = 3000.0;
constexpr size_t kFleets = 16;
constexpr size_t kSetups = 9;
// Time slices the figures are medians over (about 60 statements each).
constexpr size_t kSlices = 5;

/// The S2T phases in pipeline order: span name, metric, timing field.
struct Phase {
  const char* span;
  const char* metric;
  int64_t core::S2TTimings::*us;
};
constexpr std::array<Phase, 7> kPhases = {{
    {"arena_build", "s2t.arena_ms", &core::S2TTimings::arena_build_us},
    {"index_build", "s2t.index_build_ms", &core::S2TTimings::index_build_us},
    {"voting_probe", "s2t.voting_probe_ms",
     &core::S2TTimings::voting_probe_us},
    {"voting_kernel", "s2t.voting_kernel_ms",
     &core::S2TTimings::voting_kernel_us},
    {"segmentation", "s2t.segmentation_ms",
     &core::S2TTimings::segmentation_us},
    {"sampling", "s2t.sampling_ms", &core::S2TTimings::sampling_us},
    {"clustering", "s2t.clustering_ms", &core::S2TTimings::clustering_us},
}};

std::string ModName(size_t k) { return "flights" + std::to_string(k); }

/// The rows S2T_MEMBERS returns for `r`: members cluster by cluster, then
/// outliers with a NULL cluster id.
std::vector<std::vector<sql::Value>> MemberRows(const core::S2TResult& r) {
  std::vector<std::vector<sql::Value>> rows;
  auto add = [&](sql::Value cluster, size_t sub_index) {
    const traj::SubTrajectory& sub = r.sub_trajectories[sub_index];
    rows.push_back({std::move(cluster),
                    sql::Value::Int(static_cast<int64_t>(sub.object_id)),
                    sql::Value::Double(sub.StartTime()),
                    sql::Value::Double(sub.EndTime()),
                    sql::Value::Int(static_cast<int64_t>(sub.points.size()))});
  };
  for (size_t ci = 0; ci < r.clustering.clusters.size(); ++ci) {
    for (size_t m : r.clustering.clusters[ci].members) {
      add(sql::Value::Int(static_cast<int64_t>(ci)), m);
    }
  }
  for (size_t o : r.clustering.outliers) add(sql::Value::Null(), o);
  return rows;
}

struct Deployment {
  std::unique_ptr<service::Server> server;
  std::unique_ptr<sql::StatementExecutor> session;
};

/// Starts a server holding copies of `fleets`, opens one session and sets
/// its threads; appends the time this took (not the copies) to `setup_s`.
StatusOr<Deployment> SetUp(const std::vector<traj::TrajectoryStore>& fleets,
                           const std::string& set_threads,
                           std::vector<double>* setup_s) {
  std::vector<traj::TrajectoryStore> copies = fleets;
  Deployment d;
  const int64_t t0 = NowNs();
  HERMES_ASSIGN_OR_RETURN(d.server,
                          service::Server::Start(service::ServerOptions()));
  for (size_t k = 0; k < copies.size(); ++k) {
    HERMES_RETURN_NOT_OK(
        d.server->RegisterStore(ModName(k), std::move(copies[k])));
  }
  d.session = service::MakeStatementExecutor(d.server->Connect());
  HERMES_RETURN_NOT_OK(d.session->Execute(set_threads).status());
  setup_s->push_back((NowNs() - t0) / 1e9);
  return d;
}

}  // namespace

int RunS2tBatch(const Args& args, Report* report, Tracer* tracer) {
  // Independent fleets from sub-seeds of the run's seed; statements
  // rotate over them, so a run's figures average over several inputs.
  std::vector<traj::TrajectoryStore> fleets;
  for (size_t k = 0; k < kFleets; ++k) {
    datagen::AircraftScenarioParams gp =
        datagen::AircraftScenarioParams::Default();
    gp.num_flights = kFlights;
    gp.sample_dt = 20.0;
    gp.seed = args.seed * kFleets + k;
    auto scenario = datagen::GenerateAircraftScenario(gp);
    if (!scenario.ok()) {
      std::cerr << "datagen: " << scenario.status().ToString() << "\n";
      return 1;
    }
    fleets.push_back(std::move(scenario->store));
  }
  const size_t threads = ClientThreads();
  const std::string set_threads =
      "SET hermes.threads = " + std::to_string(threads);

  // Set-up: server start, store registration, session open and thread
  // setting. The first deployment serves the run; more follow after it.
  std::vector<double> setup_s;
  std::vector<Deployment> deployments;
  auto set_up = [&] {
    auto d = SetUp(fleets, set_threads, &setup_s);
    if (!d.ok()) {
      std::cerr << "set-up: " << d.status().ToString() << "\n";
      return false;
    }
    deployments.push_back(std::move(*d));
    return true;
  };
  if (!set_up()) return 1;
  service::Server* server = deployments[0].server.get();
  sql::StatementExecutor* session = deployments[0].session.get();

  // Expected rows: the pipeline run directly on the same published
  // snapshot each statement reads.
  core::S2TParams params;
  params.SetSigma(kSigma).SetEpsilon(kEpsilon);
  const core::S2TClustering s2t(params);
  exec::ExecContext ctx(threads);
  std::vector<std::string> sqls;
  std::vector<std::vector<std::vector<sql::Value>>> expected;
  for (size_t k = 0; k < kFleets; ++k) {
    auto snapshot = server->SnapshotMod(ModName(k));
    auto direct = snapshot.ok() ? s2t.Run(**snapshot, &ctx)
                                : StatusOr<core::S2TResult>(snapshot.status());
    if (!direct.ok()) {
      std::cerr << "direct S2T: " << direct.status().ToString() << "\n";
      return 1;
    }
    expected.push_back(MemberRows(*direct));
    sqls.push_back("SELECT S2T_MEMBERS(" + ModName(k) + ", " + Exact(kSigma) +
                   ", " + Exact(kEpsilon) + ")");
    // Warm-up: the first statements pay allocator growth.
    (void)session->Execute(sqls.back());
  }

  std::vector<Sample> ops;
  std::vector<double> run_ms, overhead_ms, parse_us, snapshot_us;
  // Exact output counts per fleet, summed over the fleets when reported.
  std::vector<size_t> sub_trajectories(kFleets), clusters(kFleets),
      outliers(kFleets);
  std::vector<std::vector<double>> phase_ms(kPhases.size());
  const service::ServiceStats before = server->Stats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    const size_t k = i % kFleets;
    const std::string& sql = sqls[k];
    const uint64_t req = tracer->NewRequest();
    const int64_t t0 = NowNs();
    auto table = session->Execute(sql);
    const int64_t t1 = NowNs();
    const bool ok = table.ok();
    report->CountOp(ok);
    if (!ok) {
      std::cerr << "S2T_MEMBERS: " << table.status().ToString() << "\n";
      continue;
    }
    ops.push_back({t1, (t1 - t0) / 1e6});
    if (table->rows != expected[k]) {
      report->Fail(sql + ": rows differ from S2TClustering::Run (" +
                   std::to_string(table->rows.size()) + " vs " +
                   std::to_string(expected[k].size()) + " rows)");
    }
    if (!tracer->enabled()) continue;

    // Traced: replay each layer's public call on the same input.
    const uint64_t root =
        tracer->Record(0, req, "service", "S2T_MEMBERS", t0, t1);
    const int64_t p0 = NowNs();
    auto parsed = sql::ParseStatement(sql);
    const int64_t p1 = NowNs();
    tracer->Record(root, req, "sql", "ParseStatement", p0, p1);
    auto snap = server->SnapshotMod(ModName(k));
    const int64_t s1 = NowNs();
    tracer->Record(root, req, "service", "SnapshotMod", p1, s1);
    auto run = s2t.Run(**snap, &ctx);
    const int64_t r1 = NowNs();
    if (!parsed.ok() || !snap.ok() || !run.ok()) {
      report->Fail("traced replay failed");
      continue;
    }
    const uint64_t core_span =
        tracer->Record(root, req, "core", "S2TClustering::Run", s1, r1);
    // Phase spans come from the pipeline's own timings, laid end to end
    // inside the run's span.
    int64_t cursor = s1;
    for (size_t ph = 0; ph < kPhases.size(); ++ph) {
      const int64_t us = run->timings.*kPhases[ph].us;
      tracer->Record(core_span, req, "core", kPhases[ph].span, cursor,
                     cursor + us * 1000);
      cursor += us * 1000;
      phase_ms[ph].push_back(us / 1e3);
    }
    run_ms.push_back((r1 - s1) / 1e6);
    overhead_ms.push_back((t1 - t0) / 1e6 - (r1 - s1) / 1e6);
    parse_us.push_back((p1 - p0) / 1e3);
    snapshot_us.push_back((s1 - p1) / 1e3);
    sub_trajectories[k] = run->sub_trajectories.size();
    clusters[k] = run->NumClusters();
    outliers[k] = run->NumOutliers();
  }
  const int64_t end = NowNs();
  const service::ServiceStats after = server->Stats();

  const double p50 = SlicedQuantile(ops, start, end, kSlices, 0.5);
  report->Set("op_ms_p50", p50);
  report->Set("op_ms_tail", SlicedQuantile(ops, start, end, kSlices, 0.9));
  report->Set("throughput_per_s", SlicedRate(ops, start, end, kSlices));
  report->Set("peak_rss_mb", PeakRssMb());
  std::cerr << "s2t_batch: " << ops.size() << " statements in "
            << (end - start) / 1e9 << " s, p50 " << p50 << " ms\n";

  if (tracer->enabled()) {
    report->Set("trace.op_ms_p50", p50);
    report->Set("s2t.run_ms", Quantile(run_ms, 0.5));
    for (size_t ph = 0; ph < kPhases.size(); ++ph) {
      report->Set(kPhases[ph].metric, Quantile(phase_ms[ph], 0.5));
    }
    auto sum = [](const std::vector<size_t>& v) {
      return static_cast<double>(
          std::accumulate(v.begin(), v.end(), size_t{0}));
    };
    report->Set("s2t.sub_trajectories", sum(sub_trajectories));
    report->Set("s2t.clusters", sum(clusters));
    report->Set("s2t.outliers", sum(outliers));
    report->Set("sql.s2t_overhead_ms", Quantile(overhead_ms, 0.5));
    report->Set("sql.parse_us", Quantile(parse_us, 0.5));
    report->Set("service.snapshot_us", Quantile(snapshot_us, 0.5));
    report->Set("service.snapshots_published",
                static_cast<double>(after.snapshots_published -
                                    before.snapshots_published));
    report->Set("service.epoch_pins",
                static_cast<double>(after.epoch_pins - before.epoch_pins));
  }

  // The other set-ups run after the peak resident set is read, so the
  // deployments they keep do not count in it. Every deployment stays up
  // until the last has started: each set-up then takes fresh memory from
  // the system, as a server starting in a new process does, rather than
  // what the previous one freed (which made the figure bimodal).
  for (size_t i = 1; i < kSetups; ++i) {
    if (!set_up()) return 1;
  }
  report->Set("setup_s", Quantile(setup_s, 0.5));
  for (Deployment& d : deployments) {
    d.session.reset();
    d.server->Shutdown();
  }
  return 0;
}

}  // namespace hermesbench
