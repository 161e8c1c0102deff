// qut_stream: the paper's time-aware path under continuous ingest. An
// in-process service::Server (no WAL) holds half of an aircraft fleet with
// its shared ReTraTree built at set-up. One writer session streams the
// rest in start-time order, one multi-trajectory INSERT per batch followed
// by FLUSH, so every drain is one tree catch-up; three reader sessions run
// QUT in a closed loop, mostly over the most recent tenth of the ingested
// time domain and otherwise over historical windows of varied width.
//
// A run measures several such instances one after another, each on its own
// fleet from a sub-seed, for an equal share of the run's seconds; the
// figures pool all of them.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/qut_clustering.h"
#include "core/retratree.h"
#include "datagen/aircraft.h"
#include "exec/exec_context.h"
#include "service/client_session.h"
#include "service/server.h"
#include "sql/parser.h"
#include "sql/query_functions.h"
#include "sql/statement_executor.h"
#include "storage/env.h"

namespace hermesbench {

namespace {

using namespace hermes;

constexpr size_t kInstances = 6;
// Flights preloaded (their tree is built at set-up) and flights the writer
// may stream. Departures keep one density, 480 an hour, so a longer stream
// extends the time domain rather than crowding it. The stream is sized so
// that the writer cannot run out inside its share of the run at several
// times the ingest rate measured when this was written (see README.md); a
// writer that does run out fails the run.
constexpr size_t kPreload = 240;
constexpr size_t kStream = 1800;
constexpr double kDeparturesPerHour = 480.0;
constexpr size_t kBatch = 2;  // Trajectories per INSERT statement.
constexpr size_t kReaders = 3;
// QUT(D, Wi, We, tau, delta, t, d, gamma): 15-minute chunks of four
// sub-chunks over a ~1.4 h domain. A 1 km assignment radius sends many
// pieces to outlier buffers, so catch-ups run S2T re-clustering.
const std::vector<double> kTreeParams = {900.0, 225.0, 225.0, 1000.0, 64.0};
// Hot-tier budget, below the shared tree's hot footprint (see README.md):
// recent windows stay hot, the whole tree does not.
constexpr int64_t kHotBudget = 12 << 20;
constexpr double kRecentShare = 0.7;

std::string QutSql(double wi, double we) {
  std::string s = "SELECT QUT(flights, " + Exact(wi) + ", " + Exact(we);
  for (double p : kTreeParams) s += ", " + Exact(p);
  return s + ")";
}

std::string InsertSql(const traj::TrajectoryStore& store, size_t first,
                      size_t count) {
  std::string s = "INSERT INTO flights VALUES ";
  bool first_row = true;
  for (size_t i = first; i < first + count; ++i) {
    const traj::Trajectory& t = store.Get(static_cast<traj::TrajectoryId>(i));
    const std::string obj = std::to_string(t.object_id());
    for (const geom::Point3D& p : t.samples()) {
      s += first_row ? "(" : ", (";
      s += obj + ", " + Exact(p.t) + ", " + Exact(p.x) + ", " + Exact(p.y) +
           ")";
      first_row = false;
    }
  }
  return s;
}

/// One instance's inputs: the fleet in start-time order (object ids
/// renumbered in that order, so ascending id, which is how an INSERT
/// statement groups its rows, is start-time order too), its preload, and
/// the stream's INSERT statements.
struct Inputs {
  traj::TrajectoryStore fleet;
  traj::TrajectoryStore head;
  size_t preload = 0;
  double t_lo = 0, head_hi = 0;
  std::vector<std::string> inserts;
  std::vector<double> acked_hi;  // Ingested domain end after batch i.
};

StatusOr<Inputs> MakeInputs(uint64_t seed) {
  datagen::AircraftScenarioParams gp =
      datagen::AircraftScenarioParams::Default();
  gp.num_flights = kPreload + kStream;
  gp.sample_dt = 20.0;
  gp.time_span = 3600.0 * static_cast<double>(gp.num_flights) /
                 kDeparturesPerHour;
  gp.seed = seed;
  HERMES_ASSIGN_OR_RETURN(datagen::AircraftScenario scenario,
                          datagen::GenerateAircraftScenario(gp));
  const traj::TrajectoryStore& gen = scenario.store;
  std::vector<traj::TrajectoryId> order(gen.NumTrajectories());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<traj::TrajectoryId>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](traj::TrajectoryId a, traj::TrajectoryId b) {
                     return gen.Get(a).StartTime() < gen.Get(b).StartTime();
                   });
  Inputs in;
  for (traj::TrajectoryId id : order) {
    traj::Trajectory t = gen.Get(id);
    t.set_object_id(in.fleet.NumTrajectories());
    HERMES_RETURN_NOT_OK(in.fleet.Add(std::move(t)).status());
  }
  const size_t total = in.fleet.NumTrajectories();
  in.preload = kPreload;
  for (size_t i = 0; i < in.preload; ++i) {
    HERMES_RETURN_NOT_OK(
        in.head.Add(in.fleet.Get(static_cast<traj::TrajectoryId>(i))).status());
  }
  in.t_lo = in.fleet.TimeDomain().first;
  in.head_hi = in.head.TimeDomain().second;
  double hi = in.head_hi;
  for (size_t i = in.preload; i < total; i += kBatch) {
    const size_t n = std::min(kBatch, total - i);
    in.inserts.push_back(InsertSql(in.fleet, i, n));
    for (size_t j = i; j < i + n; ++j) {
      hi = std::max(hi,
                    in.fleet.Get(static_cast<traj::TrajectoryId>(j)).EndTime());
    }
    in.acked_hi.push_back(hi);
  }
  return in;
}

struct Deployment {
  std::unique_ptr<service::Server> server;
  std::unique_ptr<sql::StatementExecutor> writer;
  std::vector<std::unique_ptr<sql::StatementExecutor>> readers;
};

/// Starts a server holding `store`, opens the sessions, and builds the
/// shared tree with one QUT statement.
StatusOr<Deployment> StartServer(traj::TrajectoryStore store, size_t readers,
                                 double wi, double we) {
  Deployment d;
  service::ServerOptions opts;
  opts.threads = ClientThreads();
  opts.session_defaults.hot_index_budget = kHotBudget;
  HERMES_ASSIGN_OR_RETURN(d.server, service::Server::Start(std::move(opts)));
  HERMES_RETURN_NOT_OK(d.server->RegisterStore("flights", std::move(store)));
  d.writer = service::MakeStatementExecutor(d.server->Connect());
  for (size_t i = 0; i < readers; ++i) {
    d.readers.push_back(service::MakeStatementExecutor(d.server->Connect()));
  }
  HERMES_RETURN_NOT_OK(d.writer->Execute(QutSql(wi, we)).status());
  return d;
}

/// Figures pooled over the run's instances (and, per instance, over its
/// threads before they are merged).
struct Pool {
  std::vector<double> setup_s, read_ms, overlap_ms, idle_ms, eval_us,
      sql_overhead_us, parse_us, batch_ms, flush_ms, replay_ms, hot_bytes;
  /// Per-instance headline figures; the run reports their medians.
  std::vector<double> read_p50, read_p99, ingest_rate;
  size_t streamed = 0;
  int64_t writer_busy_ns = 0;
  /// Counter deltas summed over instances.
  std::map<std::string, double> counts;

  void Merge(const Pool& o) {
    for (auto [dst, src] :
         {std::pair{&read_ms, &o.read_ms}, {&overlap_ms, &o.overlap_ms},
          {&idle_ms, &o.idle_ms}, {&eval_us, &o.eval_us},
          {&sql_overhead_us, &o.sql_overhead_us}, {&parse_us, &o.parse_us},
          {&batch_ms, &o.batch_ms}, {&flush_ms, &o.flush_ms},
          {&replay_ms, &o.replay_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    streamed += o.streamed;
    writer_busy_ns += o.writer_busy_ns;
  }
};

/// Runs one instance for `seconds` and adds its figures to `pool`.
Status RunInstance(const Inputs& in, double seconds, uint64_t reader_seed,
                   Tracer* tracer, Report* report, Pool* pool) {
  traj::TrajectoryStore head = in.head;  // Input copy, not set-up work.
  const int64_t s0 = NowNs();
  HERMES_ASSIGN_OR_RETURN(Deployment srv, StartServer(std::move(head), kReaders,
                                                      in.t_lo, in.head_hi));
  pool->setup_s.push_back((NowNs() - s0) / 1e9);

  // Traced: a bench-owned copy of the shared tree, fed the same batches
  // through the public ReTraTree API.
  std::unique_ptr<storage::Env> shadow_env = storage::Env::NewMemEnv();
  exec::ExecContext shadow_ctx(ClientThreads());
  std::unique_ptr<core::ReTraTree> shadow;
  std::shared_mutex shadow_mu;
  if (tracer->enabled()) {
    HERMES_ASSIGN_OR_RETURN(
        shadow, core::ReTraTree::Open(shadow_env.get(), "shadow",
                                      sql::MakeQutTreeParams(kTreeParams),
                                      &shadow_ctx));
    shadow->SetHotIndexBudget(kHotBudget);
    HERMES_RETURN_NOT_OK(
        shadow->InsertBatch(in.fleet, &shadow_ctx, 0, in.preload));
  }

  std::atomic<size_t> batches_acked{0};
  std::atomic<uint64_t> flush_begun{0}, flush_ended{0};
  std::atomic<bool> stop_readers{false};
  std::vector<Pool> reader_pools(kReaders);
  Pool writer_pool;

  const service::ServiceStats before = srv.server->Stats();
  const core::ReTraTreeStats tree_before =
      shadow ? shadow->stats() : core::ReTraTreeStats();
  const core::ColdIoStats io_before =
      shadow ? shadow->cold_io_stats() : core::ColdIoStats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);

  std::thread writer([&] {
    Pool& w = writer_pool;
    for (size_t b = 0; b < in.inserts.size() && NowNs() < deadline; ++b) {
      const uint64_t req = tracer->NewRequest();
      flush_begun.fetch_add(1);
      const int64_t t0 = NowNs();
      auto ins = srv.writer->Execute(in.inserts[b]);
      const int64_t t1 = NowNs();
      auto flushed = srv.writer->Execute("FLUSH");
      const int64_t t2 = NowNs();
      flush_ended.fetch_add(1);
      report->CountOp(ins.ok());
      report->CountOp(flushed.ok());
      if (!ins.ok() || !flushed.ok()) {
        std::cerr << "ingest batch " << b << " failed\n";
        continue;
      }
      batches_acked.store(b + 1);
      const size_t first = in.preload + b * kBatch;
      const size_t n = std::min(kBatch, in.fleet.NumTrajectories() - first);
      w.writer_busy_ns += t2 - t0;
      w.streamed += n;
      w.batch_ms.push_back((t2 - t0) / 1e6);
      w.flush_ms.push_back((t2 - t1) / 1e6);
      if (!tracer->enabled()) continue;
      const uint64_t root =
          tracer->Record(0, req, "service", "INSERT+FLUSH", t0, t2);
      const int64_t p0 = NowNs();
      auto parsed = sql::ParseStatement(in.inserts[b]);
      const int64_t p1 = NowNs();
      tracer->Record(root, req, "sql", "ParseStatement", p0, p1);
      std::unique_lock<std::shared_mutex> lock(shadow_mu);
      const int64_t r0 = NowNs();
      Status st = shadow->InsertBatch(
          in.fleet, &shadow_ctx, static_cast<traj::TrajectoryId>(first), n);
      const int64_t r1 = NowNs();
      lock.unlock();
      if (!parsed.ok() || !st.ok()) {
        report->Fail("traced replay of batch " + std::to_string(b) +
                     " failed");
        continue;
      }
      tracer->Record(root, req, "core", "ReTraTree::InsertBatch", r0, r1);
      w.replay_ms.push_back((r1 - r0) / 1e6);
    }
    // Readers that outlive the stream would measure reads without ingest.
    if (NowNs() < deadline) {
      report->Fail("the writer streamed all " +
                   std::to_string(in.inserts.size()) +
                   " batches before its share ended; kStream is too small "
                   "for this ingest rate");
    }
  });

  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Pool& p = reader_pools[r];
      Rng rng(reader_seed * 1000003 + r);
      sql::StatementExecutor* session = srv.readers[r].get();
      while (!stop_readers.load()) {
        const size_t acked = batches_acked.load();
        const double hi = acked == 0 ? in.head_hi : in.acked_hi[acked - 1];
        const double span = hi - in.t_lo;
        double wi, we;
        if (rng.Uniform() < kRecentShare) {
          wi = hi - span / 10;
          we = hi;
        } else {
          const double width = span * (0.02 + 0.18 * rng.Uniform());
          wi = in.t_lo + (span - width) * rng.Uniform();
          we = wi + width;
        }
        const std::string sql = QutSql(wi, we);
        const uint64_t req = tracer->NewRequest();
        const uint64_t b0 = flush_begun.load(), e0 = flush_ended.load();
        const int64_t t0 = NowNs();
        auto table = session->Execute(sql);
        const int64_t t1 = NowNs();
        const bool overlapped = b0 != e0 || flush_begun.load() != b0;
        if (t1 > deadline) break;
        report->CountOp(table.ok());
        if (!table.ok()) {
          std::cerr << "QUT: " << table.status().ToString() << "\n";
          continue;
        }
        const double ms = (t1 - t0) / 1e6;
        p.read_ms.push_back(ms);
        (overlapped ? p.overlap_ms : p.idle_ms).push_back(ms);
        if (!tracer->enabled()) continue;
        const uint64_t root = tracer->Record(0, req, "service", "QUT", t0, t1);
        const int64_t p0 = NowNs();
        auto parsed = sql::ParseStatement(sql);
        const int64_t p1 = NowNs();
        tracer->Record(root, req, "sql", "ParseStatement", p0, p1);
        std::shared_lock<std::shared_mutex> lock(shadow_mu);
        const int64_t q0 = NowNs();
        auto cursor = sql::QutQuery(shadow.get(), wi, we, nullptr);
        const int64_t q1 = NowNs();
        auto direct = core::QuTClustering(shadow.get()).Query(wi, we);
        const int64_t q2 = NowNs();
        lock.unlock();
        if (!parsed.ok() || !cursor.ok() || !direct.ok()) {
          report->Fail("traced QUT replay failed");
          continue;
        }
        const uint64_t sql_span =
            tracer->Record(root, req, "sql", "sql::QutQuery", q0, q1);
        // QuTClustering::Query is the core of sql::QutQuery; its span is
        // laid inside the sql span with its measured duration.
        tracer->Record(sql_span, req, "core", "QuTClustering::Query", q0,
                       q0 + (q2 - q1));
        p.parse_us.push_back((p1 - p0) / 1e3);
        p.eval_us.push_back((q2 - q1) / 1e3);
        p.sql_overhead_us.push_back(((t1 - t0) - (q1 - q0)) / 1e3);
      }
    });
  }
  while (NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop_readers.store(true);
  for (auto& t : readers) t.join();
  writer.join();
  const service::ServiceStats after = srv.server->Stats();

  Pool instance;
  for (const Pool& p : reader_pools) instance.Merge(p);
  pool->read_p50.push_back(Quantile(instance.read_ms, 0.5));
  pool->read_p99.push_back(Quantile(instance.read_ms, 0.99));
  pool->ingest_rate.push_back(
      writer_pool.streamed / (std::max<int64_t>(writer_pool.writer_busy_ns, 1) / 1e9));
  pool->Merge(instance);
  pool->Merge(writer_pool);
  pool->hot_bytes.push_back(static_cast<double>(after.hot_index_bytes));
  auto count = [&](const char* name, uint64_t b, uint64_t a) {
    pool->counts[name] += static_cast<double>(a - b);
  };
  count("service.snapshots_published", before.snapshots_published,
        after.snapshots_published);
  count("service.epoch_pins", before.epoch_pins, after.epoch_pins);
  count("service.tree_catchups", before.tree_catchups, after.tree_catchups);
  count("qut.hot_probes", before.qut_hot_probes, after.qut_hot_probes);
  count("qut.cold_probes", before.qut_cold_probes, after.qut_cold_probes);
  count("qut.hot_promotions", before.hot_promotions, after.hot_promotions);
  count("qut.hot_demotions", before.hot_demotions, after.hot_demotions);
  if (shadow) {
    const core::ReTraTreeStats ts = shadow->stats();
    const core::ColdIoStats io = shadow->cold_io_stats();
    count("retratree.s2t_runs", tree_before.s2t_runs, ts.s2t_runs);
    count("retratree.pieces_inserted", tree_before.pieces_inserted,
          ts.pieces_inserted);
    count("retratree.records_written", tree_before.records_written,
          ts.records_written);
    pool->counts["ingest_split_us"] +=
        static_cast<double>(ts.ingest_split_us - tree_before.ingest_split_us);
    pool->counts["ingest_apply_us"] +=
        static_cast<double>(ts.ingest_apply_us - tree_before.ingest_apply_us);
    count("storage.heap_page_fetches", io_before.heap_page_fetches,
          io.heap_page_fetches);
    count("gist.index_nodes_visited", io_before.index_nodes_visited,
          io.index_nodes_visited);
    count("gist.index_page_fetches", io_before.index_page_fetches,
          io.index_page_fetches);
  }

  // Check: after the final FLUSH, QUT over fixed windows equals a fresh
  // server loaded with everything the writer streamed.
  traj::TrajectoryStore ingested;
  for (size_t i = 0; i < in.preload + writer_pool.streamed; ++i) {
    HERMES_RETURN_NOT_OK(
        ingested.Add(in.fleet.Get(static_cast<traj::TrajectoryId>(i)))
            .status());
  }
  const double hi = ingested.TimeDomain().second;
  const double span = hi - in.t_lo;
  std::vector<std::pair<double, double>> windows = {
      {in.t_lo, hi + 1}, {hi - span / 10, hi}};
  for (int k = 0; k < 4; ++k) {
    windows.push_back({in.t_lo + span * k / 4, in.t_lo + span * (k + 1) / 4});
  }
  auto fresh = StartServer(std::move(ingested), 0, in.t_lo, hi);
  if (!fresh.ok()) {
    report->Fail("fresh server: " + fresh.status().ToString());
  } else {
    for (const auto& [wi, we] : windows) {
      auto streamed = srv.writer->Execute(QutSql(wi, we));
      auto loaded = fresh->writer->Execute(QutSql(wi, we));
      if (!streamed.ok() || !loaded.ok() || streamed->rows != loaded->rows) {
        report->Fail("QUT(" + Exact(wi) + ", " + Exact(we) +
                     ") after streaming differs from a fresh load");
      }
    }
    fresh->writer.reset();
    fresh->server->Shutdown();
  }
  srv.readers.clear();
  srv.writer.reset();
  srv.server->Shutdown();
  return Status::OK();
}

}  // namespace

int RunQutStream(const Args& args, Report* report, Tracer* tracer) {
  Pool pool;
  const double share = args.seconds / kInstances;
  for (size_t k = 0; k < kInstances; ++k) {
    const uint64_t seed = args.seed * kInstances + k;
    auto in = MakeInputs(seed);
    Status st = in.ok() ? RunInstance(*in, share, seed, tracer, report, &pool)
                        : in.status();
    if (!st.ok()) {
      std::cerr << "qut_stream: " << st.ToString() << "\n";
      return 1;
    }
  }
  // Each figure is the median over instances, so one instance disturbed
  // by machine noise moves the run's figure little.
  const double p50 = Quantile(pool.read_p50, 0.5);
  const double ingest_rate = Quantile(pool.ingest_rate, 0.5);
  report->Set("setup_s", Quantile(pool.setup_s, 0.5));
  report->Set("op_ms_p50", p50);
  report->Set("op_ms_tail", Quantile(pool.read_p99, 0.5));
  report->Set("throughput_per_s", ingest_rate);
  report->Set("peak_rss_mb", PeakRssMb());
  std::cerr << "qut_stream: " << pool.read_ms.size() << " QUT reads (p50 "
            << p50 << " ms, p99 " << Quantile(pool.read_p99, 0.5) << " ms), "
            << pool.streamed << " trajectories streamed at " << ingest_rate
            << "/s; hot bytes p50 " << Quantile(pool.hot_bytes, 0.5) << "\n";

  if (tracer->enabled()) {
    report->Set("trace.op_ms_p50", p50);
    report->Set("flush_ms_p50", Quantile(pool.batch_ms, 0.5));
    report->Set("flush_ms_p90", Quantile(pool.batch_ms, 0.9));
    report->Set("service.flush_wait_ms", Quantile(pool.flush_ms, 0.5));
    report->Set("sql.parse_us", Quantile(pool.parse_us, 0.5));
    report->Set("sql.qut_overhead_us", Quantile(pool.sql_overhead_us, 0.5));
    report->Set("qut.eval_us", Quantile(pool.eval_us, 0.5));
    report->Set("qut.overlap_ms_p50", Quantile(pool.overlap_ms, 0.5));
    report->Set("qut.idle_ms_p50", Quantile(pool.idle_ms, 0.5));
    report->Set("qut.hot_index_bytes", Quantile(pool.hot_bytes, 0.5));
    const double hot = pool.counts["qut.hot_probes"];
    const double cold = pool.counts["qut.cold_probes"];
    report->Set("qut.hot_hit_ratio", hot + cold > 0 ? hot / (hot + cold) : 0);
    report->Set("retratree.insert_batch_ms", Quantile(pool.replay_ms, 0.5));
    const double batches =
        static_cast<double>(std::max<size_t>(pool.replay_ms.size(), 1));
    report->Set("retratree.ingest_split_ms",
                pool.counts["ingest_split_us"] / 1e3 / batches);
    report->Set("retratree.ingest_apply_ms",
                pool.counts["ingest_apply_us"] / 1e3 / batches);
    for (const auto& [name, value] : pool.counts) {
      if (name.find('.') != std::string::npos) report->Set(name, value);
    }
  }
  return 0;
}

}  // namespace hermesbench
