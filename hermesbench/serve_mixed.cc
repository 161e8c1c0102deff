// serve_mixed: the operator's serving path plus the durability path. A
// net::NetServer on loopback fronts a 2-shard shard::Coordinator with WAL
// and checkpoints on the real filesystem. Half of a maritime fleet is
// preloaded. Four connections: one open-loop writer sends one prepared
// INSERT per new ship at a fixed rate, FLUSH every kFlushEvery inserts and
// CHECKPOINT every kCheckpointEvery flushes; three closed-loop readers
// send prepared narrow-window RANGE, wide-window RANGE and STATS.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "datagen/maritime.h"
#include "net/client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "service/client_session.h"
#include "service/service_config.h"
#include "shard/coordinator.h"
#include "sql/parser.h"
#include "sql/statement_executor.h"
#include "storage/env.h"

namespace hermesbench {

namespace {

using namespace hermes;

constexpr size_t kPreloadShips = 500;
constexpr double kWriterRate = 40.0;  // Ships per second, open loop.
constexpr size_t kFlushEvery = 4;     // Inserts per FLUSH.
// The writer's p99 lateness may not exceed one period (1 s / kWriterRate).
constexpr double kMaxLateMs = 1e3 / kWriterRate;
// FLUSHes per CHECKPOINT. 28 inserts per checkpoint leave a WAL tail for
// the restart to replay at the usual window lengths (800 inserts in 20 s).
constexpr size_t kCheckpointEvery = 7;
constexpr size_t kShards = 2;
constexpr size_t kSetups = 9;
constexpr size_t kRestarts = 3;
// Time slices the read figures are medians over (2 s each at 20 s).
constexpr size_t kSlices = 10;
constexpr double kNarrowShare = 0.02;  // Window widths, share of the domain.
constexpr double kWideShare = 0.3;
// A point is (t, x, y) as three 8-byte doubles.
constexpr double kPointBytes = 24.0;

const char* const kReadSql[] = {"SELECT RANGE(ships, $1, $2)",
                                "SELECT RANGE(ships, $1, $2)",
                                "SELECT STATS(ships)"};
const char* const kReadName[] = {"RANGE narrow", "RANGE wide", "STATS"};
constexpr size_t kReaders = 3;

std::string InsertSql(size_t rows) {
  std::string s = "INSERT INTO ships VALUES ";
  for (size_t r = 0; r < rows; ++r) {
    s += r == 0 ? "(" : ", (";
    for (size_t c = 0; c < 4; ++c) {
      s += "$" + std::to_string(r * 4 + c + 1) + (c < 3 ? ", " : ")");
    }
  }
  return s;
}

std::vector<sql::Value> InsertBinds(const traj::Trajectory& t) {
  std::vector<sql::Value> binds;
  binds.reserve(t.size() * 4);
  for (const geom::Point3D& p : t.samples()) {
    binds.push_back(sql::Value::Int(static_cast<int64_t>(t.object_id())));
    binds.push_back(sql::Value::Double(p.t));
    binds.push_back(sql::Value::Double(p.x));
    binds.push_back(sql::Value::Double(p.y));
  }
  return binds;
}

service::ServiceConfig Config(const std::string& dir) {
  service::ServiceConfig c;
  c.shards = kShards;
  c.data_dir = dir + "/data";
  c.wal_dir = dir + "/wal";
  return c;
}

struct Deployment {
  std::unique_ptr<shard::Coordinator> coord;
  std::unique_ptr<net::NetServer> net;
  std::unique_ptr<sql::StatementExecutor> writer;
  std::vector<std::unique_ptr<sql::StatementExecutor>> readers;

  void Stop() {
    readers.clear();
    writer.reset();
    if (net) net->Shutdown();
    net.reset();
    if (coord) coord->Shutdown();
    coord.reset();
  }
};

/// Starts the coordinator over `dir`, registers the preload, starts the
/// listener, and connects the writer and the readers.
StatusOr<Deployment> StartDeployment(const std::string& dir,
                                     traj::TrajectoryStore preload) {
  Deployment d;
  service::ServiceConfig config = Config(dir);
  HERMES_ASSIGN_OR_RETURN(
      d.coord, shard::Coordinator::Start(config, storage::Env::Posix()));
  HERMES_RETURN_NOT_OK(d.coord->RegisterStore("ships", std::move(preload)));
  shard::Coordinator* coord = d.coord.get();
  HERMES_ASSIGN_OR_RETURN(
      d.net, net::NetServer::Start([coord] { return coord->Connect(); },
                                   net::MakeNetServerOptions(config)));
  const uint16_t port = d.net->port();
  HERMES_ASSIGN_OR_RETURN(auto writer, net::Client::Connect("127.0.0.1", port));
  d.writer = net::MakeStatementExecutor(std::move(writer));
  for (size_t i = 0; i < kReaders; ++i) {
    HERMES_ASSIGN_OR_RETURN(auto c, net::Client::Connect("127.0.0.1", port));
    d.readers.push_back(net::MakeStatementExecutor(std::move(c)));
  }
  return d;
}

/// Expected `RANGE` rows over the whole domain: (object id, points) in
/// ascending object id.
std::vector<std::vector<sql::Value>> ExpectedRange(
    const std::vector<const traj::Trajectory*>& ships) {
  std::vector<std::vector<sql::Value>> rows;
  for (const traj::Trajectory* t : ships) {
    rows.push_back({sql::Value::Int(static_cast<int64_t>(t->object_id())),
                    sql::Value::Int(static_cast<int64_t>(t->size()))});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a[0].AsInt() < b[0].AsInt();
                   });
  return rows;
}

/// Checks that `STATS` and a full-domain `RANGE` through `ex` account for
/// exactly `ships`.
void CheckContents(sql::StatementExecutor* ex,
                   const std::vector<const traj::Trajectory*>& ships,
                   double t_lo, double t_hi, const std::string& when,
                   Report* report) {
  size_t points = 0;
  for (const traj::Trajectory* t : ships) points += t->size();
  auto stats = ex->Execute("SELECT STATS(ships)");
  if (!stats.ok() || stats->rows.size() != 1 ||
      stats->rows[0][0] != sql::Value::Int(static_cast<int64_t>(ships.size())) ||
      stats->rows[0][1] != sql::Value::Int(static_cast<int64_t>(points))) {
    report->Fail(when + ": STATS does not account for " +
                 std::to_string(ships.size()) + " ships / " +
                 std::to_string(points) + " points" +
                 (stats.ok() ? "" : " (" + stats.status().ToString() + ")"));
  }
  auto range = ex->Execute("SELECT RANGE(ships, " + Exact(t_lo - 1) + ", " +
                           Exact(t_hi + 1) + ")");
  if (!range.ok() || range->rows != ExpectedRange(ships)) {
    report->Fail(when + ": full-domain RANGE does not return every ship");
  }
}

}  // namespace

int RunServeMixed(const Args& args, Report* report, Tracer* tracer) {
  datagen::MaritimeScenarioParams gp;
  // Enough ships for the writer to keep its rate for the whole window.
  const size_t stream_cap =
      static_cast<size_t>(kWriterRate * args.seconds * 1.2) + kFlushEvery;
  gp.num_ships = kPreloadShips + stream_cap;
  gp.sample_dt = 120.0;
  gp.seed = args.seed;
  auto scenario = datagen::GenerateMaritimeScenario(gp);
  if (!scenario.ok()) {
    std::cerr << "datagen: " << scenario.status().ToString() << "\n";
    return 1;
  }
  const traj::TrajectoryStore& fleet = scenario->store;
  traj::TrajectoryStore head;
  for (size_t i = 0; i < kPreloadShips; ++i) {
    (void)head.Add(fleet.Get(static_cast<traj::TrajectoryId>(i)));
  }
  const auto [t_lo, t_hi] = fleet.TimeDomain();
  std::vector<std::vector<sql::Value>> insert_binds;
  for (size_t i = kPreloadShips; i < fleet.NumTrajectories(); ++i) {
    insert_binds.push_back(
        InsertBinds(fleet.Get(static_cast<traj::TrajectoryId>(i))));
  }
  // Reader windows, drawn up front from the seed.
  Rng rng(args.seed * 7919 + 17);
  std::vector<std::vector<std::vector<sql::Value>>> read_binds(kReaders);
  for (size_t r = 0; r < 2; ++r) {
    const double width = (t_hi - t_lo) * (r == 0 ? kNarrowShare : kWideShare);
    for (int i = 0; i < 4096; ++i) {
      const double wi = t_lo + (t_hi - t_lo - width) * rng.Uniform();
      read_binds[r].push_back({sql::Value::Double(wi),
                               sql::Value::Double(wi + width)});
    }
  }
  read_binds[2].push_back({});

  const std::string root =
      std::string(kOutDir) + "/serve_mixed-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  // Set-up: coordinator and shard start (WAL recovery of an empty
  // directory), preload registration (WAL-logged), listener start and
  // connections; repeated on fresh directories, median reported.
  Deployment dep;
  std::vector<double> setup_s;
  std::string dir;
  for (size_t i = 0; i < kSetups; ++i) {
    dep.Stop();
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
    dir = root + "/setup" + std::to_string(i);
    std::filesystem::create_directories(dir, ec);
    traj::TrajectoryStore copy = head;
    const int64_t t0 = NowNs();
    auto started = StartDeployment(dir, std::move(copy));
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!started.ok()) {
      std::cerr << "set-up: " << started.status().ToString() << "\n";
      std::filesystem::remove_all(root, ec);
      return 1;
    }
    dep = std::move(*started);
  }
  report->Set("setup_s", Quantile(setup_s, 0.5));

  // Traced run: in-process coordinator and per-shard sessions replay each
  // read to split the wire, coordinator and shard time. They are closed
  // before the coordinator stops.
  struct Replay {
    std::unique_ptr<sql::StatementExecutor> coord;
    sql::PreparedHandle coord_handle;
    std::vector<std::unique_ptr<sql::StatementExecutor>> shards;
    std::vector<sql::PreparedHandle> shard_handles;
  };
  std::vector<Replay> replays(kReaders);
  auto stop = [&] {
    replays.clear();
    dep.Stop();
  };
  auto abandon = [&](const Status& st) {
    std::cerr << "serve_mixed: " << st.ToString() << "\n";
    stop();
    std::filesystem::remove_all(root, ec);
    return 1;
  };

  // Prepared statements (untimed): reads on every reader, one INSERT shape
  // per distinct point count on the writer.
  std::vector<sql::PreparedHandle> read_handles(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    auto h = dep.readers[r]->Prepare(kReadSql[r]);
    if (!h.ok()) return abandon(h.status());
    read_handles[r] = *h;
  }
  std::map<size_t, sql::PreparedHandle> insert_handles;
  for (const auto& b : insert_binds) {
    const size_t rows = b.size() / 4;
    if (insert_handles.count(rows) != 0) continue;
    auto h = dep.writer->Prepare(InsertSql(rows));
    if (!h.ok()) return abandon(h.status());
    insert_handles[rows] = *h;
  }

  if (tracer->enabled()) {
    for (size_t r = 0; r < kReaders; ++r) {
      replays[r].coord = dep.coord->Connect();
      auto h = replays[r].coord->Prepare(kReadSql[r]);
      if (!h.ok()) return abandon(h.status());
      replays[r].coord_handle = *h;
      for (size_t k = 0; k < kShards; ++k) {
        replays[r].shards.push_back(
            service::MakeStatementExecutor(dep.coord->shard(k)->Connect()));
        auto hs = replays[r].shards.back()->Prepare(kReadSql[r]);
        if (!hs.ok()) return abandon(hs.status());
        replays[r].shard_handles.push_back(*hs);
      }
    }
  }

  const shard::CoordinatorStats before = dep.coord->Stats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);

  // ---- Writer: open loop, timed from each request's due time. ----
  // The schedule: every insert due before the deadline.
  const double period_ns = 1e9 / kWriterRate;
  const size_t scheduled = static_cast<size_t>(
      std::ceil((deadline - start) / period_ns));
  std::vector<double> late_ms, flush_ms, flush_wait_ms, checkpoint_ms;
  size_t inserted = 0, sent_in_window = 0;
  double inserted_points = 0;
  std::thread writer([&] {
    size_t flushes = 0;
    for (size_t i = 0; i < insert_binds.size(); ++i) {
      const int64_t due = start + static_cast<int64_t>(i * period_ns);
      if (due >= deadline) break;
      while (NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      }
      const int64_t sent = NowNs();
      late_ms.push_back((sent - due) / 1e6);
      if (sent < deadline) ++sent_in_window;
      const size_t rows = insert_binds[i].size() / 4;
      auto ins = dep.writer->BindExecute(insert_handles[rows].id,
                                         insert_binds[i]);
      report->CountOp(ins.ok());
      if (!ins.ok()) {
        std::cerr << "INSERT: " << ins.status().ToString() << "\n";
        continue;
      }
      ++inserted;
      inserted_points += static_cast<double>(rows);
      if (inserted % kFlushEvery != 0) continue;
      const int64_t f0 = NowNs();
      Status flushed = dep.writer->Flush();
      const int64_t f1 = NowNs();
      report->CountOp(flushed.ok());
      if (!flushed.ok()) continue;
      flush_ms.push_back((f1 - due) / 1e6);
      flush_wait_ms.push_back((f1 - f0) / 1e6);
      if (++flushes % kCheckpointEvery != 0) continue;
      const int64_t c0 = NowNs();
      auto cp = dep.writer->Execute("CHECKPOINT");
      const int64_t c1 = NowNs();
      report->CountOp(cp.ok());
      if (cp.ok()) checkpoint_ms.push_back((c1 - c0) / 1e6);
    }
  });

  // ---- Readers: closed loop. ----
  std::vector<std::vector<Sample>> reads(kReaders);
  std::vector<std::vector<double>> rtt_us(kReaders),
      exec_us(kReaders), encode_us(kReaders), decode_us(kReaders),
      resp_bytes(kReaders), rows_merged(kReaders), parse_us(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      sql::StatementExecutor* ex = dep.readers[r].get();
      const auto& binds = read_binds[r];
      for (size_t i = 0;; ++i) {
        const std::vector<sql::Value>& b = binds[i % binds.size()];
        const uint64_t req = tracer->NewRequest();
        const int64_t t0 = NowNs();
        auto table = ex->BindExecute(read_handles[r].id, b);
        const int64_t t1 = NowNs();
        if (t1 > deadline) break;
        report->CountOp(table.ok());
        if (!table.ok()) {
          std::cerr << kReadName[r] << ": " << table.status().ToString()
                    << "\n";
          continue;
        }
        reads[r].push_back({t1, (t1 - t0) / 1e6});
        if (!tracer->enabled()) continue;

        Replay& rp = replays[r];
        const uint64_t wire =
            tracer->Record(0, req, "net", kReadName[r], t0, t1);
        const int64_t c0 = NowNs();
        auto merged = rp.coord->BindExecute(rp.coord_handle.id, b);
        const int64_t c1 = NowNs();
        // Shards run in parallel under the coordinator, so the slowest
        // shard is the one on the critical path.
        int64_t slowest = 0, s_start = c1;
        for (size_t k = 0; k < kShards; ++k) {
          const int64_t s0 = NowNs();
          auto part = rp.shards[k]->BindExecute(rp.shard_handles[k].id, b);
          const int64_t s1 = NowNs();
          if (!part.ok()) report->Fail("shard replay failed");
          if (s1 - s0 > slowest) {
            slowest = s1 - s0;
            s_start = s0;
          }
        }
        const int64_t p0 = NowNs();
        auto parsed = sql::ParseStatement(kReadSql[r]);
        const int64_t p1 = NowNs();
        std::string frame;
        net::AppendTableFrame(*table, &frame);
        const int64_t e1 = NowNs();
        auto decoded = net::DecodeResponse(frame.substr(4));
        const int64_t d1 = NowNs();
        // The replay may see inserts the wire read did not, so only the
        // codec round trip is compared.
        if (!merged.ok() || !parsed.ok() || !decoded.ok() ||
            decoded->table.rows != table->rows) {
          report->Fail(std::string(kReadName[r]) + " replay failed");
          continue;
        }
        const uint64_t coord_span =
            tracer->Record(wire, req, "shard", "Coordinator session", c0, c1);
        const uint64_t shard_span = tracer->Record(
            coord_span, req, "service", "shard session", s_start,
            s_start + slowest);
        tracer->Record(shard_span, req, "sql", "ParseStatement", p0, p1);
        tracer->Record(wire, req, "net", "AppendTableFrame", p1, e1);
        tracer->Record(wire, req, "net", "DecodeResponse", e1, d1);
        rtt_us[r].push_back(((t1 - t0) - (c1 - c0)) / 1e3);
        exec_us[r].push_back(((c1 - c0) - slowest) / 1e3);
        parse_us[r].push_back((p1 - p0) / 1e3);
        encode_us[r].push_back((e1 - p1) / 1e3);
        decode_us[r].push_back((d1 - e1) / 1e3);
        resp_bytes[r].push_back(static_cast<double>(frame.size()));
        rows_merged[r].push_back(static_cast<double>(merged->rows.size()));
      }
    });
  }
  for (auto& t : readers) t.join();
  writer.join();
  const double elapsed_s = (NowNs() - start) / 1e9;

  // Final FLUSH: every insert the writer sent is acked durable.
  Status final_flush = dep.writer->Flush();
  report->CountOp(final_flush.ok());
  const shard::CoordinatorStats after = dep.coord->Stats();

  std::vector<Sample> all;
  for (const auto& v : reads) all.insert(all.end(), v.begin(), v.end());
  const double p50 = SlicedQuantile(all, start, deadline, kSlices, 0.5);
  // p90: the p99 of the wire reads moved by up to 50% between runs of the
  // same code on a shared 4-vCPU VM.
  const double p90 = SlicedQuantile(all, start, deadline, kSlices, 0.9);
  report->Set("op_ms_p50", p50);
  report->Set("op_ms_tail", p90);
  report->Set("throughput_per_s", SlicedRate(all, start, deadline, kSlices));
  std::cerr << "serve_mixed: " << all.size() << " reads in " << elapsed_s
            << " s (p50 " << p50 * 1e3 << " us, p90 " << p90 * 1e3
            << " us); " << inserted
            << " inserts, " << flush_ms.size() << " flushes (p50 "
            << Quantile(flush_ms, 0.5) << " ms), " << checkpoint_ms.size()
            << " checkpoints; writer late p99 " << Quantile(late_ms, 0.99)
            << " ms, " << sent_in_window << "/" << scheduled
            << " inserts sent on time\n";

  // Check: the open-loop writer kept its schedule. A writer that falls a
  // period behind (a slow INSERT, FLUSH or CHECKPOINT) offers less load
  // than the workload defines, so the run is invalid.
  const double late_p99 = Quantile(late_ms, 0.99);
  if (late_p99 > kMaxLateMs) {
    report->Fail("writer ran late: p99 " + Exact(late_p99) + " ms, over " +
                 Exact(kMaxLateMs) + " ms");
  }
  if (sent_in_window < scheduled) {
    report->Fail("writer sent " + std::to_string(sent_in_window) + " of " +
                 std::to_string(scheduled) +
                 " scheduled inserts before the deadline");
  }

  // Check: STATS and a full-domain RANGE account for the preload plus
  // every acked insert.
  std::vector<const traj::Trajectory*> acked;
  for (size_t i = 0; i < kPreloadShips + inserted; ++i) {
    acked.push_back(&fleet.Get(static_cast<traj::TrajectoryId>(i)));
  }
  CheckContents(dep.writer.get(), acked, t_lo, t_hi, "after the window",
                report);
  stop();

  // Durability: restart from the same WAL directory (timed), then verify
  // untimed that every FLUSH-acked ship is readable.
  std::vector<double> recovery_s;
  uint64_t replayed = 0;
  for (size_t i = 0; i < kRestarts; ++i) {
    const int64_t t0 = NowNs();
    auto restarted = shard::Coordinator::Start(Config(dir),
                                               storage::Env::Posix());
    recovery_s.push_back((NowNs() - t0) / 1e9);
    report->CountOp(restarted.ok());
    if (!restarted.ok()) {
      report->Fail("restart: " + restarted.status().ToString());
      break;
    }
    replayed = (*restarted)->Stats().total.wal_records_replayed;
    {
      auto session = (*restarted)->Connect();
      CheckContents(session.get(), acked, t_lo, t_hi, "after restart",
                    report);
    }
    (*restarted)->Shutdown();
  }
  std::filesystem::remove_all(root, ec);
  report->Set("peak_rss_mb", PeakRssMb());

  if (tracer->enabled()) {
    auto merge = [](const std::vector<std::vector<double>>& parts) {
      std::vector<double> out;
      for (const auto& v : parts) out.insert(out.end(), v.begin(), v.end());
      return out;
    };
    const service::ServiceStats& b = before.total;
    const service::ServiceStats& a = after.total;
    const double syncs = static_cast<double>(a.wal_syncs - b.wal_syncs);
    const double wal_bytes =
        static_cast<double>(a.wal_bytes_appended - b.wal_bytes_appended);
    report->Set("trace.op_ms_p50", p50);
    report->Set("flush_ms_p50", Quantile(flush_ms, 0.5));
    report->Set("flush_ms_p90", Quantile(flush_ms, 0.9));
    report->Set("wal_bytes_per_user_byte",
                inserted_points > 0 ? wal_bytes / (inserted_points * kPointBytes)
                                    : 0.0);
    report->Set("recovery_s", Quantile(recovery_s, 0.5));
    report->Set("net.rtt_us", Quantile(merge(rtt_us), 0.5));
    report->Set("net.encode_us", Quantile(merge(encode_us), 0.5));
    report->Set("net.decode_us", Quantile(merge(decode_us), 0.5));
    report->Set("net.resp_bytes", Quantile(merge(resp_bytes), 0.5));
    report->Set("shard.exec_us", Quantile(merge(exec_us), 0.5));
    report->Set("shard.rows_merged", Quantile(merge(rows_merged), 0.5));
    report->Set("sql.parse_us", Quantile(merge(parse_us), 0.5));
    report->Set("service.flush_wait_ms", Quantile(flush_wait_ms, 0.5));
    report->Set("service.batches_per_drain",
                syncs > 0 ? (a.batches_applied - b.batches_applied) / syncs
                          : 0.0);
    report->Set("service.snapshots_published",
                static_cast<double>(a.snapshots_published -
                                    b.snapshots_published));
    report->Set("service.epoch_pins",
                static_cast<double>(a.epoch_pins - b.epoch_pins));
    report->Set("wal.syncs", syncs);
    report->Set("wal.bytes_appended", wal_bytes);
    report->Set("wal.records_per_sync",
                syncs > 0 ? (a.wal_records_appended - b.wal_records_appended) /
                                syncs
                          : 0.0);
    report->Set("wal.checkpoint_ms", Quantile(checkpoint_ms, 0.5));
    report->Set("wal.checkpoints",
                static_cast<double>(a.checkpoints_taken - b.checkpoints_taken));
    report->Set("wal.replayed_records", static_cast<double>(replayed));
    report->Set("loadgen.late_ms_p99", late_p99);
    report->Set("loadgen.offered_traj_per_s", late_ms.size() / args.seconds);
  }
  return 0;
}

}  // namespace hermesbench
