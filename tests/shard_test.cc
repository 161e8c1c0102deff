// Sharded scatter–gather execution: the shard::Coordinator must be an
// indistinguishable drop-in for one service::Server.
//
// The headline test is the acceptance criterion of the sharding PR:
// for three datagen domains (aircraft / maritime / urban) the full query
// surface — S2T_MEMBERS, RANGE, STATS, QUT — returns *bit-identical*
// tables on 1-, 2-, and 4-shard coordinators and on the unsharded
// server, with ingest routed row-by-row through the statement plane and
// with concurrent readers in flight. The file runs under the TSan CI
// leg, so it doubles as the data-race gate for the scatter–gather and
// merged-snapshot paths.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "net/client.h"
#include "net/net_server.h"
#include "service/client_session.h"
#include "service/server.h"
#include "service/service_config.h"
#include "shard/coordinator.h"
#include "shard/partitioner.h"
#include "sql/executor.h"
#include "sql/statement_executor.h"
#include "sql/value.h"
#include "storage/env.h"

namespace hermes::shard {
namespace {

using sql::Table;
using sql::Value;

// ---------------------------------------------------------------------------
// Datagen domains
// ---------------------------------------------------------------------------

traj::TrajectoryStore MakeAircraft() {
  auto p = datagen::AircraftScenarioParams::Default();
  p.num_flights = 12;
  p.sample_dt = 40.0;
  p.time_span = 1200.0;
  p.seed = 12;
  auto s = datagen::GenerateAircraftScenario(p);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s->store);
}

traj::TrajectoryStore MakeMaritime() {
  datagen::MaritimeScenarioParams p;
  p.num_ships = 12;
  p.sample_dt = 300.0;
  p.seed = 13;
  auto s = datagen::GenerateMaritimeScenario(p);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s->store);
}

traj::TrajectoryStore MakeUrban() {
  datagen::UrbanScenarioParams p;
  p.num_vehicles = 12;
  p.sample_dt = 20.0;
  p.time_span = 900.0;
  p.seed = 14;
  auto s = datagen::GenerateUrbanScenario(p);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s->store);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// The query surface compared across topologies. QUT parameters derive
/// from the store's time domain so every domain gets a meaningful tree.
std::vector<std::string> QuerySuite(const std::string& mod,
                                    const traj::TrajectoryStore& store) {
  const auto [t0, t1] = store.TimeDomain();
  const double tau = (t1 - t0) / 2;
  return {
      "SELECT STATS(" + mod + ");",
      "SELECT RANGE(" + mod + ", " + std::to_string(t0) + ", " +
          std::to_string(t1 + 1) + ");",
      "SELECT S2T_MEMBERS(" + mod + ", 800, 1600);",
      "SELECT QUT(" + mod + ", " + std::to_string(t0) + ", " +
          std::to_string(t1 + 1) + ", " + std::to_string(tau) + ", " +
          std::to_string(tau / 4) + ", " + std::to_string(tau / 4) +
          ", 1600, 8);",
  };
}

/// Runs the suite, asserting every statement succeeds.
std::vector<Table> RunSuite(sql::StatementExecutor* db,
                            const std::vector<std::string>& suite) {
  std::vector<Table> out;
  for (const auto& q : suite) {
    auto t = db->Execute(q);
    EXPECT_TRUE(t.ok()) << q << ": " << t.status().ToString();
    out.push_back(t.ok() ? std::move(*t) : Table{});
  }
  return out;
}

/// Bit-exact table equality: schema, row count, and every Value
/// (doubles compare by representation, not tolerance).
void ExpectTablesEqual(const Table& want, const Table& got,
                       const std::string& label) {
  ASSERT_EQ(want.columns.size(), got.columns.size()) << label;
  for (size_t c = 0; c < want.columns.size(); ++c) {
    EXPECT_EQ(want.columns[c].name, got.columns[c].name) << label;
    EXPECT_EQ(want.columns[c].type, got.columns[c].type) << label;
  }
  ASSERT_EQ(want.rows.size(), got.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(want.rows[r].size(), got.rows[r].size()) << label;
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      EXPECT_TRUE(want.rows[r][c] == got.rows[r][c])
          << label << " row " << r << " col " << c << ": "
          << want.rows[r][c].ToString() << " vs "
          << got.rows[r][c].ToString();
    }
  }
}

/// Streams one trajectory through the statement plane as a single
/// all-placeholder INSERT with typed binds — coordinates round-trip
/// exactly, so sharded ingest can be bit-compared against RegisterStore.
Status InsertTrajectory(sql::StatementExecutor* db, const std::string& mod,
                        const traj::Trajectory& t) {
  std::string text = "INSERT INTO " + mod + " VALUES ";
  std::vector<Value> binds;
  binds.reserve(t.size() * 4);
  for (size_t i = 0; i < t.size(); ++i) {
    const auto& p = t.samples()[i];
    if (i > 0) text += ", ";
    text += "($" + std::to_string(4 * i + 1) + ", $" +
            std::to_string(4 * i + 2) + ", $" + std::to_string(4 * i + 3) +
            ", $" + std::to_string(4 * i + 4) + ")";
    binds.push_back(Value::Int(static_cast<int64_t>(t.object_id())));
    binds.push_back(Value::Double(p.t));
    binds.push_back(Value::Double(p.x));
    binds.push_back(Value::Double(p.y));
  }
  text += ";";
  HERMES_ASSIGN_OR_RETURN(sql::PreparedHandle handle, db->Prepare(text));
  StatusOr<Table> ack = db->BindExecute(handle.id, binds);
  (void)db->ClosePrepared(handle.id);
  return ack.status();
}

/// Unsharded oracle: one service::Server holding `store` whole.
std::unique_ptr<service::Server> StartBaseline(
    const traj::TrajectoryStore& store, const std::string& mod) {
  service::ServerOptions opts;
  opts.threads = 2;
  auto server = std::move(service::Server::Start(std::move(opts))).value();
  traj::TrajectoryStore copy = store;
  EXPECT_TRUE(server->RegisterStore(mod, std::move(copy)).ok());
  return server;
}

// ---------------------------------------------------------------------------
// ServiceConfig validation
// ---------------------------------------------------------------------------

TEST(ServiceConfigTest, RejectsZeroShards) {
  service::ServiceConfig config;
  config.shards = 0;
  auto st = config.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shards must be >= 1"), std::string::npos)
      << st.ToString();
}

TEST(ServiceConfigTest, RejectsWalDirCollision) {
  service::ServiceConfig config;
  config.shards = 3;
  config.shard_wal_dirs = {"wal/a", "wal/b", "wal/a"};
  auto st = config.Validate();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("collision"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("shards 0 and 2"), std::string::npos)
      << st.ToString();
}

TEST(ServiceConfigTest, RejectsWrongShardWalDirCount) {
  service::ServiceConfig config;
  config.shards = 2;
  config.shard_wal_dirs = {"wal/a"};
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ServiceConfigTest, SingleShardKeepsPlainDirs) {
  service::ServiceConfig config;
  config.wal_dir = "walroot";
  config.data_dir = "dataroot";
  EXPECT_EQ(config.ShardWalDir(0), "walroot");
  EXPECT_EQ(config.ShardDataDir(0), "dataroot");

  config.shards = 2;
  EXPECT_EQ(config.ShardWalDir(0), "walroot/shard0");
  EXPECT_EQ(config.ShardWalDir(1), "walroot/shard1");
  EXPECT_EQ(config.ShardDataDir(1), "dataroot/shard1");
}

TEST(ServiceConfigTest, DefaultsValidate) {
  EXPECT_TRUE(service::ServiceConfig{}.Validate().ok());
}

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(HashPartitionerTest, DeterministicInRangeAndSpreads) {
  auto part = MakeHashPartitioner();
  std::set<size_t> hit;
  for (uint64_t id = 0; id < 1000; ++id) {
    const size_t s = part->ShardOf(id, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, part->ShardOf(id, 4));  // stable across calls
    hit.insert(s);
    EXPECT_EQ(part->ShardOf(id, 1), 0u);  // single shard short-circuits
  }
  EXPECT_EQ(hit.size(), 4u) << "1000 ids left a shard empty";
}

// ---------------------------------------------------------------------------
// Startup
// ---------------------------------------------------------------------------

TEST(CoordinatorStartTest, RecoveryFailureNamesShardAndUnwinds) {
  auto env = storage::Env::NewMemEnv();
  service::ServiceConfig config;
  config.shards = 2;
  config.wal_dir = "walroot";

  // Corrupt shard 1's checkpoint manifest: recovery must fail, the
  // Status must say *which* shard, and no half-started topology leaks.
  ASSERT_TRUE(env->CreateDirs("walroot/shard1").ok());
  auto file = env->NewRWFile("walroot/shard1/MANIFEST");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->WriteAt(0, 4, "junk").ok());

  auto coord = Coordinator::Start(config, env.get());
  ASSERT_FALSE(coord.ok());
  EXPECT_NE(coord.status().message().find("shard 1: "), std::string::npos)
      << coord.status().ToString();

  // Shard 0 was unwound: a retry with the corruption cleared starts
  // cleanly against the same env (nothing held or leaked).
  ASSERT_TRUE(env->DeleteFile("walroot/shard1/MANIFEST").ok());
  auto retry = Coordinator::Start(config, env.get());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  (*retry)->Shutdown();
}

TEST(CoordinatorStartTest, RejectsInvalidConfig) {
  service::ServiceConfig config;
  config.shards = 0;
  EXPECT_FALSE(Coordinator::Start(config).ok());
}

// ---------------------------------------------------------------------------
// Shard-count invariance: the acceptance criterion
// ---------------------------------------------------------------------------

struct Domain {
  const char* name;
  traj::TrajectoryStore store;
};

std::vector<Domain> Domains() {
  std::vector<Domain> out;
  out.push_back({"aircraft", MakeAircraft()});
  out.push_back({"maritime", MakeMaritime()});
  out.push_back({"urban", MakeUrban()});
  return out;
}

TEST(ShardInvarianceTest, ResultsBitIdenticalAcrossShardCounts) {
  for (auto& domain : Domains()) {
    SCOPED_TRACE(domain.name);
    const auto suite = QuerySuite("mod", domain.store);

    auto baseline = StartBaseline(domain.store, "mod");
    auto oracle_db =
        service::MakeStatementExecutor(baseline->Connect());
    const std::vector<Table> want = RunSuite(oracle_db.get(), suite);

    for (const size_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      service::ServiceConfig config;
      config.shards = shards;
      config.threads = 2;
      auto coord_or = Coordinator::Start(config);
      ASSERT_TRUE(coord_or.ok()) << coord_or.status().ToString();
      auto coord = std::move(*coord_or);
      auto db = coord->Connect();

      // Ingest through the routed statement plane, not RegisterStore:
      // this is the path a real client takes.
      ASSERT_TRUE(db->Execute("CREATE MOD mod;").ok());
      for (traj::TrajectoryId tid = 0;
           tid < domain.store.NumTrajectories(); ++tid) {
        auto st = InsertTrajectory(db.get(), "mod", domain.store.Get(tid));
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
      ASSERT_TRUE(db->Execute("FLUSH;").ok());

      const std::vector<Table> got = RunSuite(db.get(), suite);
      ASSERT_EQ(want.size(), got.size());
      for (size_t q = 0; q < want.size(); ++q) {
        ExpectTablesEqual(want[q], got[q], suite[q]);
      }
      coord->Shutdown();
    }
    baseline->Shutdown();
  }
}

TEST(ShardInvarianceTest, RegisterStorePartitionsMatchUnsharded) {
  // Bulk seeding (RegisterStore) splits by the partitioner; the merged
  // snapshot must still equal the unsharded store.
  auto store = MakeMaritime();
  const auto suite = QuerySuite("ships", store);
  auto baseline = StartBaseline(store, "ships");
  auto oracle_db = service::MakeStatementExecutor(baseline->Connect());
  const std::vector<Table> want = RunSuite(oracle_db.get(), suite);

  service::ServiceConfig config;
  config.shards = 4;
  auto coord = std::move(Coordinator::Start(config)).value();
  traj::TrajectoryStore copy = store;
  ASSERT_TRUE(coord->RegisterStore("ships", std::move(copy)).ok());
  auto db = coord->Connect();
  const std::vector<Table> got = RunSuite(db.get(), suite);
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectTablesEqual(want[q], got[q], suite[q]);
  }
  coord->Shutdown();
  baseline->Shutdown();
}

// ---------------------------------------------------------------------------
// Concurrent ingest
// ---------------------------------------------------------------------------

TEST(ShardConcurrencyTest, ReadersSeeMonotonicSnapshotsDuringIngest) {
  const auto store = MakeMaritime();
  const auto [t0, t1] = store.TimeDomain();
  const std::string range_sql = "SELECT RANGE(ships, " + std::to_string(t0) +
                                ", " + std::to_string(t1 + 1) + ");";
  const size_t initial = store.NumTrajectories() / 2;

  service::ServiceConfig config;
  config.shards = 2;
  config.threads = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  traj::TrajectoryStore seed;
  for (traj::TrajectoryId tid = 0; tid < initial; ++tid) {
    ASSERT_TRUE(seed.Add(store.Get(tid)).ok());
  }
  ASSERT_TRUE(coord->RegisterStore("ships", std::move(seed)).ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int rix = 0; rix < 3; ++rix) {
    readers.emplace_back([&] {
      auto session = coord->Connect();
      size_t last_rows = 0;
      while (!done.load(std::memory_order_relaxed)) {
        auto members = session->Execute("SELECT S2T_MEMBERS(ships);");
        auto range = session->Execute(range_sql);
        if (!members.ok() || !range.ok()) {
          ++failures;
          return;
        }
        // Merged snapshots only ever grow: each shard publishes id-order
        // prefixes, and the merge is a deterministic function of them.
        if (range->rows.size() < last_rows) {
          ++failures;
          return;
        }
        last_rows = range->rows.size();
      }
    });
  }

  {
    auto writer = coord->Connect();
    for (traj::TrajectoryId tid = initial; tid < store.NumTrajectories();
         ++tid) {
      ASSERT_TRUE(InsertTrajectory(writer.get(), "ships",
                                   store.Get(tid)).ok());
    }
    ASSERT_TRUE(writer->Execute("FLUSH;").ok());
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-flush the sharded state must equal the unsharded full store.
  auto baseline = StartBaseline(store, "ships");
  auto oracle_db = service::MakeStatementExecutor(baseline->Connect());
  const auto suite = QuerySuite("ships", store);
  const auto want = RunSuite(oracle_db.get(), suite);
  auto db = coord->Connect();
  const auto got = RunSuite(db.get(), suite);
  for (size_t q = 0; q < want.size(); ++q) {
    ExpectTablesEqual(want[q], got[q], suite[q]);
  }
  coord->Shutdown();
  baseline->Shutdown();
}

// ---------------------------------------------------------------------------
// Routing semantics
// ---------------------------------------------------------------------------

TEST(ShardRoutingTest, DdlBroadcastsToEveryShard) {
  service::ServiceConfig config;
  config.shards = 3;
  auto coord = std::move(Coordinator::Start(config)).value();
  auto db = coord->Connect();
  ASSERT_TRUE(db->Execute("CREATE MOD fleet;").ok());

  // Every shard owns the catalog entry (a per-shard session sees it).
  for (size_t k = 0; k < coord->num_shards(); ++k) {
    auto shard_db =
        service::MakeStatementExecutor(coord->shard(k)->Connect());
    auto stats = shard_db->Execute("SELECT STATS(fleet);");
    EXPECT_TRUE(stats.ok())
        << "shard " << k << ": " << stats.status().ToString();
  }

  // Errors keep parity with the unsharded server (lockstep catalogs fail
  // identically everywhere, so no shard prefix is added).
  auto dup = db->Execute("CREATE MOD fleet;");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().message().find("shard"), std::string::npos)
      << dup.status().ToString();

  ASSERT_TRUE(db->Execute("DROP MOD fleet;").ok());
  for (size_t k = 0; k < coord->num_shards(); ++k) {
    auto shard_db =
        service::MakeStatementExecutor(coord->shard(k)->Connect());
    EXPECT_FALSE(shard_db->Execute("SELECT STATS(fleet);").ok());
  }
  coord->Shutdown();
}

TEST(ShardRoutingTest, InsertRoutesByPartitioner) {
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  auto db = coord->Connect();
  ASSERT_TRUE(db->Execute("CREATE MOD m;").ok());
  // Objects 0..7, two points each, routed through plain-text INSERT.
  for (int id = 0; id < 8; ++id) {
    const std::string text =
        "INSERT INTO m VALUES (" + std::to_string(id) + ", 0, 0, 0), (" +
        std::to_string(id) + ", 60, 100, 0);";
    ASSERT_TRUE(db->Execute(text).ok());
  }
  ASSERT_TRUE(db->Execute("FLUSH;").ok());

  const auto& part = coord->partitioner();
  for (size_t k = 0; k < coord->num_shards(); ++k) {
    size_t expect = 0;
    for (uint64_t id = 0; id < 8; ++id) {
      if (part.ShardOf(id, coord->num_shards()) == k) ++expect;
    }
    EXPECT_EQ(coord->shard(k)->Stats().trajectories_ingested, expect)
        << "shard " << k;
  }
  coord->Shutdown();
}

TEST(ShardRoutingTest, ShowServiceStatsAggregatesWithBreakdown) {
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  const traj::TrajectoryStore store = MakeMaritime();
  const size_t total_trajectories = store.NumTrajectories();
  auto db = coord->Connect();
  // Ingest through the routed statement plane so the per-shard ingest
  // counters (what this test folds) actually tick.
  ASSERT_TRUE(db->Execute("CREATE MOD ships;").ok());
  for (traj::TrajectoryId tid = 0; tid < store.NumTrajectories(); ++tid) {
    ASSERT_TRUE(InsertTrajectory(db.get(), "ships", store.Get(tid)).ok());
  }
  ASSERT_TRUE(db->Execute("FLUSH;").ok());

  auto table = db->Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  int64_t shards_row = -1, total = -1, shard0 = -1, shard1 = -1, mods = -1;
  for (const auto& row : table->rows) {
    const std::string& name = row[0].AsString();
    if (name == "shards") shards_row = row[1].AsInt();
    if (name == "trajectories_ingested") total = row[1].AsInt();
    if (name == "shard0.trajectories_ingested") shard0 = row[1].AsInt();
    if (name == "shard1.trajectories_ingested") shard1 = row[1].AsInt();
    if (name == "mods") mods = row[1].AsInt();
  }
  EXPECT_EQ(shards_row, 2);
  EXPECT_EQ(static_cast<size_t>(total), total_trajectories);
  EXPECT_EQ(total, shard0 + shard1);  // exact fold, no double counting
  EXPECT_EQ(mods, 1);  // broadcast DDL: max, not sum
  coord->Shutdown();
}

// ---------------------------------------------------------------------------
// One API, every backend
// ---------------------------------------------------------------------------

TEST(StatementExecutorParityTest, EmbeddedServiceCoordinatorAndWireAgree) {
  const auto store = MakeMaritime();
  const auto suite = QuerySuite("ships", store);

  // Embedded session.
  auto session = std::make_unique<sql::Session>();
  {
    traj::TrajectoryStore copy = store;
    ASSERT_TRUE(session->RegisterStore("ships", std::move(copy)).ok());
  }
  std::unique_ptr<sql::StatementExecutor> embedded = std::move(session);
  const auto want = RunSuite(embedded.get(), suite);

  // Service session.
  auto server = StartBaseline(store, "ships");
  auto service_db = service::MakeStatementExecutor(server->Connect());

  // Coordinator session (2 shards).
  service::ServiceConfig config;
  config.shards = 2;
  auto coord = std::move(Coordinator::Start(config)).value();
  {
    traj::TrajectoryStore copy = store;
    ASSERT_TRUE(coord->RegisterStore("ships", std::move(copy)).ok());
  }
  auto coord_db = coord->Connect();

  // Remote client over the wire protocol, fronting the coordinator.
  auto net = std::move(net::NetServer::Start(
                           [raw = coord.get()] { return raw->Connect(); },
                           net::NetServerOptions{}))
                 .value();
  auto client = std::move(net::Client::Connect("127.0.0.1", net->port()))
                    .value();
  auto wire_db = net::MakeStatementExecutor(std::move(client));

  for (auto* db : {service_db.get(), coord_db.get(), wire_db.get()}) {
    const auto got = RunSuite(db, suite);
    for (size_t q = 0; q < want.size(); ++q) {
      ExpectTablesEqual(want[q], got[q], suite[q]);
    }
  }

  // Prepared statements behave identically through every backend.
  const auto [t0, t1] = store.TimeDomain();
  for (auto* db : {embedded.get(), service_db.get(), coord_db.get(),
                   wire_db.get()}) {
    auto prepared = db->Prepare("SELECT RANGE(ships, $1, $2);");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_EQ(prepared->num_params, 2);
    auto bound = db->BindExecute(
        prepared->id, {Value::Double(t0), Value::Double(t1 + 1)});
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    EXPECT_EQ(bound->rows.size(), store.NumTrajectories());
    EXPECT_TRUE(db->ClosePrepared(prepared->id).ok());
    EXPECT_FALSE(db->BindExecute(prepared->id, {Value::Double(t0),
                                                Value::Double(t1)})
                     .ok());
  }

  // The non-SELECT surface and the error paths agree too: same status
  // code and message everywhere, same table where a statement succeeds.
  // (By design the INSERT ack shape, SHOW SERVICE STATS, CHECKPOINT, and
  // the coordinator's `shard k:` prefix on routed-INSERT shard errors
  // differ, so they are not compared here.)
  const std::vector<std::string> surface = {
      "SET hermes.sigma = 150;",
      "SET hermes.sigma = -1;",
      "SHOW hermes.sigma;",
      "SHOW ALL;",
      "SHOW hermes.nope;",
      "SET hermes.nope = 1;",
      "SELECT STATS(nowhere);",
      "SELECT RANGE(ships, 0);",
      "SELECT QUT(ships, 0, 1);",
      "INSERT INTO ships VALUES (-1, 0, 0, 0), (-1, 10, 5, 5);",
  };
  auto run_surface = [&](sql::StatementExecutor* db) {
    std::vector<StatusOr<Table>> out;
    for (const auto& q : surface) out.push_back(db->Execute(q));
    auto cursor = db->ExecuteCursor("SELECT STATS($1);");
    out.push_back(cursor.ok() ? (*cursor)->ToTable()
                              : StatusOr<Table>(cursor.status()));
    return out;
  };
  const auto want_surface = run_surface(embedded.get());
  EXPECT_FALSE(want_surface.back().ok());
  for (auto* db : {service_db.get(), coord_db.get(), wire_db.get()}) {
    const auto got = run_surface(db);
    for (size_t q = 0; q < got.size(); ++q) {
      const std::string label =
          q < surface.size() ? surface[q] : "cursor SELECT STATS($1)";
      ASSERT_EQ(want_surface[q].ok(), got[q].ok())
          << label << ": " << got[q].status().ToString();
      if (got[q].ok()) {
        ExpectTablesEqual(*want_surface[q], *got[q], label);
      } else {
        EXPECT_EQ(want_surface[q].status().code(), got[q].status().code())
            << label;
        EXPECT_EQ(want_surface[q].status().message(),
                  got[q].status().message())
            << label;
      }
    }
  }

  net->Shutdown();
  coord->Shutdown();
  server->Shutdown();
}

}  // namespace
}  // namespace hermes::shard
