#ifndef HERMES_SQL_EXECUTOR_H_
#define HERMES_SQL_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "exec/exec_context.h"
#include "sql/cursor.h"
#include "sql/parser.h"
#include "sql/query_functions.h"
#include "sql/settings.h"
#include "sql/statement_executor.h"
#include "sql/value.h"
#include "storage/env.h"
#include "traj/trajectory_store.h"

namespace hermes::sql {

class Session;

/// \brief A parsed-once, execute-many statement handle.
///
/// `Session::PrepareStatement` tokenizes and parses a statement with `$N`
/// placeholders exactly once; `Bind` supplies typed values and `Execute`
/// / `ExecuteCursor` run the cached parse tree on the session — so
/// maintenance loops, benches, and the wire protocol's BIND+EXECUTE fast
/// path re-executing the same shape pay no per-call parsing. Bindings
/// persist across executions; re-`Bind` to change one. The handle must
/// not outlive its session.
class PreparedStatement {
 public:
  PreparedStatement(Session* session, Statement stmt);

  /// Binds the 1-based placeholder `$index`. Fails with `InvalidArgument`
  /// when `index` is outside [1, num_params()].
  Status Bind(int index, Value v);

  /// Executes with the current bindings; every placeholder must be bound.
  StatusOr<Table> Execute();

  /// Cursor-returning flavor (see `Session::ExecuteCursor`).
  StatusOr<std::unique_ptr<RowCursor>> ExecuteCursor();

  /// Number of distinct `$N` placeholders (the highest N).
  int num_params() const { return stmt_.num_params; }

 private:
  Session* session_;
  Statement stmt_;
  std::vector<Value> binds_;   ///< Slot i holds the value of `$(i+1)`.
  std::vector<bool> bound_;
};

/// \brief What a backend hands back for a non-QUT SELECT: the store the
/// session evaluates the function over, or a finished `result` when the
/// backend answers the statement itself (the shard coordinator's
/// scatter–gather `RANGE` and `STATS`).
struct SelectSource {
  std::shared_ptr<const traj::TrajectoryStore> store;
  std::unique_ptr<RowCursor> result;
};

/// \brief Where a `Session`'s statements meet a catalog — the part of a
/// session that differs between the embedded catalog, a
/// `service::Server` connection, and a `shard::Coordinator` connection.
///
/// The session parses, dispatches, runs `SET`/`SHOW`, evaluates SELECT
/// arguments, and owns the settings and execution context; it calls into
/// the backend once per statement for what touches MODs. `mod` arguments
/// are canonical (upper-case) names. A backend serves one session.
class SessionBackend {
 public:
  virtual ~SessionBackend() = default;

  virtual Status CreateMod(const Statement& stmt) = 0;
  virtual Status DropMod(const Statement& stmt) = 0;
  /// Loads `stmt.path` into `stmt.mod` (created if absent); returns the
  /// MOD's (trajectories, points) totals after the load.
  virtual StatusOr<std::pair<size_t, size_t>> LoadMod(
      const Statement& stmt) = 0;
  /// Runs an INSERT, returning its acknowledgment table.
  virtual StatusOr<Table> Insert(const Statement& stmt,
                                 const std::vector<Value>& binds) = 0;
  /// Makes every earlier INSERT query-visible.
  virtual Status Flush(const Statement& stmt) = 0;
  virtual Status Checkpoint(const Statement& stmt) = 0;

  /// QUT over the MOD's ReTraTree; `tree_params` is (tau, delta, t, d,
  /// gamma). `env.store` is unset.
  virtual StatusOr<std::unique_ptr<RowCursor>> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params, const QueryEnv& env) = 0;
  /// Every other SELECT function over `mod`.
  virtual StatusOr<SelectSource> Select(const Statement& stmt,
                                        const std::vector<Value>& binds,
                                        const std::string& mod) = 0;

  /// The `SHOW SERVICE STATS` table.
  virtual StatusOr<Table> ServiceStats() = 0;
  /// Appends backend rows to the `SHOW STATS` phase table.
  virtual void AppendStatsRows(Table* /*table*/) {}
  /// Called before the session swaps its `ExecContext` (`SET
  /// hermes.threads`), so state built on the old context can be dropped.
  virtual void OnThreadsChange() {}

  /// Bulk-registers a pre-built store, replacing any MOD of that name.
  virtual Status RegisterStore(const std::string& mod,
                               traj::TrajectoryStore store) = 0;
  /// The MOD's store as queries see it (NotFound when absent).
  virtual StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) = 0;
};

/// The embedded catalog: MODs owned by the session itself, ReTraTrees
/// built lazily under `data_dir` in `env`, INSERT applied synchronously.
std::unique_ptr<SessionBackend> MakeEmbeddedBackend(storage::Env* env,
                                                    std::string data_dir);

/// \brief An interactive Hermes session — the one statement dispatcher
/// every front end runs: the embedded catalog, a `service::Server`
/// connection, and a `shard::Coordinator` connection differ only in
/// their `SessionBackend`. The embedded flavor is the counterpart of the
/// demo's psql session against Hermes@PostgreSQL.
///
/// Registered settings (see `docs/SQL.md`), scoped to this session:
///   hermes.threads    int     worker threads for analytic statements
///   hermes.sigma      double  default S2T spatial bandwidth
///   hermes.epsilon    double  default S2T cluster radius
///   hermes.use_index  int     0/1 (off/on): pg3D-Rtree voting engine
///   hermes.hot_index_budget int  hot in-memory tier bytes (0 = off)
///
/// Thread safety: one session serves one client thread.
class Session final : public StatementExecutor {
 public:
  /// An embedded session over its own catalog. `env` defaults to a
  /// private in-memory environment; pass a Posix env + directory to
  /// persist ReTraTree partitions.
  explicit Session(storage::Env* env = nullptr,
                   std::string data_dir = "hermes_data");

  /// A session over `backend`, its settings seeded from `defaults`, which
  /// must lie in the knobs' domains (servers and the coordinator check
  /// theirs at start, via `service::ValidateServerOptions`).
  Session(std::unique_ptr<SessionBackend> backend,
          const HermesSettingDefaults& defaults);

  // Pinned in place: the settings registry's on-change hooks and every
  // PreparedStatement/RowCursor hold a pointer to this session.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = delete;
  Session& operator=(Session&&) = delete;

  /// Parses and executes one statement, materializing the full result.
  /// (Implemented as `ExecuteCursor` drained into a `Table`.)
  StatusOr<Table> Execute(const std::string& sql) override;

  /// Parses and executes one statement, returning a pull-based cursor.
  /// `RANGE` and `S2T_MEMBERS` produce rows incrementally; other
  /// statements return a cursor over their materialized table. The cursor
  /// may borrow session state: it must not outlive the session, and on
  /// the embedded catalog DDL on the MOD it reads invalidates it.
  StatusOr<std::unique_ptr<RowCursor>> ExecuteCursor(
      const std::string& sql) override;

  /// Id-keyed prepared statements (the `StatementExecutor` surface).
  StatusOr<PreparedHandle> Prepare(const std::string& sql) override;
  StatusOr<Table> BindExecute(uint32_t id,
                              const std::vector<Value>& binds) override;
  Status ClosePrepared(uint32_t id) override;

  /// Parses a statement with `$N` placeholders into a reusable handle.
  StatusOr<PreparedStatement> PrepareStatement(const std::string& sql);

  /// Executes a ';'-separated script, returning the last statement's
  /// table. Empty statements are skipped; an error in statement k aborts
  /// the script with the statement's 1-based ordinal prefixed.
  StatusOr<Table> ExecuteScript(const std::string& sql);

  /// Direct access for embedding (e.g. loading a generated scenario).
  Status RegisterStore(const std::string& name, traj::TrajectoryStore store);
  /// The MOD's store, or nullptr when there is none.
  std::shared_ptr<const traj::TrajectoryStore> FindStore(
      const std::string& name);

  /// The run-time settings registry (`SET` / `SHOW` surface).
  const Settings& settings() const { return settings_; }

  /// Worker threads granted to S2T/QUT statements (`SET hermes.threads`).
  size_t threads() const { return threads_; }

  /// The session's execution context (nullptr while `threads() == 1`).
  exec::ExecContext* exec_context() { return exec_.get(); }

  /// Session-accumulated statistics (S2T phase breakdowns, QUT query
  /// wall times) — the typed source behind `SHOW STATS`.
  const exec::ExecStats& stats() const { return session_stats_; }

 private:
  friend class PreparedStatement;

  StatusOr<std::unique_ptr<RowCursor>> ExecuteStatement(
      const Statement& stmt, const std::vector<Value>& binds);
  StatusOr<std::unique_ptr<RowCursor>> ExecuteShow(const Statement& stmt);
  StatusOr<std::unique_ptr<RowCursor>> ExecuteSelect(
      const Statement& stmt, const std::vector<Value>& binds);

  Settings settings_;
  exec::ExecStats session_stats_;
  /// Parallelism of analytic statements; kept in sync with the
  /// hermes.threads setting by its on-change hook. nullptr = sequential.
  size_t threads_ = 1;
  std::unique_ptr<exec::ExecContext> exec_;
  /// Declared after `exec_` so state the backend built on the context
  /// (embedded ReTraTrees) is destroyed first.
  std::unique_ptr<SessionBackend> backend_;
  std::map<uint32_t, PreparedStatement> prepared_;
  uint32_t next_id_ = 1;
};

}  // namespace hermes::sql

#endif  // HERMES_SQL_EXECUTOR_H_
