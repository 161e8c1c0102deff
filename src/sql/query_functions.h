#ifndef HERMES_SQL_QUERY_FUNCTIONS_H_
#define HERMES_SQL_QUERY_FUNCTIONS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "core/retratree.h"
#include "exec/exec_context.h"
#include "sql/cursor.h"
#include "sql/parser.h"
#include "sql/settings.h"
#include "sql/value.h"
#include "traj/trajectory_store.h"

namespace hermes::sql {

/// \brief Everything a SELECT function evaluation needs, independent of
/// which `sql::Session` backend — embedded, service, or shard
/// coordinator — the statement runs on.
///
/// `store` is shared ownership: streaming cursors (`RANGE`,
/// `S2T_MEMBERS`) capture it, so a service snapshot — and the arena epoch
/// it pins — stays alive for the whole life of the cursor even while the
/// ingest worker keeps publishing newer epochs.
struct QueryEnv {
  std::shared_ptr<const traj::TrajectoryStore> store;
  /// Parallelism for analytic statements; nullptr = sequential.
  exec::ExecContext* exec = nullptr;
  /// Timing archive for sequential runs (`SHOW STATS`); a live `exec`
  /// records its own phases, so this stays untouched then.
  exec::ExecStats* session_stats = nullptr;
  double default_sigma = 100.0;
  double default_epsilon = 200.0;
  bool use_index = true;
  /// QUT only: the hot-tier budget (`hermes.hot_index_budget`) applied to
  /// a tree the session itself owns.
  size_t hot_index_budget = core::kDefaultHotIndexBudget;
};

/// Non-owning `QueryEnv::store` handle for embedders whose store outlives
/// every cursor by contract (the embedded `Session`'s MOD catalog).
std::shared_ptr<const traj::TrajectoryStore> BorrowStore(
    const traj::TrajectoryStore* store);

/// Resolves the MOD a SELECT targets: the statement's literal name, or —
/// when the MOD position was a `$N` placeholder — the canonicalized
/// string it was bound to.
StatusOr<std::string> ResolveSelectModName(const Statement& stmt,
                                           const std::vector<Value>& binds);

/// Canonical (ASCII upper-case) MOD name — the one catalog key rule the
/// embedded catalog and the service server's catalog both follow.
std::string CanonicalModName(const std::string& name);

/// True when `EvalSelectFunction` implements `function`.
bool IsSelectFunction(const std::string& function);

/// \brief Evaluates one SELECT function — STATS / RANGE / S2T /
/// S2T_MEMBERS / TRACLUS / TOPTICS / CONVOYS — against `env`. `at` is the
/// error-location suffix anchored at the function token. `QUT` is *not*
/// handled here: it needs ReTraTree ownership, which each session backend
/// manages itself (see `QutQuery`).
StatusOr<std::unique_ptr<RowCursor>> EvalSelectFunction(
    const std::string& function, const std::vector<double>& args,
    const QueryEnv& env, const std::string& at);

/// Runs a QUT window query against an already-built tree, recording the
/// `qut_query` wall time into `session_stats` (optional).
StatusOr<std::unique_ptr<RowCursor>> QutQuery(core::ReTraTree* tree,
                                              double wi, double we,
                                              exec::ExecStats* session_stats);

/// Maps the SQL `QUT(D, Wi, We, tau, delta, t, d, gamma)` tail — the 5
/// tree parameters — onto `ReTraTreeParams`, including the
/// sigma = epsilon = d convention for the buffer re-clustering runs.
/// One definition so the embedded catalog, the service server, and the
/// shard coordinator cannot build differently-parameterized trees for the
/// same statement.
core::ReTraTreeParams MakeQutTreeParams(const std::vector<double>& tree_params);

/// Evaluates the rows of an INSERT statement into one trajectory per
/// object id (grouped in ascending object order, samples in row order),
/// resolving `$N` binds.
StatusOr<std::vector<traj::Trajectory>> BuildInsertTrajectories(
    const Statement& stmt, const std::vector<Value>& binds);

/// Resolves an INSERT row's object-id cell: a finite integer in
/// [0, 2^53] (every such id is exact as a double). Anything else — NaN,
/// infinities, negatives, fractions, larger magnitudes — is an
/// `InvalidArgument` carrying the cell's error location.
StatusOr<traj::ObjectId> EvalObjectId(const ScalarExpr& e,
                                      const std::vector<Value>& binds);

/// Resolves a scalar: the literal itself, or the bound value of `$N`.
StatusOr<Value> EvalScalar(const ScalarExpr& e,
                           const std::vector<Value>& binds);

/// Resolves a scalar that must be numeric, widening ints to double.
StatusOr<double> EvalNumber(const ScalarExpr& e,
                            const std::vector<Value>& binds);

/// Single-column acknowledgment table ("CREATE MOD X", ...).
Table AckTable(std::string status);

/// Cursor over an eagerly-built table.
std::unique_ptr<RowCursor> MakeTableCursor(Table table);

/// `SHOW STATS` table: the session archive merged with the live
/// context's phase timings (when one exists).
Table PhaseStatsTable(const exec::ExecStats& session_stats,
                      const exec::ExecContext* exec);

/// Folds `s` into `total` field-by-field — `SHOW STATS` aggregates the
/// hot-tier counters across every built ReTraTree of the embedded
/// catalog.
void AccumulateHotTierStats(const core::HotTierStats& s,
                            core::HotTierStats* total);

/// Appends the hot/cold tier counter rows (`qut_hot_probes`,
/// `qut_cold_probes`, `hot_index_bytes`, ...) to a `SHOW STATS`-shaped
/// table: counter name in the phase column, value in the total column.
void AppendHotTierRows(const core::HotTierStats& tier, Table* table);

/// `SHOW hermes.<name>` / `SHOW ALL` table over a registry; unknown
/// names fail with the statement's error location.
StatusOr<Table> SettingsShowTable(const Settings& settings,
                                  const Statement& stmt);

/// The session's `hermes.threads` on-change reaction: folds the retiring
/// context's phase timings into `archive` (so SHOW STATS keeps
/// accumulating) and swaps in a fresh context — nullptr when `n == 1`,
/// since a sequential session needs no pool.
void SwapExecContext(size_t n, std::unique_ptr<exec::ExecContext>* exec,
                     exec::ExecStats* archive);

}  // namespace hermes::sql

#endif  // HERMES_SQL_QUERY_FUNCTIONS_H_
