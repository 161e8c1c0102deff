#include "service/client_session.h"

#include <utility>

namespace hermes::service {

/// The `sql::SessionBackend` of a connected session: thin calls into the
/// server (see the header for the semantics).
class ServiceBackend final : public sql::SessionBackend {
 public:
  explicit ServiceBackend(Server* server) : server_(server) {}
  ~ServiceBackend() override { server_->OnSessionClosed(); }

  Status CreateMod(const sql::Statement& stmt) override {
    return server_->CreateMod(stmt.mod);
  }

  Status DropMod(const sql::Statement& stmt) override {
    return server_->DropMod(stmt.mod);
  }

  StatusOr<std::pair<size_t, size_t>> LoadMod(
      const sql::Statement& stmt) override {
    return server_->LoadMod(stmt.mod, stmt.path);
  }

  StatusOr<sql::Table> Insert(const sql::Statement& stmt,
                              const std::vector<sql::Value>& binds) override {
    HERMES_ASSIGN_OR_RETURN(std::vector<traj::Trajectory> batch,
                            sql::BuildInsertTrajectories(stmt, binds));
    const auto queued = static_cast<int64_t>(batch.size());
    HERMES_ASSIGN_OR_RETURN(uint64_t ticket,
                            server_->EnqueueInsert(stmt.mod, std::move(batch)));
    // Asynchronous ack: the rows are queued, not yet query-visible;
    // FLUSH (or time) makes them so. The ticket orders against FLUSH.
    sql::Table table;
    table.columns = {{"status", sql::ValueType::kString},
                     {"trajectories_queued", sql::ValueType::kInt},
                     {"ticket", sql::ValueType::kInt}};
    table.rows = {{sql::Value::Str("QUEUE INSERT " + stmt.mod),
                   sql::Value::Int(queued),
                   sql::Value::Int(static_cast<int64_t>(ticket))}};
    return table;
  }

  Status Flush(const sql::Statement& /*stmt*/) override {
    return server_->Flush();
  }

  Status Checkpoint(const sql::Statement& /*stmt*/) override {
    return server_->Checkpoint();
  }

  StatusOr<std::unique_ptr<sql::RowCursor>> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params,
      const sql::QueryEnv& env) override {
    return server_->QutQuery(mod, wi, we, tree_params, env.session_stats);
  }

  // Statement-level snapshot isolation: one published snapshot per
  // statement, owned by any cursor the statement returns.
  StatusOr<sql::SelectSource> Select(const sql::Statement& /*stmt*/,
                                     const std::vector<sql::Value>& /*binds*/,
                                     const std::string& mod) override {
    HERMES_ASSIGN_OR_RETURN(auto store, Snapshot(mod));
    return sql::SelectSource{std::move(store), nullptr};
  }

  StatusOr<sql::Table> ServiceStats() override {
    sql::Table table;
    table.columns = {{"counter", sql::ValueType::kString},
                     {"value", sql::ValueType::kInt}};
    AppendServiceStatsRows(server_->Stats(), "", &table);
    return table;
  }

  Status RegisterStore(const std::string& mod,
                       traj::TrajectoryStore store) override {
    return server_->RegisterStore(mod, std::move(store));
  }

  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) override {
    return server_->SnapshotMod(mod);
  }

 private:
  Server* server_;
};

std::unique_ptr<sql::Session> Server::Connect() {
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  sessions_active_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<sql::Session>(std::make_unique<ServiceBackend>(this),
                                        options_.session_defaults);
}

std::unique_ptr<sql::StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<sql::Session> session) {
  return session;
}

}  // namespace hermes::service
