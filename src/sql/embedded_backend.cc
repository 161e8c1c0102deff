#include <map>
#include <utility>

#include "core/retratree.h"
#include "sql/executor.h"

namespace hermes::sql {

namespace {

/// The embedded catalog: MODs owned by this session, each with a lazily
/// built ReTraTree; INSERT applies synchronously.
class EmbeddedBackend final : public SessionBackend {
 public:
  EmbeddedBackend(storage::Env* env, std::string data_dir)
      : data_dir_(std::move(data_dir)) {
    if (env == nullptr) {
      owned_env_ = storage::Env::NewMemEnv();
      env = owned_env_.get();
    }
    env_ = env;
  }

  Status CreateMod(const Statement& stmt) override {
    if (mods_.count(stmt.mod) > 0) {
      return Status::AlreadyExists("MOD " + stmt.mod + " exists");
    }
    mods_[stmt.mod] = ModEntry{};
    return Status::OK();
  }

  Status DropMod(const Statement& stmt) override {
    if (mods_.erase(stmt.mod) == 0) {
      return Status::NotFound("no MOD named " + stmt.mod);
    }
    return Status::OK();
  }

  StatusOr<std::pair<size_t, size_t>> LoadMod(const Statement& stmt) override {
    auto [it, inserted] = mods_.try_emplace(stmt.mod);
    Status load = it->second.store.LoadCsv(stmt.path);
    if (!load.ok()) {
      // A failed load must not leave a phantom empty MOD behind.
      if (inserted) mods_.erase(it);
      return load;
    }
    it->second.tree.reset();
    return std::make_pair(it->second.store.NumTrajectories(),
                          it->second.store.NumPoints());
  }

  StatusOr<Table> Insert(const Statement& stmt,
                         const std::vector<Value>& binds) override {
    HERMES_ASSIGN_OR_RETURN(ModEntry * entry, FindMod(stmt.mod));
    HERMES_ASSIGN_OR_RETURN(std::vector<traj::Trajectory> batch,
                            BuildInsertTrajectories(stmt, binds));
    size_t added = 0;
    for (traj::Trajectory& t : batch) {
      auto r = entry->store.Add(std::move(t));
      if (!r.ok()) return r.status();
      ++added;
    }
    entry->tree.reset();
    Table table;
    table.columns = {{"status", ValueType::kString},
                     {"trajectories_added", ValueType::kInt}};
    table.rows = {{Value::Str("INSERT " + stmt.mod),
                   Value::Int(static_cast<int64_t>(added))}};
    return table;
  }

  // Every INSERT already applied before its ack, so FLUSH has nothing to
  // wait for.
  Status Flush(const Statement& /*stmt*/) override { return Status::OK(); }

  // Durability is a service-layer concern (mirrors SHOW SERVICE STATS):
  // the embedded catalog has no WAL to checkpoint.
  Status Checkpoint(const Statement& /*stmt*/) override {
    return Status::NotSupported(
        "CHECKPOINT is only available through a service session");
  }

  StatusOr<std::unique_ptr<RowCursor>> Qut(
      const std::string& mod, double wi, double we,
      const std::vector<double>& tree_params, const QueryEnv& env) override {
    HERMES_ASSIGN_OR_RETURN(ModEntry * entry, FindMod(mod));
    if (entry->tree == nullptr || entry->tree_params != tree_params) {
      const core::ReTraTreeParams params = MakeQutTreeParams(tree_params);
      const std::string dir =
          data_dir_ + "/tree_" + std::to_string(tree_seq_++);
      HERMES_ASSIGN_OR_RETURN(
          entry->tree, core::ReTraTree::Open(env_, dir, params, env.exec));
      HERMES_RETURN_NOT_OK(entry->tree->InsertStore(entry->store, env.exec));
      entry->tree_params = tree_params;
      // Same coverage as the S2T path: without a live context (which
      // records for itself) the fresh tree's cumulative S2T timings — and
      // the batch-ingest phase split — are exactly this build's; archive
      // them for SHOW STATS.
      if (env.exec == nullptr) {
        const core::ReTraTreeStats stats = entry->tree->stats();
        stats.s2t_timings.ExportTo(env.session_stats);
        env.session_stats->RecordPhaseUs("ingest_split",
                                         stats.ingest_split_us);
        env.session_stats->RecordPhaseUs("ingest_apply",
                                         stats.ingest_apply_us);
      }
    }
    // The budget knob applies on every query, not just at build time, so
    // `SET hermes.hot_index_budget = 0` cold-disables an existing tree.
    entry->tree->SetHotIndexBudget(env.hot_index_budget);
    return QutQuery(entry->tree.get(), wi, we, env.session_stats);
  }

  StatusOr<SelectSource> Select(const Statement& /*stmt*/,
                                const std::vector<Value>& /*binds*/,
                                const std::string& mod) override {
    HERMES_ASSIGN_OR_RETURN(auto store, Snapshot(mod));
    return SelectSource{std::move(store), nullptr};
  }

  StatusOr<Table> ServiceStats() override {
    return Status::NotSupported(
        "SHOW SERVICE STATS needs a service session "
        "(service::Server::Connect); this is an embedded sql::Session");
  }

  // Hot/cold tier counters ride along after the phase timings, summed
  // over every built tree (counter value in the total_us column).
  void AppendStatsRows(Table* table) override {
    core::HotTierStats tier;
    for (const auto& [name, entry] : mods_) {
      if (entry.tree != nullptr) {
        AccumulateHotTierStats(entry.tree->hot_stats(), &tier);
      }
    }
    AppendHotTierRows(tier, table);
  }

  // Lazily built trees hold the retiring context: drop them.
  void OnThreadsChange() override {
    for (auto& [name, entry] : mods_) {
      entry.tree.reset();
      entry.tree_params.clear();
    }
  }

  Status RegisterStore(const std::string& mod,
                       traj::TrajectoryStore store) override {
    ModEntry entry;
    entry.store = std::move(store);
    mods_[mod] = std::move(entry);
    return Status::OK();
  }

  // The catalog outlives the session's cursors by contract, so a
  // non-owning handle suffices.
  StatusOr<std::shared_ptr<const traj::TrajectoryStore>> Snapshot(
      const std::string& mod) override {
    HERMES_ASSIGN_OR_RETURN(ModEntry * entry, FindMod(mod));
    return BorrowStore(&entry->store);
  }

 private:
  struct ModEntry {
    traj::TrajectoryStore store;
    std::unique_ptr<core::ReTraTree> tree;
    /// (tau, delta, t, d, gamma) the tree was built with.
    std::vector<double> tree_params;
  };

  StatusOr<ModEntry*> FindMod(const std::string& name) {
    auto it = mods_.find(name);
    if (it == mods_.end()) return Status::NotFound("no MOD named " + name);
    return &it->second;
  }

  std::unique_ptr<storage::Env> owned_env_;
  storage::Env* env_;
  std::string data_dir_;
  std::map<std::string, ModEntry> mods_;
  uint64_t tree_seq_ = 0;
};

}  // namespace

std::unique_ptr<SessionBackend> MakeEmbeddedBackend(storage::Env* env,
                                                    std::string data_dir) {
  return std::make_unique<EmbeddedBackend>(env, std::move(data_dir));
}

}  // namespace hermes::sql
