#include "sql/executor.h"

#include <utility>

namespace hermes::sql {

namespace {

std::unique_ptr<RowCursor> Ack(std::string status) {
  return MakeTableCursor(AckTable(std::move(status)));
}

}  // namespace

// ---------------------------------------------------------------------------
// PreparedStatement
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(Session* session, Statement stmt)
    : session_(session),
      stmt_(std::move(stmt)),
      binds_(static_cast<size_t>(stmt_.num_params)),
      bound_(static_cast<size_t>(stmt_.num_params), false) {}

Status PreparedStatement::Bind(int index, Value v) {
  if (index < 1 || index > stmt_.num_params) {
    return Status::InvalidArgument(
        "bind index $" + std::to_string(index) + " out of range; statement "
        "has " + std::to_string(stmt_.num_params) + " parameter(s)");
  }
  binds_[index - 1] = std::move(v);
  bound_[index - 1] = true;
  return Status::OK();
}

StatusOr<std::unique_ptr<RowCursor>> PreparedStatement::ExecuteCursor() {
  for (size_t i = 0; i < bound_.size(); ++i) {
    if (!bound_[i]) {
      return Status::InvalidArgument("parameter $" + std::to_string(i + 1) +
                                     " not bound");
    }
  }
  return session_->ExecuteStatement(stmt_, binds_);
}

StatusOr<Table> PreparedStatement::Execute() {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RowCursor> cursor, ExecuteCursor());
  return cursor->ToTable();
}

// ---------------------------------------------------------------------------
// Session: construction
// ---------------------------------------------------------------------------

Session::Session(storage::Env* env, std::string data_dir)
    : Session(MakeEmbeddedBackend(env, std::move(data_dir)),
              HermesSettingDefaults{}) {}

Session::Session(std::unique_ptr<SessionBackend> backend,
                 const HermesSettingDefaults& defaults)
    : threads_(static_cast<size_t>(defaults.threads)),
      backend_(std::move(backend)) {
  if (threads_ > 1) exec_ = std::make_unique<exec::ExecContext>(threads_);
  // Registration of validated defaults cannot fail; the (void) cast
  // acknowledges the Status. The threads hook lets the backend drop
  // state built on the retiring context before the swap.
  (void)RegisterHermesSettings(&settings_, defaults, [this](size_t n) {
    if (n != threads_) {
      threads_ = n;
      backend_->OnThreadsChange();
      SwapExecContext(n, &exec_, &session_stats_);
    }
    return Status::OK();
  });
}

Status Session::RegisterStore(const std::string& name,
                              traj::TrajectoryStore store) {
  return backend_->RegisterStore(CanonicalModName(name), std::move(store));
}

std::shared_ptr<const traj::TrajectoryStore> Session::FindStore(
    const std::string& name) {
  auto store = backend_->Snapshot(CanonicalModName(name));
  return store.ok() ? std::move(*store) : nullptr;
}

// ---------------------------------------------------------------------------
// Session: entry points
// ---------------------------------------------------------------------------

StatusOr<Table> Session::Execute(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RowCursor> cursor,
                          ExecuteCursor(sql));
  return cursor->ToTable();
}

StatusOr<std::unique_ptr<RowCursor>> Session::ExecuteCursor(
    const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.num_params > 0) {
    return Status::InvalidArgument(
        "statement has $N placeholders; use Prepare and Bind");
  }
  return ExecuteStatement(stmt, {});
}

StatusOr<PreparedStatement> Session::PrepareStatement(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return PreparedStatement(this, std::move(stmt));
}

StatusOr<PreparedHandle> Session::Prepare(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(PreparedStatement ps, PrepareStatement(sql));
  const uint32_t id = next_id_++;
  PreparedHandle handle{id, ps.num_params()};
  prepared_.emplace(id, std::move(ps));
  return handle;
}

StatusOr<Table> Session::BindExecute(uint32_t id,
                                     const std::vector<Value>& binds) {
  auto it = prepared_.find(id);
  if (it == prepared_.end()) {
    return Status::NotFound("no prepared statement with id " +
                            std::to_string(id));
  }
  for (size_t i = 0; i < binds.size(); ++i) {
    HERMES_RETURN_NOT_OK(it->second.Bind(static_cast<int>(i) + 1, binds[i]));
  }
  return it->second.Execute();
}

Status Session::ClosePrepared(uint32_t id) {
  prepared_.erase(id);
  return Status::OK();
}

StatusOr<Table> Session::ExecuteScript(const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty script");
  Table last;
  for (size_t k = 0; k < stmts.size(); ++k) {
    auto prefix = [&] { return "statement " + std::to_string(k + 1) + ": "; };
    if (stmts[k].num_params > 0) {
      return Status::InvalidArgument(
          prefix() + "script statements cannot carry $N placeholders");
    }
    auto cursor = ExecuteStatement(stmts[k], {});
    if (!cursor.ok()) {
      return Status(cursor.status().code(),
                    prefix() + cursor.status().message());
    }
    auto table = (*cursor)->ToTable();
    if (!table.ok()) {
      return Status(table.status().code(),
                    prefix() + table.status().message());
    }
    last = std::move(*table);
  }
  return last;
}

// ---------------------------------------------------------------------------
// Session: statement dispatch
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<RowCursor>> Session::ExecuteStatement(
    const Statement& stmt, const std::vector<Value>& binds) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateMod:
      HERMES_RETURN_NOT_OK(backend_->CreateMod(stmt));
      return Ack("CREATE MOD " + stmt.mod);
    case Statement::Kind::kDropMod:
      HERMES_RETURN_NOT_OK(backend_->DropMod(stmt));
      return Ack("DROP MOD " + stmt.mod);
    case Statement::Kind::kLoadMod: {
      HERMES_ASSIGN_OR_RETURN(auto totals, backend_->LoadMod(stmt));
      Table table;
      table.columns = {{"status", ValueType::kString},
                       {"trajectories", ValueType::kInt},
                       {"points", ValueType::kInt}};
      table.rows = {{Value::Str("LOAD " + stmt.mod),
                     Value::Int(static_cast<int64_t>(totals.first)),
                     Value::Int(static_cast<int64_t>(totals.second))}};
      return MakeTableCursor(std::move(table));
    }
    case Statement::Kind::kInsert: {
      HERMES_ASSIGN_OR_RETURN(Table ack, backend_->Insert(stmt, binds));
      return MakeTableCursor(std::move(ack));
    }
    case Statement::Kind::kSet: {
      HERMES_ASSIGN_OR_RETURN(Value v, EvalScalar(stmt.set_value, binds));
      Status st = settings_.Set(stmt.setting, std::move(v));
      if (!st.ok()) {
        return Status(st.code(), st.message() + ErrorLocation(stmt.setting_pos,
                                                              stmt.setting));
      }
      // Echo the stored (coerced) value, not the literal spelling.
      HERMES_ASSIGN_OR_RETURN(Value stored, settings_.Get(stmt.setting));
      return Ack("SET " + stmt.setting + " = " + stored.ToString());
    }
    case Statement::Kind::kShow:
      return ExecuteShow(stmt);
    case Statement::Kind::kFlush:
      HERMES_RETURN_NOT_OK(backend_->Flush(stmt));
      return Ack("FLUSH");
    case Statement::Kind::kCheckpoint:
      HERMES_RETURN_NOT_OK(backend_->Checkpoint(stmt));
      return Ack("CHECKPOINT");
    case Statement::Kind::kSelect:
      return ExecuteSelect(stmt, binds);
  }
  return Status::Internal("unreachable");
}

StatusOr<std::unique_ptr<RowCursor>> Session::ExecuteShow(
    const Statement& stmt) {
  if (stmt.setting == "service.stats") {
    HERMES_ASSIGN_OR_RETURN(Table table, backend_->ServiceStats());
    return MakeTableCursor(std::move(table));
  }
  if (stmt.setting == "stats") {
    Table table = PhaseStatsTable(session_stats_, exec_.get());
    backend_->AppendStatsRows(&table);
    return MakeTableCursor(std::move(table));
  }
  HERMES_ASSIGN_OR_RETURN(Table table, SettingsShowTable(settings_, stmt));
  return MakeTableCursor(std::move(table));
}

StatusOr<std::unique_ptr<RowCursor>> Session::ExecuteSelect(
    const Statement& stmt, const std::vector<Value>& binds) {
  // When the MOD position itself was a `$N`, its binding names the
  // dataset.
  HERMES_ASSIGN_OR_RETURN(std::string mod, ResolveSelectModName(stmt, binds));

  // Evaluates all scalar arguments up front (they are few and cheap);
  // streaming applies to result rows, not inputs.
  std::vector<double> args;
  args.reserve(stmt.args.size());
  for (const auto& arg : stmt.args) {
    HERMES_ASSIGN_OR_RETURN(double v, EvalNumber(arg, binds));
    args.push_back(v);
  }

  QueryEnv env;
  env.exec = exec_.get();
  env.session_stats = &session_stats_;
  if (stmt.function == "QUT") {
    if (args.size() != 7) {
      return Status::InvalidArgument(
          "QUT(D, Wi, We, tau, delta, t, d, gamma) takes 7 numbers" +
          ErrorLocation(stmt.function_pos, stmt.function));
    }
    env.hot_index_budget = static_cast<size_t>(
        settings_.Get("hermes.hot_index_budget")->AsInt());
    const std::vector<double> tree_params(args.begin() + 2, args.end());
    return backend_->Qut(mod, args[0], args[1], tree_params, env);
  }

  HERMES_ASSIGN_OR_RETURN(SelectSource source,
                          backend_->Select(stmt, binds, mod));
  if (source.result != nullptr) return std::move(source.result);
  env.store = std::move(source.store);
  env.default_sigma = settings_.Get("hermes.sigma")->AsDouble();
  env.default_epsilon = settings_.Get("hermes.epsilon")->AsDouble();
  env.use_index = settings_.Get("hermes.use_index")->AsInt() != 0;
  return EvalSelectFunction(stmt.function, args, env,
                            ErrorLocation(stmt.function_pos, stmt.function));
}

}  // namespace hermes::sql
