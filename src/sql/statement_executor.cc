#include "sql/statement_executor.h"

#include <utility>

namespace hermes::sql {

StatusOr<std::unique_ptr<RowCursor>> StatementExecutor::ExecuteCursor(
    const std::string& sql) {
  HERMES_ASSIGN_OR_RETURN(Table table, Execute(sql));
  return MakeTableCursor(std::move(table));
}

Status StatementExecutor::ClosePrepared(uint32_t /*id*/) {
  return Status::OK();
}

Status StatementExecutor::Flush() {
  HERMES_ASSIGN_OR_RETURN(Table ack, Execute("FLUSH;"));
  (void)ack;
  return Status::OK();
}

}  // namespace hermes::sql
