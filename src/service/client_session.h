#ifndef HERMES_SERVICE_CLIENT_SESSION_H_
#define HERMES_SERVICE_CLIENT_SESSION_H_

#include <memory>

#include "service/server.h"
#include "sql/executor.h"
#include "sql/statement_executor.h"

namespace hermes::service {

// A client session (`Server::Connect`) is a `sql::Session` over the
// server's *shared* catalog. It differs from the embedded session, by
// design, in what its backend does:
//
//  - MODs are shared across sessions; DDL is visible to everyone.
//  - `SELECT`s run against the MOD's *published snapshot*: immutable,
//    never blocking on — or blocked by — the ingest worker. Streaming
//    cursors keep their snapshot (and its pinned arena epoch) alive even
//    while newer epochs are published, so a cursor is never invalidated
//    by concurrent ingest.
//  - `INSERT INTO` enqueues onto the server's MPSC ingest queue and acks
//    with the queued count and a ticket; `FLUSH` blocks until everything
//    previously queued is applied and query-visible.
//  - `QUT` runs over the MOD's shared tree, on the server's context.
//  - `CHECKPOINT` and `SHOW SERVICE STATS` reach the server.
//
// `SET`/`SHOW` operate on the session's own settings registry (seeded
// from the server defaults); `hermes.threads` swaps only this session's
// `ExecContext`. One session serves one client thread (like a PostgreSQL
// backend); different sessions run fully concurrently. The server must
// outlive the session and every cursor it returned.

/// A connected service session as the backend-neutral
/// `sql::StatementExecutor` (which it already is), so callers — the
/// shard coordinator, examples, benches — spell every backend alike.
std::unique_ptr<sql::StatementExecutor> MakeStatementExecutor(
    std::unique_ptr<sql::Session> session);

}  // namespace hermes::service

#endif  // HERMES_SERVICE_CLIENT_SESSION_H_
