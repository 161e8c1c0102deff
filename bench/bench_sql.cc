// SQL surface overheads: what a client pays per statement, beyond the
// engine work itself. Three flavors of the same RANGE query:
//
//  - Execute:        tokenize + parse + execute, per call;
//  - Prepared:       parse once, Bind + execute per call;
//  - ExecuteCursor:  parse + execute, but rows pulled one at a time and
//                    the cursor dropped after the first k — the streaming
//                    win when a client only wants the head of a result.

#include <benchmark/benchmark.h>

#include "datagen/noise.h"
#include "sql/cursor.h"
#include "sql/executor.h"
#include "sql/statement_executor.h"

namespace {

using namespace hermes;

// All statement traffic goes through the backend-neutral
// `sql::StatementExecutor` — what the bench measures is the statement
// API any backend (embedded, service, shard coordinator, remote) pays.
sql::StatementExecutor& SharedExecutor() {
  static auto* session = [] {
    auto* s = new sql::Session();
    traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
        4, 64, 2000.0, 800.0, 10.0, 10.0, /*seed=*/17, /*jitter=*/1.0);
    (void)s->RegisterStore("lanes", std::move(lanes));
    return s;
  }();
  return *session;
}

void BM_SqlExecuteRange(benchmark::State& state) {
  sql::StatementExecutor& db = SharedExecutor();
  for (auto _ : state) {
    auto result = db.Execute("SELECT RANGE(lanes, 0, 1000);");
    if (!result.ok()) state.SkipWithError("RANGE failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SqlExecuteRange);

void BM_SqlPreparedRange(benchmark::State& state) {
  sql::StatementExecutor& db = SharedExecutor();
  auto prepared = db.Prepare("SELECT RANGE(lanes, $1, $2);");
  if (!prepared.ok()) {
    state.SkipWithError("prepare failed");
    return;
  }
  for (auto _ : state) {
    auto result = db.BindExecute(
        prepared->id, {sql::Value::Double(0.0), sql::Value::Double(1000.0)});
    if (!result.ok()) state.SkipWithError("RANGE failed");
    benchmark::DoNotOptimize(result);
  }
  (void)db.ClosePrepared(prepared->id);
}
BENCHMARK(BM_SqlPreparedRange);

// Args: rows fetched before the cursor is dropped.
void BM_SqlCursorRangeHead(benchmark::State& state) {
  sql::StatementExecutor& db = SharedExecutor();
  const auto head = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto cursor = db.ExecuteCursor("SELECT RANGE(lanes, 0, 1000);");
    if (!cursor.ok()) {
      state.SkipWithError("cursor failed");
      break;
    }
    std::vector<sql::Value> row;
    size_t fetched = 0;
    while (fetched < head) {
      auto more = (*cursor)->Next(&row);
      if (!more.ok() || !*more) break;
      ++fetched;
    }
    benchmark::DoNotOptimize(fetched);
  }
  state.counters["head_rows"] = static_cast<double>(head);
}
BENCHMARK(BM_SqlCursorRangeHead)->Arg(1)->Arg(16)->Arg(256);

void BM_SqlParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = sql::ParseStatement(
        "SELECT QUT(lanes, 0, 3600, 900, 300, 75, 150, 32);");
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_SqlParseOnly);

}  // namespace
