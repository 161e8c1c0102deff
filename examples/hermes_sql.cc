// Preparatory phase of the demo: the Hermes SQL API. Runs a scripted
// session exercising the datatypes and operands — including the paper's
// `SELECT QUT(D, Wi, We, tau, delta, t, d, gamma)` statement, the
// GUC-style settings registry (`SET` / `SHOW`), prepared statements, and
// streaming cursors — and then, with `-i`, drops into an interactive
// shell. Exits non-zero if any scripted statement fails, so CI can run it
// as an end-to-end smoke test.
//
//   $ ./hermes_sql            # scripted demo
//   $ ./hermes_sql -i         # interactive: type SQL, 'quit' to exit

#include <cstdio>
#include <iostream>
#include <string>

#include "datagen/maritime.h"
#include "sql/cursor.h"
#include "sql/executor.h"
#include "sql/statement_executor.h"

int main(int argc, char** argv) {
  using namespace hermes;
  sql::Session session;
  // Every statement below travels the backend-neutral
  // `sql::StatementExecutor` API — the same calls would drive a service
  // session, a shard coordinator, or a remote `net::Client`.
  sql::StatementExecutor* db = &session;
  int failures = 0;

  // Preload a maritime MOD so QUT/S2T have something realistic to chew on.
  datagen::MaritimeScenarioParams mp;
  mp.num_ships = 40;
  mp.seed = 4;
  auto maritime = datagen::GenerateMaritimeScenario(mp);
  if (maritime.ok()) {
    (void)session.RegisterStore("ships", std::move(maritime->store));
  } else {
    ++failures;
  }

  const char* script[] = {
      "SELECT STATS(ships);",
      "CREATE MOD demo;",
      "INSERT INTO demo VALUES (1, 0, 0, 0), (1, 60, 500, 0), "
      "(1, 120, 1000, 0), (2, 0, 0, 40), (2, 60, 500, 40), "
      "(2, 120, 1000, 40);",
      "SELECT STATS(demo);",
      "SELECT RANGE(demo, 0, 90);",
      "SELECT S2T(demo, 100, 200);",
      "SET hermes.sigma = 100;",   // Session defaults for S2T...
      "SET hermes.epsilon = 200;",
      "SELECT S2T(demo);",         // ...picked up when args are omitted.
      "SHOW hermes.sigma;",
      "SHOW ALL;",
      "SET hermes.threads = 4;",   // Analytic statements now fan out.
      "SELECT S2T(ships, 800, 1600);",
      "SELECT QUT(ships, 0, 7200, 3600, 900, 225, 1600, 16);",
      "SHOW STATS;",               // Typed per-phase breakdown.
  };
  for (const char* stmt : script) {
    std::printf("hermes=# %s\n", stmt);
    auto result = db->Execute(stmt);
    if (result.ok()) {
      std::printf("%s\n", result->ToString().c_str());
    } else {
      std::printf("ERROR: %s\n\n", result.status().ToString().c_str());
      ++failures;
    }
  }

  // Prepared statement: parse `RANGE($1, $2)` once, execute per window —
  // the shape a maintenance loop or bench uses to skip per-call parsing.
  std::printf("hermes=# PREPARE win AS SELECT RANGE(ships, $1, $2);\n");
  auto prepared = db->Prepare("SELECT RANGE(ships, $1, $2);");
  if (!prepared.ok()) {
    std::printf("ERROR: %s\n", prepared.status().ToString().c_str());
    ++failures;
  } else {
    for (double w0 = 0.0; w0 < 3 * 1800.0; w0 += 1800.0) {
      auto windowed = db->BindExecute(
          prepared->id,
          {sql::Value::Double(w0), sql::Value::Double(w0 + 1800.0)});
      if (!windowed.ok()) {
        std::printf("ERROR: %s\n", windowed.status().ToString().c_str());
        ++failures;
        continue;
      }
      std::printf("hermes=# EXECUTE win(%.0f, %.0f); -> %zu ships\n", w0,
                  w0 + 1800.0, windowed->rows.size());
    }
    (void)db->ClosePrepared(prepared->id);
  }

  // Streaming cursor: peel the first rows of a large member listing
  // without materializing the rest.
  std::printf("\nhermes=# DECLARE c CURSOR FOR "
              "SELECT S2T_MEMBERS(ships, 800, 1600); FETCH 5;\n");
  auto cursor = db->ExecuteCursor("SELECT S2T_MEMBERS(ships, 800, 1600);");
  if (!cursor.ok()) {
    std::printf("ERROR: %s\n", cursor.status().ToString().c_str());
    ++failures;
  } else {
    std::vector<sql::Value> row;
    for (int i = 0; i < 5; ++i) {
      auto more = (*cursor)->Next(&row);
      if (!more.ok()) {
        std::printf("ERROR: %s\n", more.status().ToString().c_str());
        ++failures;
        break;
      }
      if (!*more) break;
      std::printf("  cluster=%s object=%lld [%s, %s]\n",
                  row[0].ToString().c_str(),
                  static_cast<long long>(row[1].AsInt()),
                  row[2].ToString().c_str(), row[3].ToString().c_str());
    }
  }

  if (argc > 1 && std::string(argv[1]) == "-i") {
    std::printf("interactive mode; 'quit' to exit\n");
    std::string line;
    while (true) {
      std::printf("hermes=# ");
      if (!std::getline(std::cin, line) || line == "quit") break;
      if (line.empty()) continue;
      auto result = db->Execute(line);
      if (result.ok()) {
        std::printf("%s\n", result->ToString().c_str());
      } else {
        std::printf("ERROR: %s\n", result.status().ToString().c_str());
      }
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d statement(s) failed\n", failures);
    return 1;
  }
  return 0;
}
