// Naive-vs-indexed voting parity across the three synthetic movement
// domains (aircraft terminal area, maritime lanes, urban grid), at 1, 4 and
// 7 threads: the in-DBMS fast path must be a pure optimization — identical
// `VotingResult`s, and bit-for-bit reproducibility at any thread count.

#include <gtest/gtest.h>

#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "exec/exec_context.h"
#include "rtree/mem_rtree3d.h"
#include "traj/segment_arena.h"
#include "voting/voting.h"

namespace hermes::voting {
namespace {

struct Scenario {
  const char* name;
  traj::TrajectoryStore store;
  VotingParams params;
};

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;

  {
    datagen::AircraftScenarioParams p =
        datagen::AircraftScenarioParams::Default();
    p.num_flights = 24;
    p.sample_dt = 30.0;
    p.seed = 5;
    auto s = datagen::GenerateAircraftScenario(p);
    VotingParams vp;
    vp.sigma = 1500.0;
    vp.min_overlap_ratio = 0.3;
    scenarios.push_back({"aircraft", std::move(s->store), vp});
  }
  {
    datagen::MaritimeScenarioParams p;
    p.num_ships = 20;
    p.sample_dt = 240.0;
    p.seed = 6;
    auto s = datagen::GenerateMaritimeScenario(p);
    VotingParams vp;
    vp.sigma = 800.0;
    vp.min_overlap_ratio = 0.3;
    scenarios.push_back({"maritime", std::move(s->store), vp});
  }
  {
    datagen::UrbanScenarioParams p;
    p.num_vehicles = 25;
    p.sample_dt = 15.0;
    p.seed = 7;
    auto s = datagen::GenerateUrbanScenario(p);
    VotingParams vp;
    vp.sigma = 120.0;
    vp.min_overlap_ratio = 0.3;
    scenarios.push_back({"urban", std::move(s->store), vp});
  }
  return scenarios;
}

/// Exact (bitwise) equality of two voting results.
void ExpectBitIdentical(const VotingResult& a, const VotingResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.votes.size(), b.votes.size()) << what;
  for (size_t tid = 0; tid < a.votes.size(); ++tid) {
    ASSERT_EQ(a.votes[tid].size(), b.votes[tid].size()) << what;
    for (size_t i = 0; i < a.votes[tid].size(); ++i) {
      EXPECT_EQ(a.votes[tid][i], b.votes[tid][i])
          << what << " tid=" << tid << " seg=" << i;
    }
  }
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated) << what;
}

TEST(VotingParityTest, NaiveAndIndexedAgreeAcrossScenariosAndThreads) {
  for (auto& sc : MakeScenarios()) {
    SCOPED_TRACE(sc.name);
    ASSERT_GT(sc.store.NumSegments(), 0u);

    const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);
    const auto index = rtree::BuildMemSegmentIndex(arena);

    exec::ExecContext one(1);
    auto naive1 = ComputeVotingNaive(arena, sc.store, sc.params, &one);
    auto indexed1 =
        ComputeVotingIndexed(arena, sc.store, *index, sc.params, &one);
    ASSERT_TRUE(naive1.ok());
    ASSERT_TRUE(indexed1.ok());

    // Thread-count invariance is bit-exact by construction (each
    // trajectory's votes come from one chunk with sequential order). The
    // odd count leaves uneven chunk claims across the pool.
    for (size_t threads : {4u, 7u}) {
      exec::ExecContext ctx(threads);
      auto naive = ComputeVotingNaive(arena, sc.store, sc.params, &ctx);
      auto indexed =
          ComputeVotingIndexed(arena, sc.store, *index, sc.params, &ctx);
      ASSERT_TRUE(naive.ok());
      ASSERT_TRUE(indexed.ok());
      const std::string vs = " 1 vs " + std::to_string(threads) + " threads";
      ExpectBitIdentical(*naive1, *naive, "naive" + vs);
      ExpectBitIdentical(*indexed1, *indexed, "indexed" + vs);
    }

    // Engine parity: the pruned candidate set must not lose any voter
    // (pairs differ — that is the point of the index — but votes match;
    // non-candidates contribute exactly 0, so sums are bitwise equal).
    ASSERT_EQ(naive1->votes.size(), indexed1->votes.size());
    for (size_t tid = 0; tid < naive1->votes.size(); ++tid) {
      ASSERT_EQ(naive1->votes[tid].size(), indexed1->votes[tid].size());
      for (size_t i = 0; i < naive1->votes[tid].size(); ++i) {
        EXPECT_DOUBLE_EQ(naive1->votes[tid][i], indexed1->votes[tid][i])
            << sc.name << " tid=" << tid << " seg=" << i;
      }
    }
    EXPECT_LE(indexed1->pairs_evaluated, naive1->pairs_evaluated);
  }
}

TEST(VotingParityTest, StoreOverloadsMatchArenaEngines) {
  auto scenarios = MakeScenarios();
  auto& sc = scenarios.front();
  const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);
  auto via_store = ComputeVotingNaive(sc.store, sc.params);
  auto via_arena = ComputeVotingNaive(arena, sc.store, sc.params, nullptr);
  ASSERT_TRUE(via_store.ok());
  ASSERT_TRUE(via_arena.ok());
  ExpectBitIdentical(*via_store, *via_arena, "store vs arena overload");
}

TEST(VotingParityTest, StaleArenaIsRejected) {
  auto scenarios = MakeScenarios();
  auto& sc = scenarios.back();
  const traj::SegmentArena arena = traj::SegmentArena::Build(sc.store);
  traj::Trajectory extra(999);
  ASSERT_TRUE(extra.Append({0, 0, 0}).ok());
  ASSERT_TRUE(extra.Append({10, 10, 10}).ok());
  ASSERT_TRUE(sc.store.Add(std::move(extra)).ok());
  EXPECT_TRUE(ComputeVotingNaive(arena, sc.store, sc.params, nullptr)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace hermes::voting
