#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "clustering/greedy_clustering.h"
#include "core/s2t_clustering.h"
#include "datagen/aircraft.h"
#include "datagen/maritime.h"
#include "datagen/urban.h"
#include "exec/exec_context.h"
#include "reference_phase2.h"
#include "sampling/saco_sampling.h"

namespace hermes {
namespace {

using clustering::ClusterAroundRepresentatives;
using clustering::ClusteringParams;
using sampling::SamplingParams;
using sampling::SelectRepresentatives;

/// Builds a sub-trajectory moving along x at `y`, over [t0, t0+dur].
traj::SubTrajectory Sub(traj::SubTrajectoryId id, double y, double t0,
                        double dur, double voting, int samples = 11) {
  traj::SubTrajectory st;
  st.id = id;
  st.object_id = id;
  st.mean_voting = voting;
  traj::Trajectory t(id);
  for (int i = 0; i < samples; ++i) {
    const double u = static_cast<double>(i) / (samples - 1);
    EXPECT_TRUE(t.Append({u * 1000.0, y, t0 + u * dur}).ok());
  }
  st.points = std::move(t);
  return st;
}

SamplingParams DefaultSampling() {
  SamplingParams p;
  p.max_representatives = 8;
  p.gain_stop_ratio = 0.05;
  p.sigma = 50.0;
  p.min_overlap_ratio = 0.5;
  return p;
}

// ---------------------------------------------------------------------------
// SaCO sampling
// ---------------------------------------------------------------------------

TEST(SamplingTest, EmptyInputNoReps) {
  EXPECT_TRUE(SelectRepresentatives({}, DefaultSampling()).empty());
}

TEST(SamplingTest, PicksHighestScoredFirst) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, /*voting=*/1.0));
  subs.push_back(Sub(1, 5000, 0, 100, /*voting=*/9.0));  // Far lane, hot.
  subs.push_back(Sub(2, 10000, 0, 100, /*voting=*/4.0));
  const auto reps = SelectRepresentatives(subs, DefaultSampling());
  ASSERT_FALSE(reps.empty());
  EXPECT_EQ(reps[0], 1u);
}

TEST(SamplingTest, CoverageSuppressesNearDuplicates) {
  // Two nearly identical hot sub-trajectories plus one distant cool one:
  // greedy must pick one of the twins, then the distant one.
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 9.0));
  subs.push_back(Sub(1, 1, 0, 100, 8.9));      // Twin of 0.
  subs.push_back(Sub(2, 8000, 0, 100, 3.0));   // Far away.
  SamplingParams p = DefaultSampling();
  p.max_representatives = 2;
  const auto reps = SelectRepresentatives(subs, p);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_EQ(reps[0], 0u);
  EXPECT_EQ(reps[1], 2u);  // Not the twin.
}

TEST(SamplingTest, MaxRepresentativesBound) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 20; ++i) {
    subs.push_back(Sub(i, i * 5000.0, 0, 100, 5.0));
  }
  SamplingParams p = DefaultSampling();
  p.max_representatives = 4;
  EXPECT_EQ(SelectRepresentatives(subs, p).size(), 4u);
}

TEST(SamplingTest, GainStopRatioTerminatesEarly) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 100.0));      // Dominant.
  subs.push_back(Sub(1, 9000, 0, 100, 0.5));     // Tiny gain.
  subs.push_back(Sub(2, 18000, 0, 100, 0.4));
  SamplingParams p = DefaultSampling();
  p.gain_stop_ratio = 0.05;  // 5% of first gain = 5.0 > 0.5.
  const auto reps = SelectRepresentatives(subs, p);
  EXPECT_EQ(reps.size(), 1u);
}

TEST(SamplingTest, ZeroVotingNeverSelected) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 0.0));
  subs.push_back(Sub(1, 100, 0, 100, 0.0));
  EXPECT_TRUE(SelectRepresentatives(subs, DefaultSampling()).empty());
}

TEST(SamplingTest, EqualScoresPickLowestIndexFirst) {
  // Equal base scores, pairwise dissimilar: every round is a tie, which
  // must go to the lowest remaining index.
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 6; ++i) subs.push_back(Sub(i, i * 9000.0, 0, 100, 3.0));
  SamplingParams p = DefaultSampling();
  p.max_representatives = 4;
  const std::vector<size_t> want = {0, 1, 2, 3};
  EXPECT_EQ(SelectRepresentatives(subs, p), want);
  EXPECT_EQ(reference::SelectRepresentatives(subs, p), want);
}

TEST(SamplingTest, ExactDuplicateNeverChosen) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 9.0));
  subs.push_back(Sub(1, 0, 0, 100, 8.0));  // Same movement as 0.
  subs.push_back(Sub(2, 9000, 0, 100, 1.0));
  SamplingParams p = DefaultSampling();
  p.gain_stop_ratio = 0.0;
  ASSERT_EQ(traj::TimeAwareSimilarity(subs[1].points, subs[0].points,
                                      p.sigma, p.min_overlap_ratio),
            1.0);
  const std::vector<size_t> want = {0, 2};
  EXPECT_EQ(SelectRepresentatives(subs, p), want);
  EXPECT_EQ(reference::SelectRepresentatives(subs, p), want);
}

TEST(SamplingTest, GainStopFiresAtTheSamePick) {
  // Overlapping lanes of falling score: coverage lowers later gains, and
  // the stop must cut the same prefix as the eager scan at every ratio.
  std::vector<traj::SubTrajectory> subs;
  const double votes[] = {10.0, 9.5, 6.0, 5.0, 2.0, 1.2, 0.6, 0.3};
  for (int i = 0; i < 8; ++i) {
    subs.push_back(Sub(i, i * 35.0, 0, 100, votes[i]));
  }
  for (double ratio : {0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 0.95}) {
    SamplingParams p = DefaultSampling();
    p.gain_stop_ratio = ratio;
    EXPECT_EQ(SelectRepresentatives(subs, p),
              reference::SelectRepresentatives(subs, p))
        << "gain_stop_ratio " << ratio;
  }
  // With no stop every piece is picked; at 10% the fifth pick stops.
  SamplingParams p = DefaultSampling();
  p.gain_stop_ratio = 0.0;
  EXPECT_EQ(SelectRepresentatives(subs, p).size(), subs.size());
  p.gain_stop_ratio = 0.1;
  EXPECT_EQ(SelectRepresentatives(subs, p).size(), 4u);
}

TEST(SamplingTest, MaxRepresentativesHonouredUnderCoverage) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 30; ++i) {
    subs.push_back(Sub(i, (i % 7) * 40.0 + i, i % 3 * 10.0, 100, 1.0 + i % 5));
  }
  for (size_t max_reps : {1u, 3u, 8u, 40u}) {
    SamplingParams p = DefaultSampling();
    p.max_representatives = max_reps;
    p.gain_stop_ratio = 0.0;
    const auto reps = SelectRepresentatives(subs, p);
    EXPECT_LE(reps.size(), max_reps);
    EXPECT_EQ(reps, reference::SelectRepresentatives(subs, p))
        << "max_representatives " << max_reps;
  }
}

TEST(SamplingTest, BaseScoreWeighsVotingAndDuration) {
  const auto short_hot = Sub(0, 0, 0, 10, 8.0);
  const auto long_warm = Sub(1, 0, 0, 100, 2.0);
  EXPECT_GT(sampling::BaseScore(long_warm), sampling::BaseScore(short_hot));
}

// ---------------------------------------------------------------------------
// Greedy clustering
// ---------------------------------------------------------------------------

TEST(ClusteringTest, MembersJoinNearestRep) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));      // Rep A.
  subs.push_back(Sub(1, 1000, 0, 100, 5.0));   // Rep B.
  subs.push_back(Sub(2, 30, 0, 100, 1.0));     // Near A.
  subs.push_back(Sub(3, 960, 0, 100, 1.0));    // Near B.
  ClusteringParams p{/*epsilon=*/100.0, /*min_overlap_ratio=*/0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0, 1}, p);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_TRUE(result.outliers.empty());
  const auto assign = result.Assignment(subs.size());
  EXPECT_EQ(assign[2], assign[0]);
  EXPECT_EQ(assign[3], assign[1]);
  EXPECT_NE(assign[0], assign[1]);
}

TEST(ClusteringTest, FarSubTrajectoriesAreOutliers) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  subs.push_back(Sub(1, 5000, 0, 100, 1.0));  // Way beyond epsilon.
  ClusteringParams p{100.0, 0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0}, p);
  ASSERT_EQ(result.clusters.size(), 1u);
  ASSERT_EQ(result.outliers.size(), 1u);
  EXPECT_EQ(result.outliers[0], 1u);
}

TEST(ClusteringTest, TemporalMisalignmentMakesOutliers) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  subs.push_back(Sub(1, 0, 500, 100, 1.0));  // Same path, later time.
  ClusteringParams p{100.0, 0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0}, p);
  EXPECT_EQ(result.outliers.size(), 1u);
}

TEST(ClusteringTest, RepresentativeIsMemberOfOwnCluster) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  const auto result =
      ClusterAroundRepresentatives(subs, {0}, ClusteringParams{});
  ASSERT_EQ(result.clusters.size(), 1u);
  ASSERT_EQ(result.clusters[0].members.size(), 1u);
  EXPECT_EQ(result.clusters[0].members[0], 0u);
}

TEST(ClusteringTest, NoRepsEverythingOutlier) {
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  subs.push_back(Sub(1, 10, 0, 100, 5.0));
  const auto result =
      ClusterAroundRepresentatives(subs, {}, ClusteringParams{});
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.outliers.size(), 2u);
}

TEST(ClusteringTest, AssignmentAndTotalsConsistent) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 12; ++i) {
    subs.push_back(Sub(i, (i % 3) * 1000.0 + (i / 3) * 10.0, 0, 100, 2.0));
  }
  ClusteringParams p{100.0, 0.5};
  const auto result = ClusterAroundRepresentatives(subs, {0, 1, 2}, p);
  EXPECT_EQ(result.TotalMembers() + result.outliers.size(), subs.size());
  const auto assign = result.Assignment(subs.size());
  size_t assigned = 0;
  for (int a : assign) assigned += (a >= 0);
  EXPECT_EQ(assigned, result.TotalMembers());
}

TEST(ClusteringTest, MemberAtExactlyEpsilonJoins) {
  // The 2-D boxes are exactly epsilon apart: the box-gap skip must not
  // drop a pair whose distance equals epsilon.
  std::vector<traj::SubTrajectory> subs;
  subs.push_back(Sub(0, 0, 0, 100, 5.0));
  subs.push_back(Sub(1, 100, 0, 100, 1.0));
  ClusteringParams p{/*epsilon=*/100.0, 0.5};
  ASSERT_EQ(traj::ClusteringDistance(subs[1].points, subs[0].points, 0.5),
            100.0);
  const auto result = ClusterAroundRepresentatives(subs, {0}, p);
  EXPECT_TRUE(result.outliers.empty());
  EXPECT_EQ(result.clusters[0].members, (std::vector<size_t>{0, 1}));
}

TEST(ClusteringTest, SameResultAtAnyThreadCount) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 300; ++i) {
    subs.push_back(
        Sub(i, (i % 5) * 300.0 + (i / 5) * 3.0, (i % 4) * 20.0, 100, 1.0));
  }
  ClusteringParams p{150.0, 0.5};
  const std::vector<size_t> reps = {0, 1, 2, 3, 4};
  const auto want = reference::ClusterAroundRepresentatives(subs, reps, p);
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    exec::ExecContext ctx(threads);
    const auto got = ClusterAroundRepresentatives(subs, reps, p, &ctx);
    ASSERT_EQ(got.clusters.size(), want.clusters.size());
    for (size_t c = 0; c < got.clusters.size(); ++c) {
      EXPECT_EQ(got.clusters[c].members, want.clusters[c].members)
          << "threads " << threads << " cluster " << c;
    }
    EXPECT_EQ(got.outliers, want.outliers) << "threads " << threads;
  }
}

// Epsilon sweep: more permissive epsilon never creates more outliers.
class EpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweep, OutliersMonotoneInEpsilon) {
  std::vector<traj::SubTrajectory> subs;
  for (int i = 0; i < 10; ++i) {
    subs.push_back(Sub(i, i * 40.0, 0, 100, 2.0));
  }
  ClusteringParams tight{GetParam(), 0.5};
  ClusteringParams loose{GetParam() * 2.0, 0.5};
  const auto a = ClusterAroundRepresentatives(subs, {0}, tight);
  const auto b = ClusterAroundRepresentatives(subs, {0}, loose);
  EXPECT_GE(a.outliers.size(), b.outliers.size());
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweep,
                         ::testing::Values(20.0, 50.0, 120.0, 250.0));

// ---------------------------------------------------------------------------
// Oracle: the pruned phase 2 against the reference copies
// ---------------------------------------------------------------------------

struct OracleScenario {
  std::string name;
  traj::TrajectoryStore store;
  double sigma;
  double epsilon;
};

std::vector<OracleScenario> OracleScenarios() {
  std::vector<OracleScenario> out;
  {
    datagen::AircraftScenarioParams p =
        datagen::AircraftScenarioParams::Default();
    p.num_flights = 40;
    p.sample_dt = 20.0;
    p.seed = 21;
    auto s = datagen::GenerateAircraftScenario(p);
    EXPECT_TRUE(s.ok());
    out.push_back({"aircraft", std::move(s->store), 1500.0, 3000.0});
  }
  {
    datagen::MaritimeScenarioParams p;
    p.num_ships = 24;
    p.sample_dt = 300.0;
    p.seed = 22;
    auto s = datagen::GenerateMaritimeScenario(p);
    EXPECT_TRUE(s.ok());
    out.push_back({"maritime", std::move(s->store), 800.0, 1600.0});
  }
  {
    datagen::UrbanScenarioParams p;
    p.num_vehicles = 30;
    p.sample_dt = 20.0;
    p.seed = 23;
    auto s = datagen::GenerateUrbanScenario(p);
    EXPECT_TRUE(s.ok());
    out.push_back({"urban", std::move(s->store), 120.0, 240.0});
  }
  return out;
}

void ExpectSameClustering(const clustering::ClusteringResult& got,
                          const clustering::ClusteringResult& want,
                          const std::string& where) {
  ASSERT_EQ(got.clusters.size(), want.clusters.size()) << where;
  for (size_t c = 0; c < got.clusters.size(); ++c) {
    EXPECT_EQ(got.clusters[c].representative, want.clusters[c].representative)
        << where << " cluster " << c;
    EXPECT_EQ(got.clusters[c].members, want.clusters[c].members)
        << where << " cluster " << c;
  }
  EXPECT_EQ(got.outliers, want.outliers) << where;
}

TEST(Phase2OracleTest, PrunedPipelineMatchesReference) {
  for (OracleScenario& sc : OracleScenarios()) {
    core::S2TParams params;
    params.SetSigma(sc.sigma).SetEpsilon(sc.epsilon);
    for (size_t threads : {1u, 4u}) {
      exec::ExecContext ctx(threads);
      const std::string where =
          sc.name + " threads " + std::to_string(threads);
      auto run = core::S2TClustering(params).Run(sc.store, &ctx);
      ASSERT_TRUE(run.ok()) << where;
      const auto& subs = run->sub_trajectories;
      ASSERT_GT(subs.size(), 20u) << where;
      const auto reps =
          reference::SelectRepresentatives(subs, params.sampling);
      EXPECT_EQ(run->representatives, reps) << where;
      EXPECT_GT(reps.size(), 1u) << where;
      ExpectSameClustering(
          run->clustering,
          reference::ClusterAroundRepresentatives(subs, reps,
                                                  params.clustering),
          where);

      // Deeper greedy runs and tighter / looser radii on the same pieces.
      for (double stop : {0.0, 0.2}) {
        for (double eps_scale : {0.25, 1.0, 4.0}) {
          sampling::SamplingParams sp = params.sampling;
          sp.max_representatives = 64;
          sp.gain_stop_ratio = stop;
          clustering::ClusteringParams cp = params.clustering;
          cp.epsilon *= eps_scale;
          const std::string w = where + " stop " + std::to_string(stop) +
                                " eps x" + std::to_string(eps_scale);
          const auto r = SelectRepresentatives(subs, sp);
          const auto ref_r = reference::SelectRepresentatives(subs, sp);
          EXPECT_EQ(r, ref_r) << w;
          ExpectSameClustering(
              ClusterAroundRepresentatives(subs, ref_r, cp, &ctx),
              reference::ClusterAroundRepresentatives(subs, ref_r, cp), w);
        }
      }
    }
  }
}

TEST(Phase2OracleTest, EveryPairDistanceMatchesReferenceBitwise) {
  for (OracleScenario& sc : OracleScenarios()) {
    core::S2TParams params;
    params.SetSigma(sc.sigma).SetEpsilon(sc.epsilon);
    auto run = core::S2TClustering(params).Run(sc.store);
    ASSERT_TRUE(run.ok()) << sc.name;
    const auto& subs = run->sub_trajectories;
    size_t coexisting = 0;
    size_t mismatches = 0;
    for (size_t i = 0; i < subs.size(); ++i) {
      for (size_t j = 0; j < subs.size(); ++j) {
        const traj::TimeAwareDistance got =
            traj::ComputeTimeAwareDistance(subs[i], subs[j]);
        const traj::TimeAwareDistance want =
            reference::TimeAwareDistance(subs[i].points, subs[j].points);
        mismatches += !reference::SameBits(got, want);
        coexisting += got.Coexist();
      }
    }
    EXPECT_EQ(mismatches, 0u) << sc.name;
    EXPECT_GT(coexisting, subs.size()) << sc.name;
  }
}

}  // namespace
}  // namespace hermes
