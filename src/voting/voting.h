#ifndef HERMES_VOTING_VOTING_H_
#define HERMES_VOTING_VOTING_H_

#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "exec/exec_context.h"
#include "rtree/mem_rtree3d.h"
#include "traj/segment_arena.h"
#include "traj/trajectory_store.h"

namespace hermes::voting {

/// \brief Parameters of the NaTS voting process.
struct VotingParams {
  /// Gaussian bandwidth of the vote kernel, in spatial units (meters).
  double sigma = 100.0;
  /// Kernel truncation radius, in sigmas: trajectories farther than
  /// `cutoff_sigmas * sigma` everywhere during a segment's lifespan
  /// contribute a 0 vote. Keeping the kernel compact makes the naive and
  /// index-accelerated engines produce *identical* results.
  double cutoff_sigmas = 3.0;
  /// Minimum fraction of a segment's lifespan another trajectory must
  /// co-exist with to cast a vote.
  double min_overlap_ratio = 0.5;
};

/// \brief Per-trajectory voting descriptors: one value per 3D segment.
///
/// `votes[tid][i]` is the (fractional) number of other trajectories
/// co-moving with segment i of trajectory tid — the paper's "value ranging
/// from 0 to N ... how many trajectories co-move with that trajectory for a
/// certain period of time".
struct VotingResult {
  std::vector<std::vector<double>> votes;
  /// Candidate (segment, other-trajectory) pairs examined — the work metric
  /// the index reduces.
  uint64_t pairs_evaluated = 0;
  /// Wall time of the index probe phase (0 for the naive engine, which has
  /// no probe) and of the vote kernel — the S2T per-phase breakdown's
  /// sub-phases of `voting_us`.
  int64_t probe_us = 0;
  int64_t kernel_us = 0;

  double TotalVoting(traj::TrajectoryId tid) const;
  double MeanVoting(traj::TrajectoryId tid) const;
};

/// \brief Computes voting descriptors for every trajectory in the MOD.
///
/// Two engines with identical output:
///  - `ComputeVotingNaive` — the "corresponding PostgreSQL function":
///    every segment is compared against every other trajectory, O(S·N).
///  - `ComputeVotingIndexed` — the in-DBMS fast path: a pg3D-Rtree range
///    query (segment MBB expanded by the kernel truncation radius) prunes
///    the candidate set first. The index is one immutable in-memory
///    `rtree::MemRTree3D` over the same arena (see
///    `rtree::BuildMemSegmentIndex`); an index whose entry count differs
///    from the arena's segment count is rejected as stale.
///
/// Both consume a columnar `SegmentArena` snapshot and an optional
/// `ExecContext`. The vote kernel is partitioned by trajectory: every
/// trajectory's votes are produced by exactly one chunk with the same
/// per-segment, per-candidate accumulation order as the sequential engine,
/// so the result is bit-for-bit identical at any thread count.
///
/// The indexed engine's probe phase fans out too: every chunk probes the
/// one shared tree concurrently (`MemRTree3D::SearchInto` is const and
/// lock-free), and per-segment candidate lists (sorted + deduplicated per
/// segment) are stitched back in segment order — so the CSR candidate
/// structure, and with it the votes, stay bit-identical at any thread
/// count.
StatusOr<VotingResult> ComputeVotingNaive(const traj::SegmentArena& arena,
                                          const traj::TrajectoryStore& store,
                                          const VotingParams& params,
                                          exec::ExecContext* ctx = nullptr);

StatusOr<VotingResult> ComputeVotingIndexed(const traj::SegmentArena& arena,
                                            const traj::TrajectoryStore& store,
                                            const rtree::MemRTree3D& index,
                                            const VotingParams& params,
                                            exec::ExecContext* ctx = nullptr);

/// Store-walking convenience: snapshot an arena, then run the naive arena
/// engine sequentially (the pre-arena API surface).
StatusOr<VotingResult> ComputeVotingNaive(const traj::TrajectoryStore& store,
                                          const VotingParams& params);

/// Convenience: snapshots an arena and builds a temporary segment index
/// over it, then runs the indexed engine sequentially.
StatusOr<VotingResult> ComputeVoting(const traj::TrajectoryStore& store,
                                     const VotingParams& params);

/// \brief Vote cast by trajectory `other` for segment `seg`: the truncated
/// Gaussian kernel of their time-synchronized average distance during the
/// segment's lifespan. Exposed for tests.
double VoteFor(const geom::Segment3D& seg, const traj::Trajectory& other,
               const VotingParams& params);

}  // namespace hermes::voting

#endif  // HERMES_VOTING_VOTING_H_
