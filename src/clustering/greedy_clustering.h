#ifndef HERMES_CLUSTERING_GREEDY_CLUSTERING_H_
#define HERMES_CLUSTERING_GREEDY_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "traj/sub_trajectory.h"

namespace hermes::clustering {

/// \brief Parameters of the greedy clustering step of SaCO.
struct ClusteringParams {
  /// Maximum time-aware distance from a member to its representative.
  double epsilon = 200.0;
  /// Minimum temporal overlap ratio for membership.
  double min_overlap_ratio = 0.5;
};

/// \brief One cluster: a representative plus its members (indices into the
/// sub-trajectory array handed to `ClusterAroundRepresentatives`).
struct Cluster {
  size_t representative = 0;        ///< Index of the representative.
  std::vector<size_t> members;      ///< Includes the representative itself.
};

/// \brief Output of greedy clustering: clusters around representatives,
/// plus the sub-trajectories that fit nowhere (the outliers).
struct ClusteringResult {
  std::vector<Cluster> clusters;
  std::vector<size_t> outliers;

  size_t TotalMembers() const;
  /// cluster index for each sub-trajectory, or -1 for outliers.
  std::vector<int> Assignment(size_t n) const;
};

/// \brief Builds clusters "around" the representatives: every non-selected
/// sub-trajectory joins the representative with the smallest time-aware
/// distance if that distance is <= epsilon (the first such representative
/// on ties); otherwise it is an outlier.
///
/// Pairs that cannot decide membership are skipped before any distance is
/// integrated, without changing the result: a pair whose overlap ratio is
/// below `min_overlap_ratio` (its distance is +inf), and a pair whose 2-D
/// bounding boxes lie farther apart than epsilon (its average separation
/// is at least that gap). Sub-trajectories are assigned in parallel over
/// `ctx` by fixed index chunks; members and outliers are listed in index
/// order, so the result does not depend on the thread count.
ClusteringResult ClusterAroundRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const std::vector<size_t>& representative_indices,
    const ClusteringParams& params, exec::ExecContext* ctx = nullptr);

}  // namespace hermes::clustering

#endif  // HERMES_CLUSTERING_GREEDY_CLUSTERING_H_
