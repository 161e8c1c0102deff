#ifndef HERMES_TRAJ_DISTANCE_H_
#define HERMES_TRAJ_DISTANCE_H_

#include "traj/sub_trajectory.h"
#include "traj/trajectory.h"

namespace hermes::traj {

/// \brief The time-aware distance between two (sub-)trajectories.
///
/// Defined over the intersection of the two lifespans: the positions are
/// synchronized by linear interpolation and the Euclidean separation is
/// averaged over time (piecewise-exact between breakpoints). When the
/// lifespans are disjoint the distance is infinite — objects that never
/// co-exist are never "close" in the time-aware sense. This is precisely
/// the property TRACLUS lacks (spatial-only comparison).
struct TimeAwareDistance {
  double avg = 0.0;            ///< Time-averaged synchronized separation.
  double min = 0.0;            ///< Minimum separation over the overlap.
  double overlap = 0.0;        ///< Common lifespan duration (seconds).
  double overlap_ratio = 0.0;  ///< overlap / min(duration_a, duration_b).

  bool Coexist() const { return overlap > 0.0; }
};

/// \brief The common lifespan [t0, t1] of two (sub-)trajectories.
/// `overlap` and `ratio` are 0 when the lifespans do not properly
/// intersect (t0 >= t1).
struct TimeOverlap {
  double t0 = 0.0;
  double t1 = 0.0;
  double overlap = 0.0;  ///< t1 - t0, or 0.
  double ratio = 0.0;    ///< overlap / min(duration_a, duration_b), or 0.

  bool Coexist() const { return overlap > 0.0; }
};

/// The overlap of lifespans [start_a, end_a] and [start_b, end_b]. The
/// distance functions below take every overlap decision through this one
/// computation (an input with fewer than 2 samples overlaps nothing), so
/// a caller that caches lifespans and pre-filters pairs with it decides
/// exactly as they do.
TimeOverlap ComputeTimeOverlap(double start_a, double end_a, double start_b,
                               double end_b);

/// \brief Computes the time-aware distance between two polylines.
///
/// The breakpoints are t0, every sample time of either input strictly
/// inside (t0, t1), and t1, in increasing order; a breakpoint within
/// `AlmostEqual` of the last kept one is dropped (so an interior sample
/// near t1 replaces t1). The two sample arrays are merge-walked once with
/// monotone cursors; no memory is allocated. Sample times must be
/// non-decreasing (duplicates allowed).
TimeAwareDistance ComputeTimeAwareDistance(const Trajectory& a,
                                           const Trajectory& b);

/// Convenience overload on sub-trajectories.
TimeAwareDistance ComputeTimeAwareDistance(const SubTrajectory& a,
                                           const SubTrajectory& b);

/// \brief Scalar distance used for clustering decisions: the average
/// synchronized separation, or +inf when the temporal overlap ratio is
/// below `min_overlap_ratio`. The ratio is tested before the separation
/// is integrated, so a rejected pair costs only the overlap.
double ClusteringDistance(const Trajectory& a, const Trajectory& b,
                          double min_overlap_ratio = 0.5);

/// \brief Similarity in [0, 1]: Gaussian kernel of the clustering distance
/// with bandwidth `sigma`, scaled by the temporal overlap ratio. 0 when the
/// trajectories never co-exist (tested before any integration, as in
/// `ClusteringDistance`).
double TimeAwareSimilarity(const Trajectory& a, const Trajectory& b,
                           double sigma, double min_overlap_ratio = 0.5);

}  // namespace hermes::traj

#endif  // HERMES_TRAJ_DISTANCE_H_
