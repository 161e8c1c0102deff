#ifndef HERMES_BASELINES_RANGE_REBUILD_H_
#define HERMES_BASELINES_RANGE_REBUILD_H_

#include <memory>

#include "common/statusor.h"
#include "core/s2t_clustering.h"
#include "rtree/rtree3d.h"
#include "traj/trajectory_store.h"

namespace hermes::baselines {

/// \brief Phase timings of the scenario-2 alternative pipeline.
struct RangeRebuildTimings {
  int64_t range_query_us = 0;
  int64_t index_build_us = 0;
  int64_t s2t_us = 0;
  int64_t TotalUs() const {
    return range_query_us + index_build_us + s2t_us;
  }
};

/// \brief Output: the from-scratch S2T result over the window plus the
/// phase breakdown.
struct RangeRebuildResult {
  traj::TrajectoryStore window_store;  ///< Materialized range-query result.
  core::S2TResult s2t;
  RangeRebuildTimings timings;
};

/// \brief The alternative the demo compares QuT-Clustering against:
/// (i) temporal range query over a global segment index, (ii) build a
/// fresh 3D R-tree on the result, (iii) run S2T-Clustering on it. Steps
/// (ii) + (iii) are one `S2TClustering::Run`, whose in-memory index build
/// is reported as `index_build_us` and excluded from `s2t_us`.
///
/// `global_index` is a pre-built pg3D-Rtree over all of `store`'s segments
/// (its construction is amortized setup, not part of the per-query cost).
StatusOr<RangeRebuildResult> RunRangeRebuild(
    const traj::TrajectoryStore& store, const rtree::RTree3D& global_index,
    double wi, double we, const core::S2TParams& s2t_params);

}  // namespace hermes::baselines

#endif  // HERMES_BASELINES_RANGE_REBUILD_H_
