#ifndef HERMES_RTREE_STR_BULK_LOAD_H_
#define HERMES_RTREE_STR_BULK_LOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "exec/exec_context.h"
#include "rtree/rtree3d.h"
#include "storage/env.h"
#include "traj/segment_arena.h"
#include "traj/trajectory_store.h"

namespace hermes::rtree {

/// \brief Datum encoding for segment indexes: trajectory id in the high 32
/// bits, segment index in the low 32.
inline uint64_t PackSegmentRef(const traj::SegmentRef& ref) {
  return (ref.trajectory << 32) | ref.segment_index;
}
inline traj::SegmentRef UnpackSegmentRef(uint64_t datum) {
  return {datum >> 32, static_cast<uint32_t>(datum & 0xFFFFFFFFu)};
}

/// \brief Builds a segment-level pg3D-Rtree over a columnar arena snapshot
/// using STR bulk loading (e.g. the caller-owned global index the
/// scenario-2 baseline range-queries). Item collection and the STR sort
/// phases fan out over `ctx`.
StatusOr<std::unique_ptr<RTree3D>> BuildSegmentIndex(
    storage::Env* env, const std::string& fname,
    const traj::SegmentArena& arena, double fill_factor = 0.9,
    size_t cache_pages = 512, exec::ExecContext* ctx = nullptr);

/// Store-walking convenience: snapshots an arena, then builds from it.
StatusOr<std::unique_ptr<RTree3D>> BuildSegmentIndex(
    storage::Env* env, const std::string& fname,
    const traj::TrajectoryStore& store, double fill_factor = 0.9,
    size_t cache_pages = 512);

/// \brief Same, via one-at-a-time inserts (the maintenance path); used to
/// compare insert vs bulk-load build costs.
StatusOr<std::unique_ptr<RTree3D>> BuildSegmentIndexByInsert(
    storage::Env* env, const std::string& fname,
    const traj::TrajectoryStore& store, size_t cache_pages = 512);

}  // namespace hermes::rtree

#endif  // HERMES_RTREE_STR_BULK_LOAD_H_
