#include "rtree/str_bulk_load.h"

#include "exec/parallel_for.h"
#include "gist/gist_page.h"

namespace hermes::rtree {

namespace {
std::vector<std::pair<geom::Mbb3D, uint64_t>> CollectSegments(
    const traj::SegmentArena& arena, exec::ExecContext* ctx) {
  std::vector<std::pair<geom::Mbb3D, uint64_t>> items(arena.num_segments());
  constexpr size_t kGrain = 1024;
  exec::ParallelFor(ctx, arena.num_segments(), kGrain,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (size_t r = begin; r < end; ++r) {
      items[r] = {arena.BoundsOf(r), PackSegmentRef(arena.RefOf(r))};
    }
  });
  return items;
}

size_t LeafCapacity(double fill_factor) {
  const size_t key_entry = 48 + 8;
  const size_t capacity =
      (storage::kPageSize - gist::GistNodeView::kHeaderSize) / key_entry;
  return std::max<size_t>(2, static_cast<size_t>(capacity * fill_factor));
}
}  // namespace

StatusOr<std::unique_ptr<RTree3D>> BuildSegmentIndex(
    storage::Env* env, const std::string& fname,
    const traj::SegmentArena& arena, double fill_factor, size_t cache_pages,
    exec::ExecContext* ctx) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RTree3D> index,
                          RTree3D::Open(env, fname, cache_pages));
  auto items = CollectSegments(arena, ctx);
  items = StrOrder(std::move(items), LeafCapacity(fill_factor), ctx);
  HERMES_RETURN_NOT_OK(index->BulkLoad(items, fill_factor));
  // Write the finished tree through to the file, so the file alone holds
  // the complete index: another handle opened over it (or a reopen after
  // this handle is dropped) must not miss pages still sitting dirty in
  // this handle's buffer pool.
  HERMES_RETURN_NOT_OK(index->Flush());
  return index;
}

StatusOr<std::unique_ptr<RTree3D>> BuildSegmentIndex(
    storage::Env* env, const std::string& fname,
    const traj::TrajectoryStore& store, double fill_factor,
    size_t cache_pages) {
  const traj::SegmentArena arena = traj::SegmentArena::Build(store);
  return BuildSegmentIndex(env, fname, arena, fill_factor, cache_pages,
                           nullptr);
}

StatusOr<std::unique_ptr<RTree3D>> BuildSegmentIndexByInsert(
    storage::Env* env, const std::string& fname,
    const traj::TrajectoryStore& store, size_t cache_pages) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<RTree3D> index,
                          RTree3D::Open(env, fname, cache_pages));
  const traj::SegmentArena arena = traj::SegmentArena::Build(store);
  for (size_t r = 0; r < arena.num_segments(); ++r) {
    HERMES_RETURN_NOT_OK(
        index->Insert(arena.BoundsOf(r), PackSegmentRef(arena.RefOf(r))));
  }
  return index;
}

}  // namespace hermes::rtree
