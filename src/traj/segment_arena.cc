#include "traj/segment_arena.h"

#include "common/clock.h"
#include "common/logging.h"
#include "traj/trajectory_store.h"

namespace hermes::traj {

const std::vector<size_t>& SegmentArena::offsets() const {
  static const std::vector<size_t> kEmpty;
  return offsets_ == nullptr ? kEmpty : *offsets_;
}

SegmentArena SegmentArena::Build(const TrajectoryStore& store,
                                 exec::ExecContext* ctx) {
  const int64_t start = NowUs();
  SegmentArena arena = store.ArenaSnapshot();
  if (ctx != nullptr) {
    ctx->stats().RecordPhaseUs("arena_build", NowUs() - start);
  }
  return arena;
}

void SegmentArenaBuilder::Append(const Trajectory& t, TrajectoryId tid) {
  common::MutexLock lock(&mu_);
  HERMES_CHECK(tid + 1 == offsets_.size())
      << "arena append out of order: tid " << tid << " with "
      << offsets_.size() - 1 << " trajectories appended";
  const auto& samples = t.samples();
  const size_t segs = t.NumSegments();
  for (size_t i = 0; i < segs; ++i) {
    if ((rows_ & SegmentBlock::kMask) == 0) {
      blocks_.push_back(std::make_shared<SegmentBlock>());
      ++counters_.blocks_allocated;
    }
    SegmentBlock& b = *blocks_.back();
    const size_t s = rows_ & SegmentBlock::kMask;
    b.ax[s] = samples[i].x;
    b.ay[s] = samples[i].y;
    b.t0[s] = samples[i].t;
    b.bx[s] = samples[i + 1].x;
    b.by[s] = samples[i + 1].y;
    b.t1[s] = samples[i + 1].t;
    b.owner[s] = tid;
    b.segment_index[s] = static_cast<uint32_t>(i);
    ++rows_;
  }
  offsets_.push_back(rows_);
  counters_.rows_appended += segs;
  if (epoch_valid_ && cached_epoch_.rows_ > 0 &&
      pins_->live.load(std::memory_order_relaxed) == 0) {
    // The epoch we are about to invalidate has no live readers: drop it
    // now so its offsets table (O(#trajectories)) is not retained across
    // an arbitrarily long gap until the next Snapshot. If a pin is still
    // live the shared state must stay; the snapshot holders keep their
    // own block/offsets references either way, this only frees the
    // builder's cache.
    cached_epoch_ = {};
    ++counters_.epochs_reclaimed;
  }
  epoch_valid_ = false;
}

SegmentArena SegmentArenaBuilder::Snapshot() const {
  common::MutexLock lock(&mu_);
  if (!epoch_valid_) {
    SegmentArena epoch;
    epoch.blocks_.assign(blocks_.begin(), blocks_.end());
    epoch.offsets_ = std::make_shared<const std::vector<size_t>>(offsets_);
    epoch.rows_ = rows_;
    cached_epoch_ = std::move(epoch);
    epoch_valid_ = true;
    ++counters_.epochs_published;
  }
  // The internal cache itself is never pinned; every handed-out snapshot
  // carries one pin that its copies share.
  SegmentArena out = cached_epoch_;
  out.pin_ = std::make_shared<const EpochPin>(pins_);
  return out;
}

SegmentArenaCounters SegmentArenaBuilder::counters() const {
  common::MutexLock lock(&mu_);
  SegmentArenaCounters out = counters_;
  out.epochs_pinned = pins_->live.load(std::memory_order_relaxed);
  out.epoch_pins = pins_->total.load(std::memory_order_relaxed);
  return out;
}

void SegmentArenaBuilder::CopyFrom(const SegmentArenaBuilder& o) {
  common::MutexLock lock(&o.mu_);
  blocks_ = o.blocks_;
  // Full blocks are immutable forever and may be shared; a partially
  // filled tail is still append-mutable in `o`, so the copy gets its own.
  if (!blocks_.empty() && (o.rows_ & SegmentBlock::kMask) != 0) {
    blocks_.back() = std::make_shared<SegmentBlock>(*o.blocks_.back());
  }
  offsets_ = o.offsets_;
  rows_ = o.rows_;
  counters_ = o.counters_;
  cached_epoch_ = o.cached_epoch_;
  epoch_valid_ = o.epoch_valid_;
  // Copies (store snapshots) stay in the source's pin lineage so the
  // service sees one fleet-wide pin count per MOD.
  pins_ = o.pins_;
}

void SegmentArenaBuilder::MoveFrom(SegmentArenaBuilder&& o) {
  common::MutexLock lock(&o.mu_);
  blocks_ = std::move(o.blocks_);
  offsets_ = std::move(o.offsets_);
  rows_ = o.rows_;
  counters_ = o.counters_;
  cached_epoch_ = std::move(o.cached_epoch_);
  epoch_valid_ = o.epoch_valid_;
  pins_ = o.pins_;
  o.blocks_.clear();
  o.offsets_ = {0};
  o.rows_ = 0;
  o.counters_ = {};
  o.cached_epoch_ = {};
  o.epoch_valid_ = false;
  o.pins_ = std::make_shared<EpochPinRegistry>();
}

}  // namespace hermes::traj
