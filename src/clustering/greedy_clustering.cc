#include "clustering/greedy_clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "exec/parallel_for.h"
#include "traj/distance.h"

namespace hermes::clustering {

namespace {

/// Lifespan and 2-D bounding box of one sub-trajectory, read once per call.
struct Extent {
  bool valid = false;  ///< At least 2 samples (else every distance is +inf).
  double start = 0.0;
  double end = 0.0;
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;
};

Extent ExtentOf(const traj::Trajectory& t) {
  Extent e;
  e.valid = t.size() >= 2;
  if (t.empty()) return e;
  e.start = t.StartTime();
  e.end = t.EndTime();
  e.min_x = e.max_x = t.front().x;
  e.min_y = e.max_y = t.front().y;
  for (const geom::Point3D& p : t.samples()) {
    e.min_x = std::min(e.min_x, p.x);
    e.max_x = std::max(e.max_x, p.x);
    e.min_y = std::min(e.min_y, p.y);
    e.max_y = std::max(e.max_y, p.y);
  }
  return e;
}

/// Distance between two 2-D boxes (0 when they intersect).
double BoxGap(const Extent& a, const Extent& b) {
  const double dx = std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double dy = std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return std::sqrt(dx * dx + dy * dy);
}

/// Sub-trajectories per assignment chunk.
constexpr size_t kGrain = 64;

}  // namespace

size_t ClusteringResult::TotalMembers() const {
  size_t n = 0;
  for (const auto& c : clusters) n += c.members.size();
  return n;
}

std::vector<int> ClusteringResult::Assignment(size_t n) const {
  std::vector<int> a(n, -1);
  for (size_t ci = 0; ci < clusters.size(); ++ci) {
    for (size_t m : clusters[ci].members) a[m] = static_cast<int>(ci);
  }
  return a;
}

ClusteringResult ClusterAroundRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const std::vector<size_t>& representative_indices,
    const ClusteringParams& params, exec::ExecContext* ctx) {
  const size_t n = subs.size();
  const size_t k = representative_indices.size();
  ClusteringResult out;
  std::vector<char> is_rep(n, 0);
  out.clusters.reserve(k);
  for (size_t rep : representative_indices) {
    HERMES_CHECK(rep < n) << "representative " << rep << " out of range";
    is_rep[rep] = 1;
    Cluster c;
    c.representative = rep;
    c.members.push_back(rep);
    out.clusters.push_back(std::move(c));
  }

  std::vector<Extent> extents(n);
  double scale = 0.0;
  for (size_t i = 0; i < n; ++i) {
    extents[i] = ExtentOf(subs[i].points);
    const Extent& e = extents[i];
    if (!e.valid) continue;
    scale = std::max({scale, std::fabs(e.min_x), std::fabs(e.max_x),
                      std::fabs(e.min_y), std::fabs(e.max_y)});
  }
  // A box gap above `cutoff` proves the computed average separation is
  // above epsilon. The slack covers rounding in the interpolated
  // positions and in the integral, which scale with the coordinates.
  const double cutoff = params.epsilon * (1.0 + 1e-9) + 1e-9 * scale;

  // owner[i]: the cluster sub-trajectory i joins, or k for an outlier.
  std::vector<size_t> owner(n, k);
  exec::ParallelFor(ctx, n, kGrain, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      const Extent& e = extents[i];
      if (is_rep[i] || !e.valid) continue;
      double best_dist = std::numeric_limits<double>::infinity();
      size_t best_cluster = k;
      for (size_t ci = 0; ci < k; ++ci) {
        const size_t rep = representative_indices[ci];
        const Extent& r = extents[rep];
        if (!r.valid) continue;
        const traj::TimeOverlap ov =
            traj::ComputeTimeOverlap(e.start, e.end, r.start, r.end);
        if (!ov.Coexist() || ov.ratio < params.min_overlap_ratio) continue;
        if (BoxGap(e, r) > cutoff) continue;
        const double d = traj::ClusteringDistance(
            subs[i].points, subs[rep].points, params.min_overlap_ratio);
        if (d < best_dist) {
          best_dist = d;
          best_cluster = ci;
        }
      }
      if (best_cluster < k && best_dist <= params.epsilon) {
        owner[i] = best_cluster;
      }
    }
  });

  for (size_t i = 0; i < n; ++i) {
    if (is_rep[i]) continue;
    if (owner[i] < k) {
      out.clusters[owner[i]].members.push_back(i);
    } else {
      out.outliers.push_back(i);
    }
  }
  return out;
}

}  // namespace hermes::clustering
