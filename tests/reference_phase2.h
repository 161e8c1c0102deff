#ifndef HERMES_TESTS_REFERENCE_PHASE2_H_
#define HERMES_TESTS_REFERENCE_PHASE2_H_

// Test-only reference copies of the straightforward phase-2 code that the
// library's pruned versions must reproduce bit for bit:
//   - the time-aware distance kernel that collects every breakpoint into a
//     vector, sorts and deduplicates it, and looks each position up with
//     `Trajectory::PositionAt`;
//   - eager SaCO sampling, which recomputes every candidate's coverage
//     after each pick and scans all gains for the argmax;
//   - greedy clustering that integrates the distance of every
//     (sub-trajectory, representative) pair.
// They are deliberately unoptimized. Do not "fix" them to match the
// library: they are the oracle.

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_set>
#include <vector>

#include "clustering/greedy_clustering.h"
#include "common/mathutil.h"
#include "geom/moving_point.h"
#include "sampling/saco_sampling.h"
#include "traj/distance.h"

namespace hermes::reference {

inline traj::TimeAwareDistance TimeAwareDistance(const traj::Trajectory& a,
                                                 const traj::Trajectory& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  traj::TimeAwareDistance out;
  if (a.size() < 2 || b.size() < 2) {
    out.avg = out.min = kInf;
    return out;
  }
  const double t0 = std::max(a.StartTime(), b.StartTime());
  const double t1 = std::min(a.EndTime(), b.EndTime());
  if (t0 >= t1) {
    out.avg = out.min = kInf;
    out.overlap = 0.0;
    return out;
  }
  out.overlap = t1 - t0;
  const double min_dur = std::min(a.Duration(), b.Duration());
  out.overlap_ratio = min_dur > 0.0 ? out.overlap / min_dur : 0.0;

  std::vector<double> ts;
  ts.push_back(t0);
  for (const auto& p : a.samples()) {
    if (p.t > t0 && p.t < t1) ts.push_back(p.t);
  }
  for (const auto& p : b.samples()) {
    if (p.t > t0 && p.t < t1) ts.push_back(p.t);
  }
  ts.push_back(t1);
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [](double x, double y) { return AlmostEqual(x, y); }),
           ts.end());

  auto sample_at = [](const traj::Trajectory& t, double time) {
    auto p = t.PositionAt(time);
    return geom::Point3D{p->x, p->y, time};
  };
  double integral = 0.0;
  double min_d = kInf;
  for (size_t i = 0; i + 1 < ts.size(); ++i) {
    const double lo = ts[i];
    const double hi = ts[i + 1];
    if (hi <= lo) continue;
    geom::Segment3D sa(sample_at(a, lo), sample_at(a, hi));
    geom::Segment3D sb(sample_at(b, lo), sample_at(b, hi));
    const geom::MovingDistance md = geom::DistanceBetweenMoving(sa, sb);
    integral += md.avg_dist * (hi - lo);
    min_d = std::min(min_d, md.min_dist);
  }
  out.avg = integral / out.overlap;
  out.min = min_d;
  return out;
}

inline double ClusteringDistance(const traj::Trajectory& a,
                                 const traj::Trajectory& b,
                                 double min_overlap_ratio) {
  const traj::TimeAwareDistance d = reference::TimeAwareDistance(a, b);
  if (!d.Coexist() || d.overlap_ratio < min_overlap_ratio) {
    return std::numeric_limits<double>::infinity();
  }
  return d.avg;
}

inline double TimeAwareSimilarity(const traj::Trajectory& a,
                                  const traj::Trajectory& b, double sigma,
                                  double min_overlap_ratio) {
  const traj::TimeAwareDistance d = reference::TimeAwareDistance(a, b);
  if (!d.Coexist() || d.overlap_ratio < min_overlap_ratio) return 0.0;
  return GaussianKernel(d.avg, sigma) * Clamp(d.overlap_ratio, 0.0, 1.0);
}

inline std::vector<size_t> SelectRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const sampling::SamplingParams& params) {
  std::vector<size_t> chosen;
  const size_t n = subs.size();
  if (n == 0 || params.max_representatives == 0) return chosen;

  std::vector<double> base(n);
  std::vector<double> max_sim(n, 0.0);
  for (size_t i = 0; i < n; ++i) base[i] = sampling::BaseScore(subs[i]);

  double first_gain = 0.0;
  while (chosen.size() < params.max_representatives) {
    size_t best = n;
    double best_gain = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (max_sim[i] >= 1.0) continue;
      const double gain = base[i] * (1.0 - max_sim[i]);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == n || best_gain <= 0.0) break;
    if (chosen.empty()) {
      first_gain = best_gain;
    } else if (best_gain < params.gain_stop_ratio * first_gain) {
      break;
    }
    chosen.push_back(best);
    max_sim[best] = 1.0;
    for (size_t i = 0; i < n; ++i) {
      if (max_sim[i] >= 1.0) continue;
      const double sim = reference::TimeAwareSimilarity(
          subs[i].points, subs[best].points, params.sigma,
          params.min_overlap_ratio);
      max_sim[i] = std::max(max_sim[i], sim);
    }
  }
  return chosen;
}

inline clustering::ClusteringResult ClusterAroundRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const std::vector<size_t>& representative_indices,
    const clustering::ClusteringParams& params) {
  clustering::ClusteringResult out;
  std::unordered_set<size_t> rep_set(representative_indices.begin(),
                                     representative_indices.end());
  for (size_t rep : representative_indices) {
    clustering::Cluster c;
    c.representative = rep;
    c.members.push_back(rep);
    out.clusters.push_back(std::move(c));
  }
  for (size_t i = 0; i < subs.size(); ++i) {
    if (rep_set.count(i) > 0) continue;
    double best_dist = std::numeric_limits<double>::infinity();
    size_t best_cluster = out.clusters.size();
    for (size_t ci = 0; ci < out.clusters.size(); ++ci) {
      const size_t rep = out.clusters[ci].representative;
      const double d = reference::ClusteringDistance(
          subs[i].points, subs[rep].points, params.min_overlap_ratio);
      if (d < best_dist) {
        best_dist = d;
        best_cluster = ci;
      }
    }
    if (best_cluster < out.clusters.size() && best_dist <= params.epsilon) {
      out.clusters[best_cluster].members.push_back(i);
    } else {
      out.outliers.push_back(i);
    }
  }
  return out;
}

/// True when the two doubles have the same bits (so NaN equals NaN and +0
/// differs from -0).
inline bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// `SameBits` on every field.
inline bool SameBits(const traj::TimeAwareDistance& x,
                     const traj::TimeAwareDistance& y) {
  return SameBits(x.avg, y.avg) && SameBits(x.min, y.min) &&
         SameBits(x.overlap, y.overlap) &&
         SameBits(x.overlap_ratio, y.overlap_ratio);
}

}  // namespace hermes::reference

#endif  // HERMES_TESTS_REFERENCE_PHASE2_H_
