#include "traj/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/mathutil.h"
#include "geom/moving_point.h"

namespace hermes::traj {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Position of one polyline at non-decreasing query times: the cursor only
/// moves forward, and lands where `Trajectory::PositionAt`'s lower_bound
/// would (first sample with time >= t), so the interpolated position is
/// the same double.
class PositionCursor {
 public:
  explicit PositionCursor(const std::vector<geom::Point3D>& samples)
      : s_(samples) {}

  geom::Point3D At(double t) {
    const size_t n = s_.size();
    while (j_ < n && s_[j_].t < t) ++j_;
    geom::Point2D p;
    if (j_ == 0) {
      p = s_.front().xy();
    } else if (j_ == n) {
      p = s_.back().xy();
    } else {
      p = geom::InterpolateAt(s_[j_ - 1], s_[j_], t);
    }
    return {p.x, p.y, t};
  }

 private:
  const std::vector<geom::Point3D>& s_;
  size_t j_ = 0;
};

/// The lifespan overlap of two polylines; none when either has fewer than
/// 2 samples.
TimeOverlap OverlapOf(const Trajectory& a, const Trajectory& b) {
  if (a.size() < 2 || b.size() < 2) return TimeOverlap{};
  return ComputeTimeOverlap(a.StartTime(), a.EndTime(), b.StartTime(),
                            b.EndTime());
}

/// Index of the first sample with time > t0 (samples are non-decreasing).
size_t FirstAfter(const std::vector<geom::Point3D>& s, double t0) {
  size_t i = 0;
  while (i < s.size() && !(s[i].t > t0)) ++i;
  return i;
}

struct Separation {
  double integral = 0.0;
  double min = kInf;
};

/// Integrates the synchronized separation of `a` and `b` over [t0, t1]:
/// one exact moving-point step per elementary interval between
/// breakpoints (see `ComputeTimeAwareDistance` for the breakpoint rule).
Separation IntegrateSeparation(const Trajectory& a, const Trajectory& b,
                               double t0, double t1) {
  const std::vector<geom::Point3D>& sa = a.samples();
  const std::vector<geom::Point3D>& sb = b.samples();
  size_t ia = FirstAfter(sa, t0);
  size_t ib = FirstAfter(sb, t0);
  PositionCursor pos_a(sa);
  PositionCursor pos_b(sb);

  Separation out;
  double lo = t0;
  geom::Point3D a_lo = pos_a.At(t0);
  geom::Point3D b_lo = pos_b.At(t0);
  auto step_to = [&](double hi) {
    // Within (lo, hi) both objects move linearly, so the moving-point
    // analysis is exact for this elementary interval.
    const geom::Point3D a_hi = pos_a.At(hi);
    const geom::Point3D b_hi = pos_b.At(hi);
    const geom::MovingDistance md = geom::DistanceBetweenMoving(
        geom::Segment3D(a_lo, a_hi), geom::Segment3D(b_lo, b_hi));
    out.integral += md.avg_dist * (hi - lo);
    out.min = std::min(out.min, md.min_dist);
    lo = hi;
    a_lo = a_hi;
    b_lo = b_hi;
  };

  for (;;) {
    const bool a_in = ia < sa.size() && sa[ia].t < t1;
    const bool b_in = ib < sb.size() && sb[ib].t < t1;
    double next;
    if (a_in && (!b_in || sa[ia].t <= sb[ib].t)) {
      next = sa[ia++].t;
    } else if (b_in) {
      next = sb[ib++].t;
    } else {
      break;
    }
    if (!AlmostEqual(lo, next)) step_to(next);
  }
  if (!AlmostEqual(lo, t1)) step_to(t1);
  return out;
}
}  // namespace

TimeOverlap ComputeTimeOverlap(double start_a, double end_a, double start_b,
                               double end_b) {
  TimeOverlap out;
  out.t0 = std::max(start_a, start_b);
  out.t1 = std::min(end_a, end_b);
  if (out.t0 >= out.t1) return out;
  out.overlap = out.t1 - out.t0;
  const double min_dur = std::min(end_a - start_a, end_b - start_b);
  out.ratio = min_dur > 0.0 ? out.overlap / min_dur : 0.0;
  return out;
}

TimeAwareDistance ComputeTimeAwareDistance(const Trajectory& a,
                                           const Trajectory& b) {
  TimeAwareDistance out;
  const TimeOverlap ov = OverlapOf(a, b);
  if (!ov.Coexist()) {
    out.avg = out.min = kInf;
    return out;
  }
  out.overlap = ov.overlap;
  out.overlap_ratio = ov.ratio;
  const Separation sep = IntegrateSeparation(a, b, ov.t0, ov.t1);
  out.avg = sep.integral / out.overlap;
  out.min = sep.min;
  return out;
}

TimeAwareDistance ComputeTimeAwareDistance(const SubTrajectory& a,
                                           const SubTrajectory& b) {
  return ComputeTimeAwareDistance(a.points, b.points);
}

double ClusteringDistance(const Trajectory& a, const Trajectory& b,
                          double min_overlap_ratio) {
  const TimeOverlap ov = OverlapOf(a, b);
  if (!ov.Coexist() || ov.ratio < min_overlap_ratio) return kInf;
  return IntegrateSeparation(a, b, ov.t0, ov.t1).integral / ov.overlap;
}

double TimeAwareSimilarity(const Trajectory& a, const Trajectory& b,
                           double sigma, double min_overlap_ratio) {
  const TimeOverlap ov = OverlapOf(a, b);
  if (!ov.Coexist() || ov.ratio < min_overlap_ratio) return 0.0;
  const double avg = IntegrateSeparation(a, b, ov.t0, ov.t1).integral /
                     ov.overlap;
  return GaussianKernel(avg, sigma) * Clamp(ov.ratio, 0.0, 1.0);
}

}  // namespace hermes::traj
