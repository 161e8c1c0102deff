#include "segmentation/nats.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/clock.h"
#include "common/logging.h"
#include "common/mathutil.h"
#include "exec/parallel_for.h"

namespace hermes::segmentation {

double EffectiveLambda(const std::vector<double>& votes,
                       const NatsParams& params) {
  const double var = Variance(votes);
  double lambda =
      params.lambda_scale * var * static_cast<double>(votes.size());
  if (lambda <= 0.0) {
    // Constant signal: every partition has zero SSE, so any positive
    // penalty selects the single-part optimum. Anchor the floor to the
    // configured bandwidth to stay clear of denormals when sigma is tiny.
    lambda = 1e-12 * std::max(params.sigma, 1e-3);
  }
  return lambda;
}

double SegmentationCost(const std::vector<double>& votes,
                        const std::vector<SegmentationPart>& parts,
                        double lambda) {
  const auto ps = PrefixSum(votes);
  const auto pq = PrefixSqSum(votes);
  double cost = lambda * static_cast<double>(parts.size());
  for (const auto& p : parts) {
    cost += RangeSse(ps, pq, p.first_segment, p.last_segment);
  }
  return cost;
}

std::vector<SegmentationPart> SegmentVotingSignal(
    const std::vector<double>& votes, const NatsParams& params) {
  const size_t m = votes.size();
  std::vector<SegmentationPart> out;
  if (m == 0) return out;

  const size_t w = std::max<size_t>(1, params.min_part_length);
  const double lambda = EffectiveLambda(votes, params);
  const auto ps = PrefixSum(votes);
  const auto pq = PrefixSqSum(votes);

  if (m < 2 * w) {
    // Too short to split: single part.
    SegmentationPart part{0, m - 1, 0.0};
    part.mean_voting = (ps[m] - ps[0]) / static_cast<double>(m);
    return {part};
  }

  // dp[j] = min cost of segmenting votes[0..j-1]; cut[j] = start of the
  // last part in the optimum for prefix j.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dp(m + 1, kInf);
  std::vector<size_t> cut(m + 1, 0);
  std::vector<size_t> parts_used(m + 1, 0);
  dp[0] = 0.0;
  for (size_t j = 1; j <= m; ++j) {
    // Last part is votes[i..j-1]; needs length >= w (or exactly the whole
    // prefix when the prefix itself is shorter than w — handled by i==0).
    for (size_t i = 0; i + 1 <= j; ++i) {
      const size_t len = j - i;
      if (len < w) continue;  // Interior parts must respect the min length.
      if (dp[i] == kInf) continue;
      if (params.max_parts > 0 && parts_used[i] + 1 > params.max_parts) {
        continue;
      }
      const double cost = dp[i] + RangeSse(ps, pq, i, j - 1) + lambda;
      if (cost < dp[j]) {
        dp[j] = cost;
        cut[j] = i;
        parts_used[j] = parts_used[i] + 1;
      }
    }
  }

  // Backtrack.
  size_t j = m;
  while (j > 0) {
    const size_t i = cut[j];
    SegmentationPart part{i, j - 1, 0.0};
    part.mean_voting = (ps[j] - ps[i]) / static_cast<double>(j - i);
    out.push_back(part);
    j = i;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

namespace {
void EnumeratePartitions(size_t m, size_t w, std::vector<size_t>* cuts,
                         size_t start,
                         const std::function<void(const std::vector<size_t>&)>&
                             emit) {
  // cuts holds part start indices; a part must have length >= w.
  if (start == m) {
    emit(*cuts);
    return;
  }
  for (size_t len = w; start + len <= m; ++len) {
    cuts->push_back(start);
    EnumeratePartitions(m, w, cuts, start + len, emit);
    cuts->pop_back();
  }
}
}  // namespace

std::vector<SegmentationPart> SegmentVotingSignalBruteForce(
    const std::vector<double>& votes, const NatsParams& params) {
  const size_t m = votes.size();
  if (m == 0) return {};
  const size_t w = std::max<size_t>(1, params.min_part_length);
  const double lambda = EffectiveLambda(votes, params);
  const auto ps = PrefixSum(votes);
  const auto pq = PrefixSqSum(votes);

  if (m < 2 * w) {
    SegmentationPart part{0, m - 1, (ps[m]) / static_cast<double>(m)};
    return {part};
  }

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<SegmentationPart> best;
  std::vector<size_t> cuts;
  EnumeratePartitions(m, w, &cuts, 0, [&](const std::vector<size_t>& starts) {
    if (params.max_parts > 0 && starts.size() > params.max_parts) return;
    double cost = lambda * static_cast<double>(starts.size());
    std::vector<SegmentationPart> parts;
    for (size_t k = 0; k < starts.size(); ++k) {
      const size_t first = starts[k];
      const size_t last = (k + 1 < starts.size()) ? starts[k + 1] - 1 : m - 1;
      cost += RangeSse(ps, pq, first, last);
      parts.push_back(
          {first, last,
           (ps[last + 1] - ps[first]) / static_cast<double>(last - first + 1)});
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(parts);
    }
  });
  return best;
}

std::vector<traj::SubTrajectory> SegmentStore(
    const traj::TrajectoryStore& store, const voting::VotingResult& voting,
    const NatsParams& params, exec::ExecContext* ctx,
    SegmentationTimings* timings) {
  HERMES_CHECK(voting.votes.size() == store.NumTrajectories())
      << "voting/store mismatch";
  const size_t n = store.NumTrajectories();

  // Pass 1: the per-trajectory DPs are independent — fan out, one chunk
  // owning each trajectory's part list.
  int64_t t0 = NowUs();
  std::vector<std::vector<SegmentationPart>> parts(n);
  exec::ParallelFor(ctx, n, /*grain=*/1,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (traj::TrajectoryId tid = begin; tid < end; ++tid) {
      if (store.Get(tid).NumSegments() == 0) continue;
      parts[tid] = SegmentVotingSignal(voting.votes[tid], params);
    }
  });
  const int64_t dp_us = NowUs() - t0;

  // Pass 2: prefix-sum part counts in trajectory order — base[tid] is the
  // first sub-trajectory id of trajectory tid, exactly the value a
  // sequential `next_id++` sweep would hand out — then materialize each
  // trajectory's pieces into its pre-assigned slots.
  t0 = NowUs();
  std::vector<size_t> base(n + 1, 0);
  for (size_t tid = 0; tid < n; ++tid) {
    base[tid + 1] = base[tid] + parts[tid].size();
  }
  std::vector<traj::SubTrajectory> subs(base[n]);
  exec::ParallelFor(ctx, n, /*grain=*/1,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
    for (traj::TrajectoryId tid = begin; tid < end; ++tid) {
      const traj::Trajectory& t = store.Get(tid);
      for (size_t k = 0; k < parts[tid].size(); ++k) {
        const SegmentationPart& part = parts[tid][k];
        traj::SubTrajectory& st = subs[base[tid] + k];
        st.id = base[tid] + k;
        st.source_trajectory = tid;
        st.object_id = t.object_id();
        st.first_sample_index = part.first_segment;
        st.mean_voting = part.mean_voting;
        traj::Trajectory piece(t.object_id());
        // Segments [first, last] cover samples [first, last+1].
        for (size_t s = part.first_segment; s <= part.last_segment + 1; ++s) {
          HERMES_CHECK_OK(piece.Append(t[s]));
        }
        st.points = std::move(piece);
      }
    }
  });
  const int64_t materialize_us = NowUs() - t0;

  if (ctx != nullptr) {
    ctx->stats().RecordPhaseUs("segmentation_dp", dp_us);
    ctx->stats().RecordPhaseUs("segmentation_materialize", materialize_us);
  }
  if (timings != nullptr) {
    timings->dp_us = dp_us;
    timings->materialize_us = materialize_us;
  }
  return subs;
}

}  // namespace hermes::segmentation
