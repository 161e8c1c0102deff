#include "sampling/saco_sampling.h"

#include <algorithm>

#include "traj/distance.h"

namespace hermes::sampling {

namespace {

/// One candidate in the lazy-greedy heap: an upper bound on its current
/// gain, valid as of the first `seen` chosen representatives.
struct Candidate {
  double bound;
  size_t index;
  size_t seen;
};

/// Heap order: larger bound first, then lower index — the same tie rule
/// as a strict `>` scan in index order.
bool HeapLess(const Candidate& x, const Candidate& y) {
  if (x.bound != y.bound) return x.bound < y.bound;
  return x.index > y.index;
}

}  // namespace

double BaseScore(const traj::SubTrajectory& st) {
  // Voting-weighted duration: a long, highly co-moved piece is the best
  // cluster seed. Degenerate (instantaneous) pieces score 0.
  return st.mean_voting * st.Duration();
}

std::vector<size_t> SelectRepresentatives(
    const std::vector<traj::SubTrajectory>& subs,
    const SamplingParams& params) {
  std::vector<size_t> chosen;
  const size_t n = subs.size();
  if (n == 0 || params.max_representatives == 0) return chosen;

  // gain(i) = base(i) * (1 - max_sim(i)) with max_sim(i) the largest
  // similarity to a chosen representative. max_sim only grows, so a gain
  // computed against the first `seen` picks bounds every later gain from
  // above. Candidates with base <= 0 can never have a positive gain.
  std::vector<double> base(n);
  std::vector<double> max_sim(n, 0.0);
  std::vector<Candidate> heap;
  for (size_t i = 0; i < n; ++i) {
    base[i] = BaseScore(subs[i]);
    if (base[i] > 0.0) heap.push_back({base[i], i, 0});
  }
  std::make_heap(heap.begin(), heap.end(), HeapLess);

  double first_gain = 0.0;
  while (chosen.size() < params.max_representatives && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), HeapLess);
    Candidate top = heap.back();
    heap.pop_back();
    const size_t i = top.index;
    if (top.seen < chosen.size()) {
      // Stale: fold in the representatives chosen since, then re-queue.
      for (size_t r = top.seen; r < chosen.size(); ++r) {
        const double sim = traj::TimeAwareSimilarity(
            subs[i].points, subs[chosen[r]].points, params.sigma,
            params.min_overlap_ratio);
        max_sim[i] = std::max(max_sim[i], sim);
      }
      if (max_sim[i] >= 1.0) continue;  // Fully covered: never eligible.
      top.bound = base[i] * (1.0 - max_sim[i]);
      top.seen = chosen.size();
      heap.push_back(top);
      std::push_heap(heap.begin(), heap.end(), HeapLess);
      continue;
    }
    // Fresh: its bound is its exact gain, and no other candidate's gain
    // exceeds it (or ties it from a lower index), so it is the argmax.
    const double gain = top.bound;
    if (gain <= 0.0) break;
    if (chosen.empty()) {
      first_gain = gain;
    } else if (gain < params.gain_stop_ratio * first_gain) {
      break;
    }
    chosen.push_back(i);
  }
  return chosen;
}

}  // namespace hermes::sampling
