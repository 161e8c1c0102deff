#ifndef HERMES_SAMPLING_SACO_SAMPLING_H_
#define HERMES_SAMPLING_SACO_SAMPLING_H_

#include <vector>

#include "traj/sub_trajectory.h"

namespace hermes::sampling {

/// \brief Parameters of the SaCO sampling step.
struct SamplingParams {
  /// Maximum number of representatives (|S| bound).
  size_t max_representatives = 32;
  /// Stop when the next marginal gain drops below this fraction of the
  /// first pick's gain.
  double gain_stop_ratio = 0.05;
  /// Similarity bandwidth (same spatial unit as voting sigma).
  double sigma = 100.0;
  /// Minimum temporal overlap ratio for two sub-trajectories to be
  /// considered similar at all.
  double min_overlap_ratio = 0.5;
};

/// \brief Greedy voting-and-coverage sampling: repeatedly selects the
/// sub-trajectory maximizing
///   gain(r) = V̄(r) · duration(r) · (1 − max_{s∈S} sim(r, s)),
/// i.e. highly voted sub-trajectories that cover parts of the
/// spatio-temporal domain not yet represented — the paper's "highly voted
/// trajectories ... which would cover the 3D space occupied by the entire
/// dataset as much as possible".
///
/// The selection is lazy (CELF): coverage only grows, so a gain computed
/// against the first picks bounds every later gain from above. Candidates
/// wait in a max-heap on (bound desc, index asc); the top one is brought
/// up to date against the picks made since its bound was computed, and is
/// chosen once its bound is current. This picks exactly what a full scan
/// of all gains after every pick would (ties to the lowest index), with
/// far fewer similarity evaluations. A candidate whose similarity to a
/// pick reaches 1 is never chosen.
///
/// Returns indices into `subs`, in selection order.
std::vector<size_t> SelectRepresentatives(
    const std::vector<traj::SubTrajectory>& subs, const SamplingParams& params);

/// The base score used by the greedy selection (exposed for tests).
double BaseScore(const traj::SubTrajectory& st);

}  // namespace hermes::sampling

#endif  // HERMES_SAMPLING_SACO_SAMPLING_H_
