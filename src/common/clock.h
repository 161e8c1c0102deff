#ifndef HERMES_COMMON_CLOCK_H_
#define HERMES_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace hermes {

/// \brief Monotonic timestamp in microseconds, for phase timings only.
/// The epoch is unspecified, so only differences are meaningful; results
/// must never depend on it (see the determinism linter's wall-clock rule).
inline int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace hermes

#endif  // HERMES_COMMON_CLOCK_H_
