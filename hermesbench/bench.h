#ifndef HERMESBENCH_BENCH_H_
#define HERMESBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hermesbench {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Directory, relative to the working directory, for span files and
/// scratch data.
inline constexpr char kOutDir[] = ".hermesbench_out";

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Threads for parallel statement execution: the machine's, at most 4.
size_t ClientThreads();

/// Linear-interpolated quantile `q` in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// One timed operation: when it completed, and its latency (or any value).
struct Sample {
  int64_t end_ns;
  double value;
};

/// Splits [start_ns, end_ns) into `slices` equal time slices and returns
/// the median, over slices, of each slice's `q`-quantile. A burst of
/// machine noise then moves one slice, not the run's figure.
double SlicedQuantile(const std::vector<Sample>& samples, int64_t start_ns,
                      int64_t end_ns, size_t slices, double q);

/// Median, over the same slices, of the samples completed per second.
double SlicedRate(const std::vector<Sample>& samples, int64_t start_ns,
                  int64_t end_ns, size_t slices);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// Deterministic 64-bit generator (splitmix64) for workload inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();

 private:
  uint64_t state_;
};

/// \brief The run's result: correctness, operation counts and metrics,
/// printed as the last line of standard output.
///
/// Workloads record every metric they measure; `Print` emits the
/// end-to-end set or the per-layer set, whichever the run asked for, and
/// fills per-layer metrics a workload does not exercise with 0 (the layer
/// did no work).
class Report {
 public:
  void Set(const std::string& name, double value);
  /// Marks the run incorrect; `why` goes to standard error.
  void Fail(const std::string& why);
  /// Counts one operation; a failed or refused one also counts failed.
  void CountOp(bool ok);

  uint64_t attempted() const { return attempted_.load(); }

  /// Writes the result JSON line; false when a required metric is missing.
  bool Print(const std::string& workload, bool trace) const;

 private:
  mutable std::mutex mu_;
  bool correct_ = true;
  std::map<std::string, double> values_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// \brief In-memory span recorder for the traced run.
///
/// A span is (id, parent, request, layer, name, start, end). The root span
/// of a request times the call the client made; its children time calls
/// the benchmark makes into one layer's public functions on the same
/// input. A layer's self time is the sum, over its spans, of the span's
/// duration minus its children's durations.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NewRequest();
  /// Records one finished span; returns its id (0 when disabled).
  uint64_t Record(uint64_t parent, uint64_t request, const std::string& layer,
                  const std::string& name, int64_t start_ns, int64_t end_ns);

  /// Mean self time per request, in microseconds, keyed by layer.
  std::map<std::string, double> SelfUsPerRequest() const;
  size_t size() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    uint64_t id, parent, request;
    std::string layer, name;
    int64_t start_ns, end_ns;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_request_ = 0;
};

/// Formats a double so that parsing it back yields the same value.
std::string Exact(double v);

int RunS2tBatch(const Args& args, Report* report, Tracer* tracer);
int RunQutStream(const Args& args, Report* report, Tracer* tracer);
int RunServeMixed(const Args& args, Report* report, Tracer* tracer);

}  // namespace hermesbench

#endif  // HERMESBENCH_BENCH_H_
