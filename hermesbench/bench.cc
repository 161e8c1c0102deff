#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace hermesbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them, untraced. The
// headline operation is the workload's client-visible request: the
// S2T_MEMBERS statement (s2t_batch), the QUT read (qut_stream), the wire
// RANGE/STATS read (serve_mixed). Throughput is S2T statements per second,
// trajectories FLUSH-acked per second of writer time, and wire reads per
// second, respectively.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"throughput_per_s", "1/s"},
};

// Per-layer metrics: every workload reports all of them in the traced
// run; a layer the workload does not exercise reports 0.
constexpr MetricDef kPerLayer[] = {
    // Workload-level write-path results (traced run).
    {"flush_ms_p50", "ms"},
    {"flush_ms_p90", "ms"},
    {"wal_bytes_per_user_byte", "ratio"},
    {"recovery_s", "s"},
    {"trace.op_ms_p50", "ms"},
    {"trace.spans", "count"},
    // Self time per request, derived from the spans.
    {"self.net_us", "us"},
    {"self.shard_us", "us"},
    {"self.sql_us", "us"},
    {"self.service_us", "us"},
    {"self.core_us", "us"},
    // net
    {"net.rtt_us", "us"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"net.resp_bytes", "bytes"},
    // shard
    {"shard.exec_us", "us"},
    {"shard.rows_merged", "count"},
    // sql
    {"sql.parse_us", "us"},
    {"sql.s2t_overhead_ms", "ms"},
    {"sql.qut_overhead_us", "us"},
    // service
    {"service.snapshot_us", "us"},
    {"service.flush_wait_ms", "ms"},
    {"service.batches_per_drain", "ratio"},
    {"service.snapshots_published", "count"},
    {"service.epoch_pins", "count"},
    {"service.tree_catchups", "count"},
    // wal
    {"wal.syncs", "count"},
    {"wal.bytes_appended", "bytes"},
    {"wal.records_per_sync", "ratio"},
    {"wal.checkpoint_ms", "ms"},
    {"wal.checkpoints", "count"},
    {"wal.replayed_records", "count"},
    // core: S2T pipeline
    {"s2t.run_ms", "ms"},
    {"s2t.arena_ms", "ms"},
    {"s2t.index_build_ms", "ms"},
    {"s2t.voting_probe_ms", "ms"},
    {"s2t.voting_kernel_ms", "ms"},
    {"s2t.segmentation_ms", "ms"},
    {"s2t.sampling_ms", "ms"},
    {"s2t.clustering_ms", "ms"},
    {"s2t.sub_trajectories", "count"},
    {"s2t.clusters", "count"},
    {"s2t.outliers", "count"},
    // core: ReTraTree maintenance
    {"retratree.insert_batch_ms", "ms"},
    {"retratree.ingest_split_ms", "ms"},
    {"retratree.ingest_apply_ms", "ms"},
    {"retratree.s2t_runs", "count"},
    {"retratree.pieces_inserted", "count"},
    {"retratree.records_written", "count"},
    // core: QuT, hot/cold index tiers, storage
    {"qut.eval_us", "us"},
    {"qut.overlap_ms_p50", "ms"},
    {"qut.idle_ms_p50", "ms"},
    {"qut.hot_probes", "count"},
    {"qut.cold_probes", "count"},
    {"qut.hot_hit_ratio", "ratio"},
    {"qut.hot_promotions", "count"},
    {"qut.hot_demotions", "count"},
    {"qut.hot_index_bytes", "bytes"},
    {"storage.heap_page_fetches", "count"},
    {"gist.index_nodes_visited", "count"},
    {"gist.index_page_fetches", "count"},
    // load generator
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.offered_traj_per_s", "1/s"},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t ClientThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

std::vector<std::vector<double>> BySlice(const std::vector<Sample>& samples,
                                         int64_t start_ns, int64_t end_ns,
                                         size_t slices) {
  std::vector<std::vector<double>> out(slices);
  const double width = static_cast<double>(end_ns - start_ns) / slices;
  for (const Sample& s : samples) {
    const double pos = (s.end_ns - start_ns) / width;
    if (pos < 0 || pos >= static_cast<double>(slices)) continue;
    out[static_cast<size_t>(pos)].push_back(s.value);
  }
  return out;
}

}  // namespace

double SlicedQuantile(const std::vector<Sample>& samples, int64_t start_ns,
                      int64_t end_ns, size_t slices, double q) {
  std::vector<double> per_slice;
  for (auto& v : BySlice(samples, start_ns, end_ns, slices)) {
    if (!v.empty()) per_slice.push_back(Quantile(std::move(v), q));
  }
  return Quantile(std::move(per_slice), 0.5);
}

double SlicedRate(const std::vector<Sample>& samples, int64_t start_ns,
                  int64_t end_ns, size_t slices) {
  const double slice_s = (end_ns - start_ns) / 1e9 / slices;
  std::vector<double> per_slice;
  for (const auto& v : BySlice(samples, start_ns, end_ns, slices)) {
    per_slice.push_back(v.size() / slice_s);
  }
  return Quantile(std::move(per_slice), 0.5);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

void Report::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  std::cerr << "CHECK FAILED: " << why << "\n";
}

void Report::CountOp(bool ok) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
}

bool Report::Print(const std::string& workload, bool trace) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_.load()
     << ", \"failed\": " << failed_.load() << ", \"metrics\": {";
  bool ok = true;
  bool first = true;
  auto emit = [&](const MetricDef& m, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << (first ? "" : ", ") << "\"" << JsonEscape(m.name)
       << "\": {\"value\": " << buf << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) {
      auto it = values_.find(m.name);
      emit(m, it == values_.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) {
      auto it = values_.find(m.name);
      if (it == values_.end() || !(it->second > 0.0)) {
        std::cerr << workload << ": end-to-end metric " << m.name
                  << " was not measured\n";
        ok = false;
        continue;
      }
      emit(m, it->second);
    }
  }
  os << "}}";
  if (!ok) return false;
  std::cout << os.str() << std::endl;
  return true;
}

uint64_t Tracer::NewRequest() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_request_;
}

uint64_t Tracer::Record(uint64_t parent, uint64_t request,
                        const std::string& layer, const std::string& name,
                        int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, request, layer, name, start_ns, end_ns});
  return id;
}

std::map<std::string, double> Tracer::SelfUsPerRequest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  uint64_t requests = 0;
  for (const Span& s : spans_) {
    const int64_t own = (s.end_ns - s.start_ns) - child_ns[s.id];
    self[s.layer] += static_cast<double>(std::max<int64_t>(own, 0)) / 1e3;
    if (s.parent == 0) ++requests;
  }
  if (requests > 0) {
    for (auto& [layer, us] : self) us /= static_cast<double>(requests);
  }
  return self;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"request\": %" PRIu64
                 ", \"layer\": \"%s\", \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 "}\n",
                 s.id, s.parent, s.request, JsonEscape(s.layer).c_str(),
                 JsonEscape(s.name).c_str(), s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace hermesbench
