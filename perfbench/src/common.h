// Shared plumbing of the perfbench harness: run configuration, the
// report every workload fills, sample statistics, and small helpers.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `from` to `to`.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes: every workload finishes in seconds (self-test mode).
  bool tiny = false;
  /// Directory for the engine files a workload writes and for the
  /// trace dump (created by the caller).
  std::string work_dir = ".";
};

/// Length of each timed window. A traced run measures for --seconds in
/// all: an untraced window (for trace.overhead_pct) and a traced one.
inline double WindowSeconds(const RunConfig& cfg) {
  return cfg.trace ? cfg.seconds / 2.0 : cfg.seconds;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `attempted` counts operations
/// (requests, batch calls, inserts, oracle checks are not operations);
/// `failed` counts operations that errored, came back degraded, or
/// disagreed with an oracle.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Host speed readings (SpeedLoopMs) taken through the run.
  std::vector<double> speed_loop_ms;

  void Fail(const std::string& why);
  void AddEndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void AddLayer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0;
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 if empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t h = 0xcbf29ce484222325ULL);

/// "<prefix><i>", the name a row is stored under.
inline std::string RowName(const char* prefix, size_t i) {
  std::string name(prefix);
  name += std::to_string(i);
  return name;
}

/// Worker threads the load may use: min(4, hardware concurrency).
size_t LoadThreads();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
