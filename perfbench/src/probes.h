// Run conditions recorded beside the metrics (metadata, never gated).

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct HostInfo {
  std::string simd_tier;         ///< simd::TierName(simd::ActiveTier())
  size_t nproc = 0;              ///< std::thread::hardware_concurrency
  size_t probe_threads = 0;      ///< threads of the parallel spin probe
  double effective_parallelism = 0.0;  ///< 1-thread vs N-thread spin
  double stream_gb_per_s = 0.0;  ///< streaming-read bandwidth
  double speed_loop_ms = 0.0;    ///< median speed reading of the run
  size_t speed_readings = 0;
};

/// Runs the spin and streaming-read probes (~0.5 s in total).
HostInfo ProbeHost(bool tiny);

/// Time of the speed loop, a fixed dependent integer chain of the
/// benchmark's own (best of 3 passes), in ms: ~1 ms on the reference
/// host. No library code runs in it, so only the host moves it.
double SpeedLoopMs();

/// The speed loop's time on the reference host. End-to-end timings are
/// reported as the host would have measured them had it run the loop in
/// this long (see ../README.md, "Host speed").
constexpr double kReferenceLoopMs = 1.0;

/// Takes speed readings into `out`: one on construction and on Read(),
/// and one whenever Tick() finds that kPeriodMs have passed since the
/// last. A closed loop calls Tick() between requests, so a reading never
/// overlaps one.
class SpeedReader {
 public:
  explicit SpeedReader(std::vector<double>* out) : out_(out) { Read(); }
  void Read() {
    out_->push_back(SpeedLoopMs());
    last_ = Clock::now();
  }
  void Tick() {
    if (Ms(last_, Clock::now()) >= kPeriodMs) Read();
  }

 private:
  static constexpr double kPeriodMs = 250.0;
  std::vector<double>* out_;
  Clock::time_point last_;
};

/// The host info as one JSON object.
std::string HostJson(const HostInfo& host);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
