#include "probes.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "simd/dispatch.h"

namespace perfbench {
namespace {

// A dependent integer chain the compiler cannot fold or vectorize.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double SpinWallMs(size_t threads, uint64_t iterations) {
  std::atomic<uint64_t> sink{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, iterations] {
      sink.fetch_add(Spin(iterations), std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
  return Ms(t0, Clock::now());
}

}  // namespace

double SpeedLoopMs() {
  volatile uint64_t iterations = 500'000;  // opaque: the loop is not folded
  volatile uint64_t sink = 0;              // keeps the chain alive
  double best_ms = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point t0 = Clock::now();
    sink = sink + Spin(iterations);
    const double ms = Ms(t0, Clock::now());
    if (pass == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

HostInfo ProbeHost(bool tiny) {
  HostInfo host;
  host.simd_tier = cbix::simd::TierName(cbix::simd::ActiveTier());
  host.nproc = std::thread::hardware_concurrency();
  host.probe_threads = LoadThreads();

  // Effective parallelism: N threads each doing the 1-thread work; on N
  // free cores the wall time stays flat and the ratio reads N. On a
  // virtual machine idle vCPUs can take a few hundred ms to get a
  // physical core, so one N-thread pass runs first, untimed.
  const uint64_t iterations = tiny ? 20'000'000 : 100'000'000;
  SpinWallMs(host.probe_threads, iterations);
  const double one = SpinWallMs(1, iterations);
  const double many = SpinWallMs(host.probe_threads, iterations);
  host.effective_parallelism =
      many > 0.0 ? static_cast<double>(host.probe_threads) * one / many : 0.0;

  // Streaming read over a buffer far larger than the last-level cache,
  // summed as integers so the loop vectorizes and memory sets the pace;
  // best of a few passes.
  const size_t words = (tiny ? 4u : 16u) << 20;
  std::vector<uint64_t> buf(words, 1);
  double best_ms = 0.0;
  volatile uint64_t sink = 0;  // keeps the sums alive
  for (int pass = 0; pass < 4; ++pass) {
    const Clock::time_point t0 = Clock::now();
    uint64_t sum = 0;
    for (const uint64_t w : buf) sum += w;
    const double ms = Ms(t0, Clock::now());
    sink = sink + sum;
    if (pass == 0 || ms < best_ms) best_ms = ms;
  }
  if (best_ms > 0.0) {
    host.stream_gb_per_s =
        static_cast<double>(words * sizeof(uint64_t)) / 1e6 / best_ms;
  }
  return host;
}

std::string HostJson(const HostInfo& host) {
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "{\"simd_tier\": \"%s\", \"nproc\": %zu, "
                "\"probe_threads\": %zu, \"effective_parallelism\": %.3f, "
                "\"host.stream_gb_per_s\": %.3f, \"speed_loop_ms\": %.4f, "
                "\"speed_readings\": %zu}",
                host.simd_tier.c_str(), host.nproc, host.probe_threads,
                host.effective_parallelism, host.stream_gb_per_s,
                host.speed_loop_ms, host.speed_readings);
  return buf;
}

}  // namespace perfbench
