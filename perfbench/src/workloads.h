// The three workloads (see ../README.md for what each measures and
// why). Each runs its set-up, the timed window with tracing off, and,
// when RunConfig::trace is set, a second window with tracing on that
// yields the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "core/serving.h"
#include "inputs.h"
#include "oracle.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {

Report RunImageQbe(const RunConfig& cfg);
Report RunVectorBatchScan(const RunConfig& cfg);
Report RunServeChurn(const RunConfig& cfg);

/// Fingerprints of the inputs each workload generates from `seed` at
/// tiny sizes (the self-test compares them across seeds).
uint64_t ImageQbeFingerprint(uint64_t seed);
uint64_t VectorBatchScanFingerprint(uint64_t seed);
uint64_t ServeChurnFingerprint(uint64_t seed);

// ---------------------------------------------------------------------
// Shared by the workloads.

constexpr size_t kK = 10;

std::vector<Hit> ToHits(const std::vector<cbix::CbirEngine::Match>& matches);

/// Exact equality of two answers (ids and distances, in order).
bool SameAnswer(const std::vector<Hit>& a, const std::vector<Hit>& b);

/// Share of `matches` whose label equals `label`, over k slots.
double PrecisionAtK(const std::vector<cbix::CbirEngine::Match>& matches,
                    int32_t label);

/// Adds the per-layer self times of the requests rooted at `root` in
/// `tracer`, plus the self-time sum check. `request_ms` is the summed
/// time of those requests as the benchmark's own timer measured it,
/// from a clock read before each root span opens to one after it
/// closes. Fails `report` when the self times do not add up to
/// `request_ms` within 1%, or a library span sticks out of the
/// benchmark span it was nested under.
void AddSelfTimes(const Tracer& tracer, const std::string& root,
                  double request_ms, Report* report);

/// trace.overhead_pct: traced against untraced median request latency.
double OverheadPct(double untraced_p50_ms, double traced_p50_ms);

/// Writes `data` (names "v<i>", cluster labels) as a saved engine file
/// with `config`, the index built first so a flat HNSW graph is saved
/// with it. Runs outside every timer.
cbix::Status WriteEngineFile(const VectorSet& data,
                             const cbix::EngineConfig& config,
                             const std::string& path);

/// Set-up step of the serving workloads: ServingEngine::Create + Load of
/// `path`, timed; appends the total to `setup_s` and the Load part to
/// `load_s`. On failure, fails `report` and returns null.
std::unique_ptr<cbix::ServingEngine> LoadServingEngine(
    const cbix::ServingOptions& options, const std::string& path,
    std::vector<double>* setup_s, std::vector<double>* load_s,
    Report* report);

/// Exact L2 distance from `q` to row `id` of `data` followed by
/// `extra` (ids past data.rows.size() index `extra`).
double ExactL2(const cbix::Vec& q, const VectorSet& data,
               const VectorSet* extra, uint32_t id);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
