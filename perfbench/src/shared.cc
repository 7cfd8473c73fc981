// Helpers shared by the workloads (declared in workloads.h).

#include <cmath>

#include "workloads.h"

namespace perfbench {

std::vector<Hit> ToHits(const std::vector<cbix::CbirEngine::Match>& matches) {
  std::vector<Hit> hits;
  hits.reserve(matches.size());
  for (const auto& m : matches) hits.push_back({m.id, m.distance});
  return hits;
}

bool SameAnswer(const std::vector<Hit>& a, const std::vector<Hit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].distance != b[i].distance) return false;
  }
  return true;
}

double PrecisionAtK(const std::vector<cbix::CbirEngine::Match>& matches,
                    int32_t label) {
  size_t same = 0;
  for (size_t i = 0; i < matches.size() && i < kK; ++i) {
    same += matches[i].label == label;
  }
  return static_cast<double>(same) / static_cast<double>(kK);
}

void AddSelfTimes(const Tracer& tracer, const std::string& root,
                  double request_ms, Report* report) {
  constexpr double kTolerancePct = 1.0;
  const Tracer::LayerTimes t = tracer.SelfTimes(root);
  const double n = t.requests > 0 ? static_cast<double>(t.requests) : 1.0;
  double sum = 0.0;
  for (const char* layer :
       {"bench", "image", "features", "engine", "serving", "index"}) {
    const auto it = t.self_ms.find(layer);
    const double ms = it != t.self_ms.end() ? it->second : 0.0;
    sum += ms;
    report->AddLayer(std::string("self.") + layer + "_ms", ms / n, "ms");
  }
  const double err_pct = request_ms > 0.0
                             ? 100.0 * std::fabs(sum - request_ms) / request_ms
                             : 100.0;
  report->AddLayer("trace.self_sum_err_pct", err_pct, "%");
  if (err_pct > kTolerancePct) {
    report->Fail("trace: per-layer self times do not add up to the request "
                 "time within " + std::to_string(kTolerancePct) + "%");
  }
  if (const size_t unnested = tracer.UnnestedSpans(); unnested > 0) {
    report->Fail("trace: " + std::to_string(unnested) +
                 " spans end outside their parent span");
  }
}

double OverheadPct(double untraced_p50_ms, double traced_p50_ms) {
  return untraced_p50_ms > 0.0
             ? 100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms
             : 0.0;
}

cbix::Status WriteEngineFile(const VectorSet& data,
                             const cbix::EngineConfig& config,
                             const std::string& path) {
  cbix::CbirEngine engine(cbix::FeatureExtractor(), config);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    CBIX_RETURN_IF_ERROR(engine
                             .AddFeatureVector(data.rows[i],
                                               RowName("v", i),
                                               data.labels[i])
                             .status());
  }
  CBIX_RETURN_IF_ERROR(engine.BuildIndex());
  return engine.Save(path);
}

std::unique_ptr<cbix::ServingEngine> LoadServingEngine(
    const cbix::ServingOptions& options, const std::string& path,
    std::vector<double>* setup_s, std::vector<double>* load_s,
    Report* report) {
  const Clock::time_point t0 = Clock::now();
  auto created = cbix::ServingEngine::Create(cbix::FeatureExtractor(), options);
  const Clock::time_point t1 = Clock::now();
  const cbix::Status loaded =
      created.ok() ? (*created)->Load(path) : created.status();
  const Clock::time_point t2 = Clock::now();
  if (!loaded.ok()) {
    report->Fail("set-up: " + loaded.ToString());
    return nullptr;
  }
  setup_s->push_back(Ms(t0, t2) / 1e3);
  load_s->push_back(Ms(t1, t2) / 1e3);
  return std::move(created).value();
}

double ExactL2(const cbix::Vec& q, const VectorSet& data,
               const VectorSet* extra, uint32_t id) {
  const size_t n = data.rows.size();
  const cbix::Vec& row = id < n ? data.rows[id] : extra->rows[id - n];
  return ExactDistance(Norm::kL2, q.data(), row.data(), data.dim);
}

}  // namespace perfbench
