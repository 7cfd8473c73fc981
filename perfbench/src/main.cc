// cbix_perfbench — the end-to-end CBIR benchmark harness.
//
//   cbix_perfbench --workload <image_qbe|vector_batch_scan|serve_churn>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--work-dir <dir>]
//   cbix_perfbench --fingerprint --workload <w> --seed <n>
//   cbix_perfbench --selftest-oracle
//   cbix_perfbench --selftest-trace
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": .., "unit": ..}. Earlier lines carry
// the run conditions. Exit status 0 only when every answer was correct.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "core/engine.h"
#include "oracle.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed for every workload; each is a
// measured quantity that is never 0 in a correct run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"qps", "1/s"},
    {"query_p50_ms", "ms"},    {"query_p99_ms", "ms"},
    {"insert_p50_ms", "ms"},   {"insert_p99_ms", "ms"},
    {"inserts_per_s", "1/s"},  {"p_at_10", "ratio"},
    {"recall_at_10", "ratio"}, {"peak_rss_mb", "MiB"},
};

// Every per-layer metric; a layer a workload does not use reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"image.decode_us", "us"},
    {"features.extract_ms_p50", "ms"},
    {"features.extract_ms_p99", "ms"},
    {"features.share", "ratio"},
    {"features.ingest_images_per_s", "1/s"},
    {"engine.build_s", "s"},
    {"engine.search_us", "us"},
    {"serving.load_s", "s"},
    {"serving.search_us", "us"},
    {"serving.insert_us", "us"},
    {"serving.merge_ms", "ms"},
    {"serving.merges", "count"},
    {"serving.delta_rows", "count"},
    {"serving.degraded", "count"},
    {"index.distance_evals_per_query", "count"},
    {"index.nodes_visited_per_query", "count"},
    {"distance.evals_per_s", "1/s"},
    {"distance.scan_gb_per_s", "GB/s"},
    {"host.stream_gb_per_s", "GB/s"},
    {"bench.read_wait_ms", "ms"},
    {"bench.write_wait_ms", "ms"},
    {"bench.generator_late_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"self.image_ms", "ms"},
    {"self.features_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.serving_ms", "ms"},
    {"self.index_ms", "ms"},
    {"trace.self_sum_err_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"error_rate", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "cbix_perfbench: %s\n", why);
  std::exit(2);
}

/// name -> value of `metrics`, checked against `specs`: a name outside
/// the list or a unit that differs is a programming error in a workload.
std::map<std::string, double> Index(const std::vector<Metric>& metrics,
                                    const MetricSpec* specs, size_t n,
                                    Report* report) {
  std::map<std::string, double> out;
  for (const Metric& m : metrics) {
    bool known = false;
    for (size_t i = 0; i < n; ++i) {
      known = known || (m.name == specs[i].name && m.unit == specs[i].unit);
    }
    if (!known || !out.emplace(m.name, m.value).second) {
      report->Fail("metric " + m.name + " is unknown or repeated");
    }
  }
  return out;
}

std::string MetricsJson(const MetricSpec* specs, size_t n,
                        const std::map<std::string, double>& values) {
  std::string json = "{";
  for (size_t i = 0; i < n; ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it != values.end() ? it->second : 0.0;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i > 0 ? ", " : "", specs[i].name, std::isfinite(v) ? v : 0.0,
                  specs[i].unit);
    json += buf;
  }
  return json + "}";
}

// The oracle must accept a correct library answer and flag each of a
// set of corruptions of it.
int SelfTestOracle() {
  const VectorSet data = MakeClusteredVectors(512, 32, 4, 0.05, 7);
  const VectorSet queries = MakePerturbedQueries(data, 4, 0.02, 8);
  cbix::EngineConfig config;
  config.index_kind = cbix::IndexKind::kLinearScan;
  config.metric = cbix::MetricKind::kL2;
  cbix::CbirEngine engine(cbix::FeatureExtractor(), config);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    if (!engine.AddFeatureVector(data.rows[i], "v", data.labels[i]).ok()) {
      return 1;
    }
  }
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  for (const cbix::Vec& q : queries.rows) {
    const auto matches = engine.QueryKnnByVector(q, kK);
    if (!matches.ok()) return 1;
    const std::vector<Hit> got = ToHits(*matches);
    const auto row = [&data](size_t id) { return data.rows[id].data(); };
    const auto exact = [&](uint32_t id) {
      return ExactL2(q, data, nullptr, id);
    };
    const std::vector<Hit> want = BruteForceTopK(
        Norm::kL2, q.data(), row, data.rows.size(), q.size(), kK);
    expect(CheckTopK(got, want, exact, 0.0).empty(), "library answer accepted");
    expect(RecallAtK(got, want, exact) == 1.0, "library answer has recall 1");

    std::vector<Hit> bad = got;
    std::swap(bad[0], bad[1]);
    expect(!CheckTopK(bad, want, exact, 0.0).empty(), "swapped ranks flagged");
    expect(!CheckTopK(bad, want, exact, 1e-9).empty(),
           "swapped ranks flagged with a tolerance");
    bad = got;
    bad[3].distance = std::nextafter(bad[3].distance, 1e9);
    expect(!CheckTopK(bad, want, exact, 0.0).empty(),
           "distance off by 1 ulp flagged");
    bad = got;
    bad[9].id = want[0].id;
    expect(!CheckTopK(bad, want, exact, 0.0).empty(), "duplicate id flagged");
    bad = got;
    bad[5].id = bad[5].id + 1 < data.rows.size() ? bad[5].id + 1 : 0;
    expect(!CheckTopK(bad, want, exact, 1e-9).empty(), "wrong id flagged");
    bad = got;
    bad.pop_back();
    expect(!CheckTopK(bad, want, exact, 0.0).empty(), "short answer flagged");
    uint32_t farthest = 0;
    for (uint32_t id = 1; id < data.rows.size(); ++id) {
      if (exact(id) > exact(farthest)) farthest = id;
    }
    bad = got;
    bad.back() = {farthest, exact(farthest)};
    expect(RecallAtK(bad, want, exact) < 1.0, "the farthest row lowers recall");
  }
  return failures == 0 ? 0 : 1;
}

// The self-time sum check must accept requests whose spans nest inside
// them and flag a library span imported at the wrong offset, which
// sticks out of its request, and request time no span covers.
int SelfTestTrace() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  cbix::TraceSpan library;
  library.name = "engine.knn_batch";
  library.duration_ms = 2.0;
  library.children.emplace_back();
  library.children.back().name = "shard";
  library.children.back().start_ms = 0.5;
  library.children.back().duration_ms = 1.0;
  const auto sum_check_fails = [&library](double import_shift_ms,
                                          double uncovered_ms) {
    Tracer tracer(true, "main", Clock::now());
    double request_ms = 0.0;
    for (int r = 0; r < 3; ++r) {
      const Clock::time_point t0 = Clock::now();
      const int root = tracer.Begin("batch", -1);
      const int span = tracer.Begin("serving.search", root);
      const Clock::time_point origin = Clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      tracer.End(span);
      tracer.End(root);
      request_ms += Ms(t0, Clock::now()) + uncovered_ms;
      tracer.Import(library, span,
                    origin + std::chrono::microseconds(
                                 static_cast<int64_t>(import_shift_ms * 1e3)));
    }
    Report report;
    AddSelfTimes(tracer, "batch", request_ms, &report);
    for (const std::string& e : report.errors) {
      if (e.find("do not add up") != std::string::npos) return true;
    }
    return false;
  };
  expect(!sum_check_fails(0.0, 0.0), "nested spans pass the self-time sum");
  expect(sum_check_fails(5.0, 0.0), "a misaligned library span is flagged");
  expect(sum_check_fails(0.0, 1.0), "request time outside the spans is flagged");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_seed = false, fingerprint = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value() == "1";
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else if (arg == "--work-dir") {
      cfg.work_dir = value();
    } else if (arg == "--fingerprint") {
      fingerprint = true;
    } else if (arg == "--selftest-oracle") {
      return SelfTestOracle();
    } else if (arg == "--selftest-trace") {
      return SelfTestTrace();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) Usage("bad --seconds");

  using RunFn = Report (*)(const RunConfig&);
  using FingerprintFn = uint64_t (*)(uint64_t);
  RunFn run = nullptr;
  FingerprintFn fingerprint_of = nullptr;
  if (cfg.workload == "image_qbe") {
    run = RunImageQbe;
    fingerprint_of = ImageQbeFingerprint;
  } else if (cfg.workload == "vector_batch_scan") {
    run = RunVectorBatchScan;
    fingerprint_of = VectorBatchScanFingerprint;
  } else if (cfg.workload == "serve_churn") {
    run = RunServeChurn;
    fingerprint_of = ServeChurnFingerprint;
  } else {
    Usage(("unknown workload " + cfg.workload).c_str());
  }
  if (fingerprint) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(fingerprint_of(cfg.seed)));
    return 0;
  }

  std::remove((cfg.work_dir + "/trace-" + cfg.workload + ".jsonl").c_str());
  Report report = run(cfg);
  // Read before the host probes run: their buffer would otherwise set
  // the process's high-water mark.
  report.AddEndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  HostInfo host = ProbeHost(cfg.tiny);
  host.speed_readings = report.speed_loop_ms.size();
  host.speed_loop_ms = Median(report.speed_loop_ms);
  if (cfg.trace) {
    report.AddLayer("host.stream_gb_per_s", host.stream_gb_per_s, "GB/s");
    report.AddLayer("error_rate", report.error_rate(), "ratio");
  }

  constexpr size_t kNumE2e = sizeof(kEndToEnd) / sizeof(kEndToEnd[0]);
  constexpr size_t kNumLayer = sizeof(kPerLayer) / sizeof(kPerLayer[0]);
  const auto raw = Index(report.end_to_end, kEndToEnd, kNumE2e, &report);
  const auto layer = Index(report.per_layer, kPerLayer, kNumLayer, &report);
  // End-to-end timings at the reference host's speed: scaled by the
  // run's median speed reading (a shared host changes speed in steps of
  // up to ~1.9x; see ../README.md, "Host speed"). Per-layer metrics and
  // the `# end_to_end raw` line are the clock's own readings.
  const double speed = host.speed_loop_ms > 0.0
                           ? kReferenceLoopMs / host.speed_loop_ms
                           : 1.0;
  std::map<std::string, double> e2e = raw;
  for (const MetricSpec& spec : kEndToEnd) {
    const auto it = e2e.find(spec.name);
    if (it == e2e.end()) continue;
    const std::string unit = spec.unit;
    if (unit == "s" || unit == "ms") it->second *= speed;
    if (unit == "1/s") it->second /= speed;
  }
  if (report.failed == 0) {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = e2e.find(spec.name);
      if (it == e2e.end() || !std::isfinite(it->second) || it->second <= 0.0) {
        report.Fail(std::string("end-to-end metric ") + spec.name +
                    " missing or not positive");
      }
    }
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "cbix_perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.c_str());
  }
  const bool correct = report.failed == 0;
  std::printf("# host %s\n", HostJson(host).c_str());
  std::printf("# end_to_end raw %s\n",
              MetricsJson(kEndToEnd, kNumE2e, raw).c_str());
  if (cfg.trace) {
    std::printf("# end_to_end (untraced window) %s\n",
                MetricsJson(kEndToEnd, kNumE2e, e2e).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              cfg.trace ? MetricsJson(kPerLayer, kNumLayer, layer).c_str()
                        : MetricsJson(kEndToEnd, kNumE2e, e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
