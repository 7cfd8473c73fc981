// image_qbe — query-by-example through CbirEngine, closed loop, one
// client: PNM bytes -> DecodePnm -> CbirEngine::QueryKnn (k = 10) on
// the engine's defaults (VP-tree, L1, MakeDefaultExtractor(128)).

#include <memory>

#include "core/engine.h"
#include "features/extractor.h"
#include "image/pnm_codec.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cbix::CbirEngine;

struct Sizes {
  int classes;
  int per_class;
  size_t queries;  ///< distinct requests, cycled by the timed loop
  size_t inserts;  ///< distinct unseen images the writes cycle through
  int setups;      ///< repeated set-ups (>= 2); setup_s is their median
};

Sizes SizesFor(bool tiny) {
  return tiny ? Sizes{4, 8, 8, 8, 2} : Sizes{32, 32, 128, 64, 3};
}

// The untraced window sends one AddImage after every kReadsPerWrite
// queries: interleaved, reads and writes sample the same stretch of host
// time (a separate write phase would catch one host state on its own).
constexpr size_t kReadsPerWrite = 8;

ImageInputs MakeInputs(const Sizes& sz, uint64_t seed) {
  return MakeImageInputs(sz.classes, sz.per_class, sz.queries, sz.inserts,
                         seed);
}

struct Window {
  std::vector<double> request_ms;
  std::vector<double> insert_ms;  ///< untraced window only
  // Traced runs only.
  std::vector<double> decode_us, extract_ms, search_us;
  double evals = 0.0, nodes = 0.0;
};

}  // namespace

Report RunImageQbe(const RunConfig& cfg) {
  Report report;
  const Sizes sz = SizesFor(cfg.tiny);
  const ImageInputs in = MakeInputs(sz, cfg.seed);
  if (in.queries.size() != sz.queries) {
    report.Fail("query generation failed");
    return report;
  }

  // Set-up: ingest with AddImagesParallel, then BuildIndex; repeated,
  // the median is setup_s. The batch copy is made outside the timer.
  // The last engine serves the queries, the one before takes the writes
  // (an AddImage marks the index dirty, so writes to the query engine
  // would put index rebuilds into the query latencies).
  std::vector<double> setup_s, ingest_s, build_s;
  std::unique_ptr<CbirEngine> engine, writer;
  SpeedReader speed(&report.speed_loop_ms);
  for (int r = 0; r < sz.setups; ++r) {
    speed.Tick();
    std::vector<CbirEngine::BatchItem> batch;
    batch.reserve(in.corpus.size());
    for (const cbix::LabeledImage& li : in.corpus) {
      batch.push_back({li.image, li.name, li.class_id});
    }
    auto e = std::make_unique<CbirEngine>(cbix::MakeDefaultExtractor(128));
    const Clock::time_point t0 = Clock::now();
    const auto added = e->AddImagesParallel(std::move(batch), LoadThreads());
    const Clock::time_point t1 = Clock::now();
    const cbix::Status built = added.ok() ? e->BuildIndex() : added.status();
    const Clock::time_point t2 = Clock::now();
    if (!built.ok()) {
      report.Fail("set-up: " + built.ToString());
      return report;
    }
    ingest_s.push_back(Ms(t0, t1) / 1e3);
    build_s.push_back(Ms(t1, t2) / 1e3);
    setup_s.push_back(Ms(t0, t2) / 1e3);
    writer = std::move(engine);
    engine = std::move(e);
  }
  const cbix::FeatureStore& store = engine->store();
  const size_t dim = store.feature_dim();

  // Reference pass: every request once (also warms the caches), as
  // DecodePnm + ExtractFeatures + QueryKnnByVector, which is what
  // QueryKnn does. Each answer is checked against the brute-force L1
  // oracle; the timed loop then demands the identical answer from
  // QueryKnn on every repeat.
  std::vector<std::vector<Hit>> reference(sz.queries);
  std::vector<double> recall, precision;
  for (size_t i = 0; i < sz.queries; ++i) {
    ++report.attempted;
    const auto image = cbix::DecodePnm(in.queries[i].pnm);
    if (!image.ok()) {
      report.Fail("decode: " + image.status().ToString());
      continue;
    }
    const cbix::Vec q = engine->ExtractFeatures(*image);
    const auto matches = engine->QueryKnnByVector(q, kK);
    if (!matches.ok()) {
      report.Fail("query: " + matches.status().ToString());
      continue;
    }
    reference[i] = ToHits(*matches);
    const auto row = [&store](size_t id) {
      return store.features(static_cast<uint32_t>(id));
    };
    const auto exact = [&](uint32_t id) {
      return ExactDistance(Norm::kL1, q.data(), store.features(id), dim);
    };
    const std::vector<Hit> want =
        BruteForceTopK(Norm::kL1, q.data(), row, store.size(), dim, kK);
    const std::string bad = CheckTopK(reference[i], want, exact, 1e-9);
    if (!bad.empty()) {
      report.Fail("oracle, request " + std::to_string(i) + ": " + bad);
    }
    recall.push_back(RecallAtK(reference[i], want, exact));
    precision.push_back(PrecisionAtK(*matches, in.queries[i].label));
  }
  if (report.failed > 0) return report;

  size_t writes = 0;
  const auto run_window = [&](Tracer* tracer) {
    Window w;
    const Clock::time_point start = Clock::now();
    for (size_t n = 0, reads = 0;
         Ms(start, Clock::now()) < WindowSeconds(cfg) * 1e3; ++n) {
      speed.Tick();
      if (!tracer->enabled() && n % (kReadsPerWrite + 1) == kReadsPerWrite) {
        ++report.attempted;
        const cbix::LabeledImage& li = in.inserts[writes % in.inserts.size()];
        const Clock::time_point t0 = Clock::now();
        const auto id = writer->AddImage(li.image, li.name, li.class_id);
        w.insert_ms.push_back(Ms(t0, Clock::now()));
        if (!id.ok() || *id != in.corpus.size() + writes) {
          report.Fail("AddImage");
        }
        ++writes;
        continue;
      }
      const size_t i = reads++ % sz.queries;
      ++report.attempted;
      std::vector<Hit> got;
      cbix::SearchStats stats;
      const Clock::time_point t0 = Clock::now();
      if (!tracer->enabled()) {
        const auto image = cbix::DecodePnm(in.queries[i].pnm);
        if (image.ok()) {
          const auto matches = engine->QueryKnn(*image, kK, &stats);
          if (matches.ok()) got = ToHits(*matches);
        }
      } else {
        const ScopedSpan root(tracer, "qbe", -1);
        Clock::time_point a = Clock::now();
        const int sd = tracer->Begin("image.decode", root.id());
        const auto image = cbix::DecodePnm(in.queries[i].pnm);
        tracer->End(sd);
        Clock::time_point b = Clock::now();
        w.decode_us.push_back(Ms(a, b) * 1e3);
        if (image.ok()) {
          const int se = tracer->Begin("features.extract", root.id());
          const cbix::Vec q = engine->ExtractFeatures(*image);
          tracer->End(se);
          a = Clock::now();
          w.extract_ms.push_back(Ms(b, a));
          const int ss = tracer->Begin("engine.search", root.id());
          const auto matches = engine->QueryKnnByVector(q, kK, &stats);
          tracer->End(ss);
          b = Clock::now();
          w.search_us.push_back(Ms(a, b) * 1e3);
          if (matches.ok()) got = ToHits(*matches);
        }
      }
      w.request_ms.push_back(Ms(t0, Clock::now()));
      w.evals += static_cast<double>(stats.distance_evals);
      w.nodes += static_cast<double>(stats.nodes_visited);
      if (!SameAnswer(got, reference[i])) {
        report.Fail("request " + std::to_string(i) +
                    " answered differently from its checked reference");
      }
    }
    return w;
  };

  Tracer off(false, "main", Clock::now());
  const Window timed = run_window(&off);
  const double p50 = Quantile(timed.request_ms, 0.5);
  report.AddEndToEnd("setup_s", Median(setup_s), "s");
  // Closed loop, one client: completions per second of the time spent
  // on them (the interleaved writes are not query time).
  report.AddEndToEnd("qps", 1e3 / Mean(timed.request_ms), "1/s");
  report.AddEndToEnd("query_p50_ms", p50, "ms");
  report.AddEndToEnd("query_p99_ms", Quantile(timed.request_ms, 0.99), "ms");
  report.AddEndToEnd("insert_p50_ms", Quantile(timed.insert_ms, 0.5), "ms");
  report.AddEndToEnd("insert_p99_ms", Quantile(timed.insert_ms, 0.99), "ms");
  report.AddEndToEnd("inserts_per_s", 1e3 / Mean(timed.insert_ms), "1/s");
  report.AddEndToEnd("p_at_10", Mean(precision), "ratio");
  report.AddEndToEnd("recall_at_10", Mean(recall), "ratio");

  if (cfg.trace) {
    Tracer tracer(true, "main", Clock::now());
    const Window traced = run_window(&tracer);
    double extract_total = 0.0, request_total = 0.0, search_total = 0.0;
    for (const double v : traced.extract_ms) extract_total += v;
    for (const double v : traced.request_ms) request_total += v;
    for (const double v : traced.search_us) search_total += v / 1e6;
    const double nreq = static_cast<double>(traced.request_ms.size());
    report.AddLayer("image.decode_us", Quantile(traced.decode_us, 0.5), "us");
    report.AddLayer("features.extract_ms_p50",
                    Quantile(traced.extract_ms, 0.5), "ms");
    report.AddLayer("features.extract_ms_p99",
                    Quantile(traced.extract_ms, 0.99), "ms");
    report.AddLayer("features.share", extract_total / request_total, "ratio");
    report.AddLayer("features.ingest_images_per_s",
                    static_cast<double>(in.corpus.size()) / Median(ingest_s),
                    "1/s");
    report.AddLayer("engine.build_s", Median(build_s), "s");
    report.AddLayer("engine.search_us", Quantile(traced.search_us, 0.5), "us");
    report.AddLayer("index.distance_evals_per_query", traced.evals / nreq,
                    "count");
    report.AddLayer("index.nodes_visited_per_query", traced.nodes / nreq,
                    "count");
    report.AddLayer("distance.evals_per_s", traced.evals / search_total, "1/s");
    report.AddLayer("distance.scan_gb_per_s",
                    traced.evals * static_cast<double>(dim) * 4.0 /
                        search_total / 1e9,
                    "GB/s");
    report.AddLayer("trace.overhead_pct",
                    OverheadPct(p50, Quantile(traced.request_ms, 0.5)), "%");
    AddSelfTimes(tracer, "qbe", request_total, &report);
    if (!tracer.Write(cfg.work_dir + "/trace-image_qbe.jsonl")) {
      report.Fail("trace dump");
    }
  }
  return report;
}

uint64_t ImageQbeFingerprint(uint64_t seed) {
  return Fingerprint(MakeInputs(SizesFor(true), seed), 0xcbf29ce484222325ULL);
}

}  // namespace perfbench
