// vector_batch_scan — batched exact search through ServingEngine,
// closed loop, one client: ServingEngine::Search on 16 perturbed-data
// queries (k = 10) over 65536 x 128 clustered rows, exact linear scan,
// L2, 2 shards, one search thread and one shard-build thread,
// bulk-loaded with Load; bursts of Insert calls on a second engine
// interleaved between the calls.

#include <memory>

#include "core/serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cbix::ServingEngine;

struct Sizes {
  size_t rows;
  size_t dim;
  size_t batches;  ///< distinct 16-query batches, cycled by the loop
  size_t inserts;  ///< distinct unseen rows the writes cycle through
  int setups;      ///< repeated set-ups (>= 2); setup_s is their median
};

constexpr size_t kBatch = 16;

// Each window sends kBursts bursts of Insert calls, evenly spaced in
// time between the Search calls, to a second engine: interleaved, reads
// and writes sample the same stretch of host time (a separate write
// phase would catch one host state on its own), and the writes never
// change the rows the reads are checked against. A burst is one merge
// cycle (kMergeThreshold inserts, the last of which merges), so every
// run inserts and merges the same amount.
constexpr size_t kBursts = 32;

// One insert in 64 merges inline: more than 1%, so insert_p99_ms is the
// inline merge (a full rebuild of the 2-shard scan, ~0.1 s) and
// insert_p50_ms the append. With the default threshold (256) merges are
// 0.4% of inserts and the p99 falls on the appends that a timer
// interrupt or a host stall happened to hit: it measures the host rather
// than the library.
constexpr size_t kMergeThreshold = 64;

Sizes SizesFor(bool tiny) {
  return tiny ? Sizes{2048, 128, 2, 300, 2} : Sizes{65536, 128, 8, 8192, 5};
}

struct Inputs {
  VectorSet data;
  VectorSet queries;  ///< batches * kBatch rows
  VectorSet inserts;
};

Inputs MakeInputs(const Sizes& sz, uint64_t seed) {
  Inputs in;
  in.data = MakeClusteredVectors(sz.rows, sz.dim, 32, 0.05, seed);
  in.queries = MakePerturbedQueries(in.data, sz.batches * kBatch, 0.02,
                                    seed ^ 0x9e3779b9ULL);
  in.inserts = MakePerturbedQueries(in.data, sz.inserts, 0.02,
                                    seed ^ 0x7f4a7c15ULL);
  return in;
}

cbix::ServingOptions Options() {
  cbix::ServingOptions options;
  options.engine.index_kind = cbix::IndexKind::kLinearScan;
  options.engine.metric = cbix::MetricKind::kL2;
  options.engine.shards = 2;
  // One thread searches and one builds. On a shared host the speed-up
  // of a second thread comes and goes over minutes as other tenants
  // take and release cores: on a 4-vCPU VM, two threads' query_p50_ms
  // doubled from one stretch of time to the next, while one thread's
  // moved by ~1.2x.
  options.search_threads = 1;
  options.engine.shard_build_threads = 1;
  options.delta_merge_threshold = kMergeThreshold;
  return options;
}

struct Window {
  std::vector<double> call_ms;    ///< Search calls
  std::vector<double> insert_ms;  ///< every Insert call
  std::vector<double> append_us;  ///< Insert calls that did not merge
  std::vector<double> merge_ms;   ///< Insert calls during which merges() rose
  uint64_t merges = 0;
  // Traced runs only.
  std::vector<double> search_us;
  double search_s = 0.0, evals = 0.0, queries = 0.0;
};

}  // namespace

Report RunVectorBatchScan(const RunConfig& cfg) {
  Report report;
  const Sizes sz = SizesFor(cfg.tiny);
  const Inputs in = MakeInputs(sz, cfg.seed);
  std::vector<std::vector<cbix::Vec>> batches(sz.batches);
  for (size_t b = 0; b < sz.batches; ++b) {
    batches[b].assign(in.queries.rows.begin() + b * kBatch,
                      in.queries.rows.begin() + (b + 1) * kBatch);
  }

  const std::string path = cfg.work_dir + "/vector_batch_scan.engine";
  if (const cbix::Status s = WriteEngineFile(in.data, Options().engine, path);
      !s.ok()) {
    report.Fail("writing the engine file: " + s.ToString());
    return report;
  }

  // Set-up: Create + Load, repeated; setup_s is the median. The last
  // engine serves the reads, the one before takes the writes.
  std::vector<double> setup_s, load_s;
  std::unique_ptr<ServingEngine> engine, writer;
  SpeedReader speed(&report.speed_loop_ms);
  for (int r = 0; r < sz.setups; ++r) {
    speed.Tick();
    writer = std::move(engine);
    engine = LoadServingEngine(Options(), path, &setup_s, &load_s, &report);
    if (engine == nullptr) return report;
  }

  // Reference pass: each batch once, every answer checked against the
  // brute-force L2 oracle, exactly, in (distance, id) order.
  std::vector<std::vector<std::vector<Hit>>> reference(sz.batches);
  std::vector<double> recall, precision;
  for (size_t b = 0; b < sz.batches; ++b) {
    ++report.attempted;
    const auto reply = engine->Search(batches[b], kK);
    if (!reply.ok() || reply->degraded) {
      report.Fail("reference batch " + std::to_string(b));
      continue;
    }
    for (size_t qi = 0; qi < kBatch; ++qi) {
      const cbix::Vec& q = batches[b][qi];
      reference[b].push_back(ToHits(reply->results[qi]));
      const auto row = [&in](size_t id) { return in.data.rows[id].data(); };
      const auto exact = [&](uint32_t id) {
        return ExactL2(q, in.data, nullptr, id);
      };
      const std::vector<Hit> want =
          BruteForceTopK(Norm::kL2, q.data(), row, sz.rows, sz.dim, kK);
      const std::string bad = CheckTopK(reference[b][qi], want, exact, 0.0);
      if (!bad.empty()) {
        report.Fail("oracle, batch " + std::to_string(b) + " query " +
                    std::to_string(qi) + ": " + bad);
      }
      recall.push_back(RecallAtK(reference[b][qi], want, exact));
      precision.push_back(
          PrecisionAtK(reply->results[qi], in.queries.labels[b * kBatch + qi]));
    }
  }
  if (report.failed > 0) return report;

  size_t writes = 0;
  const auto run_window = [&](Tracer* tracer) {
    Window w;
    cbix::SearchOptions options;
    if (tracer->enabled()) options.trace_every_n = 1;
    const double window_ms = WindowSeconds(cfg) * 1e3;
    const Clock::time_point start = Clock::now();
    for (size_t n = 0, bursts = 0; Ms(start, Clock::now()) < window_ms; ++n) {
      speed.Tick();
      const size_t b = n % sz.batches;
      ++report.attempted;
      const Clock::time_point t0 = Clock::now();
      const int root = tracer->Begin("batch", -1);
      const int span = tracer->Begin("serving.search", root);
      const Clock::time_point origin = Clock::now();
      const auto reply = engine->Search(batches[b], kK, options);
      const Clock::time_point done = Clock::now();
      tracer->End(span);
      tracer->End(root);
      const Clock::time_point t1 = Clock::now();
      w.call_ms.push_back(Ms(t0, t1));
      if (!reply.ok() || reply->degraded ||
          reply->results.size() != kBatch) {
        report.Fail("batch " + std::to_string(b) + " failed or degraded");
        continue;
      }
      for (size_t qi = 0; qi < kBatch; ++qi) {
        if (!SameAnswer(ToHits(reply->results[qi]), reference[b][qi])) {
          report.Fail("batch " + std::to_string(b) +
                      " answered differently from its checked reference");
          break;
        }
      }
      if (tracer->enabled()) {
        if (reply->trace != nullptr) {
          tracer->Import(reply->trace->root(), span, origin);
        }
        w.search_us.push_back(Ms(origin, done) * 1e3);
        w.search_s += Ms(origin, done) / 1e3;
        for (const cbix::SearchStats& s : reply->stats) {
          w.evals += static_cast<double>(s.distance_evals);
        }
        w.queries += kBatch;
      }

      if (bursts == kBursts ||
          Ms(start, Clock::now()) < window_ms * static_cast<double>(bursts + 1) /
                                        static_cast<double>(kBursts + 1)) {
        continue;
      }
      ++bursts;
      for (size_t j = 0; j < kMergeThreshold; ++j, ++writes) {
        ++report.attempted;
        const uint64_t merges = writer->merges();
        const Clock::time_point i0 = Clock::now();
        const auto id =
            writer->Insert(in.inserts.rows[writes % sz.inserts],
                           RowName("i", writes),
                           in.inserts.labels[writes % sz.inserts]);
        const double ms = Ms(i0, Clock::now());
        w.insert_ms.push_back(ms);
        if (writer->merges() > merges) {
          w.merge_ms.push_back(ms);
          ++w.merges;
        } else {
          w.append_us.push_back(ms * 1e3);
        }
        if (!id.ok() || *id != sz.rows + writes) report.Fail("Insert");
      }
    }
    return w;
  };

  Tracer off(false, "main", Clock::now());
  const Window timed = run_window(&off);
  const double p50 = Quantile(timed.call_ms, 0.5);
  double call_total_ms = 0.0, insert_total_ms = 0.0;
  for (const double v : timed.call_ms) call_total_ms += v;
  for (const double v : timed.insert_ms) insert_total_ms += v;
  report.AddEndToEnd("setup_s", Median(setup_s), "s");
  // Closed loop, one client: completions per second of the time spent
  // on them (the interleaved writes are not query time).
  report.AddEndToEnd(
      "qps",
      static_cast<double>(timed.call_ms.size() * kBatch) * 1e3 / call_total_ms,
      "1/s");
  report.AddEndToEnd("query_p50_ms", p50, "ms");
  report.AddEndToEnd("query_p99_ms", Quantile(timed.call_ms, 0.99), "ms");
  report.AddEndToEnd("insert_p50_ms", Quantile(timed.insert_ms, 0.5), "ms");
  report.AddEndToEnd("insert_p99_ms", Quantile(timed.insert_ms, 0.99), "ms");
  report.AddEndToEnd(
      "inserts_per_s",
      static_cast<double>(timed.insert_ms.size()) * 1e3 / insert_total_ms,
      "1/s");
  report.AddEndToEnd("p_at_10", Mean(precision), "ratio");
  report.AddEndToEnd("recall_at_10", Mean(recall), "ratio");

  if (cfg.trace) {
    Tracer tracer(true, "main", Clock::now());
    const Window traced = run_window(&tracer);
    const double evals_per_s = traced.evals / traced.search_s;
    report.AddLayer("serving.load_s", Median(load_s), "s");
    report.AddLayer("serving.search_us", Quantile(traced.search_us, 0.5), "us");
    report.AddLayer("serving.insert_us", Quantile(traced.append_us, 0.5), "us");
    report.AddLayer("serving.merge_ms", Mean(traced.merge_ms), "ms");
    report.AddLayer("serving.merges", static_cast<double>(traced.merges),
                    "count");
    report.AddLayer("serving.degraded",
                    static_cast<double>(engine->degraded_queries()), "count");
    report.AddLayer("index.distance_evals_per_query",
                    traced.evals / traced.queries, "count");
    report.AddLayer("distance.evals_per_s", evals_per_s, "1/s");
    report.AddLayer("distance.scan_gb_per_s",
                    evals_per_s * static_cast<double>(sz.dim) * 4.0 / 1e9,
                    "GB/s");
    report.AddLayer("trace.overhead_pct",
                    OverheadPct(p50, Quantile(traced.call_ms, 0.5)), "%");
    double traced_call_ms = 0.0;
    for (const double v : traced.call_ms) traced_call_ms += v;
    AddSelfTimes(tracer, "batch", traced_call_ms, &report);
    if (!tracer.Write(cfg.work_dir + "/trace-vector_batch_scan.jsonl")) {
      report.Fail("trace dump");
    }
  }
  return report;
}

uint64_t VectorBatchScanFingerprint(uint64_t seed) {
  const Inputs in = MakeInputs(SizesFor(true), seed);
  uint64_t h = Fingerprint(in.data, 0xcbf29ce484222325ULL);
  h = Fingerprint(in.queries, h);
  return Fingerprint(in.inserts, h);
}

}  // namespace perfbench
