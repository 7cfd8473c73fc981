// serve_churn — reads beside writes through ServingEngine, open loop:
// one reader thread sends single-query Search calls at a fixed rate,
// one writer thread sends Insert calls at a fixed rate, over an HNSW
// engine (L2, 16384 x 64 clustered rows, bulk-loaded with Load) whose
// delta_merge_threshold gives inline merges during the run. Every
// operation is timed from the moment it was due.

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "core/serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cbix::ServingEngine;

struct Sizes {
  size_t rows;
  size_t dim;
  double read_rate;   ///< reads due per second
  double write_rate;  ///< inserts due per second
  size_t merge_threshold;
  size_t read_pool;     ///< distinct read queries, cycled
  size_t eval_queries;  ///< recall / precision over the final snapshot
  size_t warmup_reads;
  int setups;
};

Sizes SizesFor(bool tiny) {
  return tiny ? Sizes{2048, 64, 200.0, 20.0, 8, 256, 20, 20, 1}
              : Sizes{16384, 64, 1000.0, 100.0, 700, 4096, 200, 200, 5};
}

struct Inputs {
  VectorSet data;     ///< bulk-loaded rows
  VectorSet inserts;  ///< rows the writer inserts, in order
  VectorSet reads;
  VectorSet eval;
};

size_t InsertsDue(const Sizes& sz, double seconds) {
  return static_cast<size_t>(std::ceil(sz.write_rate * seconds));
}

Inputs MakeInputs(const Sizes& sz, double seconds, uint64_t seed) {
  Inputs in;
  // One draw for loaded and inserted rows, so both share the clusters.
  VectorSet all = MakeClusteredVectors(sz.rows + InsertsDue(sz, seconds),
                                       sz.dim, 32, 0.05, seed);
  in.data.dim = in.inserts.dim = sz.dim;
  in.data.rows.assign(all.rows.begin(), all.rows.begin() + sz.rows);
  in.data.labels.assign(all.labels.begin(), all.labels.begin() + sz.rows);
  in.inserts.rows.assign(all.rows.begin() + sz.rows, all.rows.end());
  in.inserts.labels.assign(all.labels.begin() + sz.rows, all.labels.end());
  in.reads = MakePerturbedQueries(in.data, sz.read_pool, 0.02,
                                  seed ^ 0x9e3779b9ULL);
  in.eval = MakePerturbedQueries(all, sz.eval_queries, 0.02,
                                 seed ^ 0x3c6ef372ULL);
  return in;
}

cbix::ServingOptions Options(const Sizes& sz) {
  cbix::ServingOptions options;
  options.engine.index_kind = cbix::IndexKind::kHnsw;
  options.engine.metric = cbix::MetricKind::kL2;
  options.search_threads = 2;
  options.delta_merge_threshold = sz.merge_threshold;
  return options;
}

/// Joins a thread on every exit path.
class Joiner {
 public:
  explicit Joiner(std::thread* t) : t_(t) {}
  ~Joiner() {
    if (t_->joinable()) t_->join();
  }
  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

 private:
  std::thread* t_;
};

struct Window {
  // Reader.
  std::vector<double> read_ms;   ///< due -> done
  std::vector<double> read_wait_ms;  ///< due -> sent
  std::vector<double> generator_late_ms;  ///< overshoot of idle waits
  std::vector<double> search_us;  ///< sent -> done (the Search call)
  double reads_end_s = 0.0;
  double search_s = 0.0, evals = 0.0, nodes = 0.0, delta_rows = 0.0;
  double traced_read_ms = 0.0;  ///< summed root-span request times
  // Writer.
  std::vector<double> insert_ms;  ///< due -> done
  std::vector<double> write_wait_ms;
  std::vector<double> insert_us;  ///< Insert calls that did not merge
  std::vector<double> merge_ms;   ///< Insert calls during which merges() rose
  double inserts_end_s = 0.0;
  std::vector<std::string> writer_errors;
};

/// Checks one read answer: k hits, unique ids, (distance, id) order,
/// and every reported distance equal to the exact recomputed one.
std::string CheckRead(const std::vector<cbix::CbirEngine::Match>& got,
                      const cbix::Vec& q, const Inputs& in) {
  if (got.size() != kK) {
    return "returned " + std::to_string(got.size()) + " hits";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id >= in.data.rows.size() + in.inserts.rows.size()) {
      return "unknown id " + std::to_string(got[i].id);
    }
    if (got[i].distance != ExactL2(q, in.data, &in.inserts, got[i].id)) {
      return "rank " + std::to_string(i) + ": reported distance is not exact";
    }
    if (i > 0 && (got[i].distance < got[i - 1].distance ||
                  (got[i].distance == got[i - 1].distance &&
                   got[i].id <= got[i - 1].id))) {
      return "rank " + std::to_string(i) + ": not in (distance, id) order";
    }
  }
  return "";
}

}  // namespace

Report RunServeChurn(const RunConfig& cfg) {
  Report report;
  const Sizes sz = SizesFor(cfg.tiny);
  const Inputs in = MakeInputs(sz, WindowSeconds(cfg), cfg.seed);
  const cbix::ServingOptions options = Options(sz);

  const std::string path = cfg.work_dir + "/serve_churn.engine";
  if (const cbix::Status s = WriteEngineFile(in.data, options.engine, path);
      !s.ok()) {
    report.Fail("writing the engine file: " + s.ToString());
    return report;
  }

  // Set-up: Create + Load, repeated; setup_s is the median. Each window
  // below starts from a freshly loaded engine.
  std::vector<double> setup_s, load_s;
  const auto load = [&] {
    return LoadServingEngine(options, path, &setup_s, &load_s, &report);
  };
  std::unique_ptr<ServingEngine> engine;
  // An open loop cannot pause for a reading: the speed is read around
  // the set-up and the window only.
  SpeedReader speed(&report.speed_loop_ms);
  for (int r = 0; r < sz.setups; ++r) {
    engine = load();
    if (engine == nullptr) return report;
  }

  const auto run_window = [&](ServingEngine& serve, bool traced) {
    Window w;
    for (size_t i = 0; i < sz.warmup_reads; ++i) {
      if (!serve.Search({in.reads.rows[i % sz.read_pool]}, kK).ok()) {
        report.Fail("warm-up read");
      }
    }
    cbix::SearchOptions search;
    if (traced) search.trace_every_n = 1;
    const Clock::time_point epoch = Clock::now();
    const Clock::time_point t0 = epoch + std::chrono::milliseconds(2);
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(WindowSeconds(cfg)));
    const auto due_at = [t0](size_t i, double rate) {
      const std::chrono::duration<double> offset(static_cast<double>(i) / rate);
      return t0 + std::chrono::duration_cast<Clock::duration>(offset);
    };
    Tracer reader_trace(traced, "reader", epoch);
    Tracer writer_trace(traced, "writer", epoch);

    std::thread writer([&] {
      const uint32_t first_id = static_cast<uint32_t>(serve.size());
      for (size_t j = 0; j < in.inserts.rows.size(); ++j) {
        const Clock::time_point due = due_at(j, sz.write_rate);
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        const ScopedSpan root(&writer_trace, "write", -1);
        const int span = writer_trace.Begin("serving.insert", root.id());
        const uint64_t merges_before = serve.merges();
        const Clock::time_point sent = Clock::now();
        const auto id = serve.Insert(in.inserts.rows[j], RowName("i", j),
                                     in.inserts.labels[j]);
        const Clock::time_point done = Clock::now();
        writer_trace.End(span);
        w.insert_ms.push_back(Ms(due, done));
        w.write_wait_ms.push_back(Ms(due, sent));
        if (serve.merges() > merges_before) {
          writer_trace.Rename(span, "serving.merge");
          w.merge_ms.push_back(Ms(sent, done));
        } else {
          w.insert_us.push_back(Ms(sent, done) * 1e3);
        }
        w.inserts_end_s = Ms(t0, done) / 1e3;
        if (!id.ok() || *id != first_id + j) {
          w.writer_errors.push_back(
              "insert " + std::to_string(j) + ": " +
              (id.ok() ? "unexpected id" : id.status().ToString()));
        }
      }
    });
    const Joiner join_writer(&writer);

    for (size_t i = 0;; ++i) {
      const Clock::time_point due = due_at(i, sz.read_rate);
      if (due >= end) break;
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        w.generator_late_ms.push_back(Ms(due, Clock::now()));
      }
      const cbix::Vec& q = in.reads.rows[i % sz.read_pool];
      ++report.attempted;
      const Clock::time_point begin = Clock::now();
      const int root = reader_trace.Begin("read", -1);
      const int span = reader_trace.Begin("serving.search", root);
      if (traced) {
        w.delta_rows += static_cast<double>(serve.snapshot_info().delta_count);
      }
      const Clock::time_point sent = Clock::now();
      const auto reply = serve.Search({q}, kK, search);
      const Clock::time_point done = Clock::now();
      reader_trace.End(span);
      reader_trace.End(root);
      if (traced) w.traced_read_ms += Ms(begin, Clock::now());
      w.read_ms.push_back(Ms(due, done));
      w.read_wait_ms.push_back(Ms(due, sent));
      w.search_us.push_back(Ms(sent, done) * 1e3);
      w.reads_end_s = Ms(t0, done) / 1e3;
      if (!reply.ok() || reply->degraded || reply->results.size() != 1) {
        report.Fail("read " + std::to_string(i) + " failed or degraded");
        continue;
      }
      const std::string bad = CheckRead(reply->results[0], q, in);
      if (!bad.empty()) report.Fail("read " + std::to_string(i) + ": " + bad);
      if (traced) {
        if (reply->trace != nullptr) {
          reader_trace.Import(reply->trace->root(), span, sent);
        }
        w.search_s += Ms(sent, done) / 1e3;
        w.evals += static_cast<double>(reply->stats[0].distance_evals);
        w.nodes += static_cast<double>(reply->stats[0].nodes_visited);
      }
    }
    writer.join();
    report.attempted += w.insert_ms.size();
    for (const std::string& e : w.writer_errors) report.Fail(e);
    if (traced) {
      AddSelfTimes(reader_trace, "read", w.traced_read_ms, &report);
      const std::string dump = cfg.work_dir + "/trace-serve_churn.jsonl";
      if (!reader_trace.Write(dump) || !writer_trace.Write(dump)) {
        report.Fail("trace dump");
      }
    }
    return w;
  };

  speed.Read();
  const Window timed = run_window(*engine, false);
  speed.Read();
  const double p50 = Quantile(timed.read_ms, 0.5);

  // Quality over the final snapshot: every loaded and inserted row, each
  // answer against the brute-force L2 oracle.
  const size_t inserted = timed.insert_ms.size();
  std::vector<double> recall, precision;
  for (size_t e = 0; e < in.eval.rows.size(); ++e) {
    const cbix::Vec& q = in.eval.rows[e];
    ++report.attempted;
    const auto reply = engine->Search({q}, kK);
    if (!reply.ok() || reply->degraded) {
      report.Fail("evaluation query " + std::to_string(e));
      continue;
    }
    const std::string bad = CheckRead(reply->results[0], q, in);
    if (!bad.empty()) {
      report.Fail("evaluation query " + std::to_string(e) + ": " + bad);
    }
    const auto row = [&in](size_t id) {
      const size_t n = in.data.rows.size();
      return id < n ? in.data.rows[id].data() : in.inserts.rows[id - n].data();
    };
    const auto exact = [&](uint32_t id) {
      return ExactL2(q, in.data, &in.inserts, id);
    };
    const std::vector<Hit> want = BruteForceTopK(
        Norm::kL2, q.data(), row, sz.rows + inserted, sz.dim, kK);
    recall.push_back(RecallAtK(ToHits(reply->results[0]), want, exact));
    precision.push_back(PrecisionAtK(reply->results[0], in.eval.labels[e]));
  }

  report.AddEndToEnd("setup_s", Median(setup_s), "s");
  report.AddEndToEnd(
      "qps", static_cast<double>(timed.read_ms.size()) / timed.reads_end_s,
      "1/s");
  report.AddEndToEnd("query_p50_ms", p50, "ms");
  report.AddEndToEnd("query_p99_ms", Quantile(timed.read_ms, 0.99), "ms");
  report.AddEndToEnd("insert_p50_ms", Quantile(timed.insert_ms, 0.5), "ms");
  report.AddEndToEnd("insert_p99_ms", Quantile(timed.insert_ms, 0.99), "ms");
  report.AddEndToEnd("inserts_per_s",
                     static_cast<double>(inserted) / timed.inserts_end_s,
                     "1/s");
  report.AddEndToEnd("p_at_10", Mean(precision), "ratio");
  report.AddEndToEnd("recall_at_10", Mean(recall), "ratio");

  if (cfg.trace) {
    std::unique_ptr<ServingEngine> fresh = load();
    if (fresh == nullptr) return report;
    const Window traced = run_window(*fresh, true);
    const double reads = static_cast<double>(traced.read_ms.size());
    const double evals_per_s = traced.evals / traced.search_s;
    report.AddLayer("serving.load_s", Median(load_s), "s");
    report.AddLayer("serving.search_us", Quantile(traced.search_us, 0.5), "us");
    report.AddLayer("serving.insert_us", Quantile(traced.insert_us, 0.5), "us");
    report.AddLayer("serving.merge_ms", Mean(traced.merge_ms), "ms");
    report.AddLayer("serving.merges", static_cast<double>(fresh->merges()),
                    "count");
    report.AddLayer("serving.delta_rows", traced.delta_rows / reads, "count");
    report.AddLayer("serving.degraded",
                    static_cast<double>(fresh->degraded_queries()), "count");
    report.AddLayer("index.distance_evals_per_query", traced.evals / reads,
                    "count");
    report.AddLayer("index.nodes_visited_per_query", traced.nodes / reads,
                    "count");
    report.AddLayer("distance.evals_per_s", evals_per_s, "1/s");
    report.AddLayer("distance.scan_gb_per_s",
                    evals_per_s * static_cast<double>(sz.dim) * 4.0 / 1e9,
                    "GB/s");
    report.AddLayer("bench.read_wait_ms", Quantile(traced.read_wait_ms, 0.99),
                    "ms");
    report.AddLayer("bench.write_wait_ms",
                    Quantile(traced.write_wait_ms, 0.99), "ms");
    report.AddLayer("bench.generator_late_ms",
                    Quantile(traced.generator_late_ms, 0.99), "ms");
    report.AddLayer("trace.overhead_pct",
                    OverheadPct(p50, Quantile(traced.read_ms, 0.5)), "%");
  }
  return report;
}

uint64_t ServeChurnFingerprint(uint64_t seed) {
  const Inputs in = MakeInputs(SizesFor(true), 1.0, seed);
  uint64_t h = Fingerprint(in.data, 0xcbf29ce484222325ULL);
  h = Fingerprint(in.inserts, h);
  h = Fingerprint(in.reads, h);
  return Fingerprint(in.eval, h);
}

}  // namespace perfbench
