// Span recording for the traced run.
//
// Spans are recorded in the benchmark's own code around each call into
// a library layer; the serving runtime's own sampled span tree
// (ServeReply::trace) is nested under the benchmark's search span.
// Spans stay in memory and are written out once, at the end.
//
// Self time: every request is a tree rooted at a span with no parent.
// Each instant covered by a span of the request is charged to the spans
// that are running with none of their children running at that instant,
// split equally among them when several run at once (parallel shard
// work). Nothing is clipped to the root: when every span lies inside
// it, the self times add up to the root's wall time and a layer's self
// time is its share of that time; a span that sticks out of the root
// adds the excess, which the self-time sum check (AddSelfTimes) catches
// against the request time the benchmark's own timer measured.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "obs/trace.h"

namespace perfbench {

/// Not thread-safe: each thread that records spans owns a Tracer; the
/// tracers of one run share an epoch so their times line up.
class Tracer {
 public:
  Tracer(bool enabled, std::string thread, Clock::time_point epoch);

  bool enabled() const { return enabled_; }

  /// Opens a span; `parent` -1 starts a new request. Returns its index
  /// (or -1 when disabled).
  int Begin(const char* name, int parent);
  void End(int span);
  void Rename(int span, const char* name);

  /// Copies a library span tree under `parent`, aligning the tree's
  /// clock origin with `origin` (taken just before the traced call).
  void Import(const cbix::TraceSpan& root, int parent,
              Clock::time_point origin);

  struct LayerTimes {
    size_t requests = 0;
    std::map<std::string, double> self_ms;  ///< summed per layer
  };
  /// Self time per layer over all requests whose root is `root_name`.
  LayerTimes SelfTimes(const std::string& root_name) const;

  /// Spans that end after their parent does (a misaligned import).
  size_t UnnestedSpans() const;

  /// Appends every span to `path` as JSON lines ({"thread","request",
  /// "span","parent","name","start_ms","end_ms"}). False on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int request = 0;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };
  void ImportSpan(const cbix::TraceSpan& span, int parent, double origin_ms);

  bool enabled_;
  std::string thread_;
  Clock::time_point epoch_;
  int next_request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
