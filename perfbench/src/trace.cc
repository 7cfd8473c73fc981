#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {

// The layer a span name belongs to: the prefix before the first '.'
// ("serve" and "serving" are the serving layer, "shard" the index
// layer); request roots are the bench layer.
std::string LayerOf(const std::string& name, bool is_root) {
  if (is_root) return "bench";
  if (name == "shard") return "index";
  const std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "serve") return "serving";
  return prefix;
}

}  // namespace

Tracer::Tracer(bool enabled, std::string thread, Clock::time_point epoch)
    : enabled_(enabled), thread_(std::move(thread)), epoch_(epoch) {
  if (enabled_) spans_.reserve(1 << 16);
}

int Tracer::Begin(const char* name, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = parent < 0 ? next_request_++ : spans_[parent].request;
  s.start_ms = Ms(epoch_, Clock::now());
  s.end_ms = s.start_ms;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[span].end_ms = Ms(epoch_, Clock::now());
}

void Tracer::Rename(int span, const char* name) {
  if (span >= 0) spans_[span].name = name;
}

void Tracer::Import(const cbix::TraceSpan& root, int parent,
                    Clock::time_point origin) {
  if (parent < 0) return;
  ImportSpan(root, parent, Ms(epoch_, origin));
}

void Tracer::ImportSpan(const cbix::TraceSpan& span, int parent,
                        double origin_ms) {
  Span s;
  s.name = span.name;
  s.parent = parent;
  s.request = spans_[parent].request;
  s.start_ms = origin_ms + span.start_ms;
  s.end_ms = s.start_ms + span.duration_ms;
  spans_.push_back(std::move(s));
  const int self = static_cast<int>(spans_.size() - 1);
  for (const cbix::TraceSpan& child : span.children) {
    ImportSpan(child, self, origin_ms);
  }
}

Tracer::LayerTimes Tracer::SelfTimes(const std::string& root_name) const {
  LayerTimes out;
  std::vector<std::vector<int>> by_request(next_request_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_request[spans_[i].request].push_back(static_cast<int>(i));
  }
  for (const std::vector<int>& members : by_request) {
    if (members.empty()) continue;
    const Span& root = spans_[members.front()];
    if (root.parent >= 0 || root.name != root_name) continue;
    ++out.requests;
    std::vector<double> edges;
    for (const int m : members) {
      edges.push_back(spans_[m].start_ms);
      edges.push_back(spans_[m].end_ms);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::vector<int> exclusive;
    for (size_t e = 0; e + 1 < edges.size(); ++e) {
      const double lo = edges[e], hi = edges[e + 1];
      const auto active = [&](int m) {
        return spans_[m].start_ms <= lo && spans_[m].end_ms >= hi;
      };
      exclusive.clear();
      for (const int m : members) {
        if (!active(m)) continue;
        const bool child_active = std::any_of(
            members.begin(), members.end(),
            [&](int c) { return spans_[c].parent == m && active(c); });
        if (!child_active) exclusive.push_back(m);
      }
      for (const int m : exclusive) {
        out.self_ms[LayerOf(spans_[m].name, spans_[m].parent < 0)] +=
            (hi - lo) / static_cast<double>(exclusive.size());
      }
    }
  }
  return out;
}

size_t Tracer::UnnestedSpans() const {
  constexpr double kSlackMs = 1e-3;
  size_t n = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[s.parent];
    if (s.start_ms < p.start_ms - kSlackMs || s.end_ms > p.end_ms + kSlackMs) {
      ++n;
    }
  }
  return n;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"thread\":\"%s\",\"request\":%d,\"span\":%zu,"
                 "\"parent\":%d,\"name\":\"%s\",\"start_ms\":%.6f,"
                 "\"end_ms\":%.6f}\n",
                 thread_.c_str(), s.request, i, s.parent, s.name.c_str(),
                 s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
