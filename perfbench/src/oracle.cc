#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {
namespace {

bool Near(double a, double b, double tolerance) {
  return std::fabs(a - b) <= tolerance * std::max(1.0, std::fabs(b));
}

std::string Describe(size_t rank, const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "rank %zu: %s %.17g, oracle %.17g", rank,
                what, got, want);
  return buf;
}

}  // namespace

double ExactDistance(Norm norm, const float* a, const float* b, size_t dim) {
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += norm == Norm::kL1 ? std::fabs(d) : d * d;
  }
  return norm == Norm::kL1 ? sum : std::sqrt(sum);
}

std::vector<Hit> BruteForceTopK(Norm norm, const float* query,
                                const std::function<const float*(size_t)>& row,
                                size_t n, size_t dim, size_t k) {
  std::vector<Hit> all(n);
  for (size_t i = 0; i < n; ++i) {
    all[i] = {static_cast<uint32_t>(i),
              ExactDistance(norm, query, row(i), dim)};
  }
  const auto by_distance_then_id = [](const Hit& a, const Hit& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  };
  const size_t top = std::min(k, n);
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(top),
                    all.end(), by_distance_then_id);
  all.resize(top);
  return all;
}

std::string CheckTopK(const std::vector<Hit>& got,
                      const std::vector<Hit>& want,
                      const std::function<double(uint32_t)>& exact,
                      double tolerance) {
  if (got.size() != want.size()) {
    return "returned " + std::to_string(got.size()) + " hits, oracle " +
           std::to_string(want.size());
  }
  std::set<uint32_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!seen.insert(got[i].id).second) {
      return "rank " + std::to_string(i) + ": duplicate id " +
             std::to_string(got[i].id);
    }
    const double recomputed = exact(got[i].id);
    if (!Near(got[i].distance, recomputed, tolerance)) {
      return Describe(i, "reported distance", got[i].distance, recomputed);
    }
    if (!Near(got[i].distance, want[i].distance, tolerance)) {
      return Describe(i, "distance", got[i].distance, want[i].distance);
    }
    if (tolerance == 0.0 && got[i].id != want[i].id) {
      return Describe(i, "id", got[i].id, want[i].id);
    }
  }
  return "";
}

double RecallAtK(const std::vector<Hit>& got, const std::vector<Hit>& want,
                 const std::function<double(uint32_t)>& exact) {
  if (want.empty()) return 1.0;
  const double kth = want.back().distance;
  size_t hits = 0;
  std::set<uint32_t> seen;
  for (const Hit& h : got) {
    if (seen.insert(h.id).second && exact(h.id) <= kth) ++hits;
  }
  return static_cast<double>(std::min(hits, want.size())) /
         static_cast<double>(want.size());
}

}  // namespace perfbench
