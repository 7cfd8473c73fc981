// Independent correctness oracles: brute-force double loops over the
// raw rows, written here and sharing no code with the library's
// indexes or distance kernels.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Hit {
  uint32_t id = 0;
  double distance = 0.0;
};

enum class Norm { kL1, kL2 };

/// Plain sequential-sum distance between two rows of `dim` floats.
double ExactDistance(Norm norm, const float* a, const float* b, size_t dim);

/// The exact top-k of `query` over `n` rows (`row(i)` gives row i),
/// ordered by (distance, id).
std::vector<Hit> BruteForceTopK(Norm norm, const float* query,
                                const std::function<const float*(size_t)>& row,
                                size_t n, size_t dim, size_t k);

/// Checks a library answer against the oracle's. Empty string = OK,
/// else the first disagreement. `exact(id)` recomputes the exact
/// distance of a returned id.
///   tolerance == 0: ids and distances must match the oracle exactly,
///                   in (distance, id) order.
///   tolerance > 0:  distances may differ by `tolerance` relative (the
///                   library sums in another order); ids may differ
///                   only where the oracle has a tie within tolerance.
std::string CheckTopK(const std::vector<Hit>& got,
                      const std::vector<Hit>& want,
                      const std::function<double(uint32_t)>& exact,
                      double tolerance);

/// Tie-aware recall: the share of `want` slots filled by a returned hit
/// whose exact distance is no larger than the oracle's k-th distance.
double RecallAtK(const std::vector<Hit>& got, const std::vector<Hit>& want,
                 const std::function<double(uint32_t)>& exact);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
