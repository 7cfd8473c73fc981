// Workload inputs, generated from the run's seed alone: the same seed
// gives byte-identical inputs, and the program under test receives
// only these generated inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/vector_workload.h"

namespace perfbench {

/// Clustered vectors with their cluster labels. Every component is a
/// multiple of 1/256 in [0, 1): squared differences and their sums are
/// exact in double, so any summation order gives the same L2 distance
/// and the oracle can demand bit-identical distances.
struct VectorSet {
  size_t dim = 0;
  std::vector<cbix::Vec> rows;
  std::vector<int32_t> labels;
};

/// `count` rows of `dim` around `clusters` centres (sigma per axis).
VectorSet MakeClusteredVectors(size_t count, size_t dim, size_t clusters,
                               double sigma, uint64_t seed);

/// `count` queries, each a random row of `data` plus N(0, sigma)
/// noise, on the same 1/256 grid; labels are the source rows' labels.
VectorSet MakePerturbedQueries(const VectorSet& data, size_t count,
                               double sigma, uint64_t seed);

/// One query-by-example request: a PNM-encoded, distorted, unseen
/// instance of a corpus class.
struct ImageQuery {
  std::vector<uint8_t> pnm;
  int32_t label = 0;
};

struct ImageInputs {
  std::vector<cbix::LabeledImage> corpus;
  std::vector<ImageQuery> queries;
  /// Further unseen instances for the write phase (AddImage).
  std::vector<cbix::LabeledImage> inserts;
};

ImageInputs MakeImageInputs(int classes, int per_class, size_t queries,
                            size_t inserts, uint64_t seed);

/// Fingerprints of the generated inputs (the self-test compares them
/// across seeds).
uint64_t Fingerprint(const VectorSet& set, uint64_t h);
uint64_t Fingerprint(const ImageInputs& inputs, uint64_t h);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
