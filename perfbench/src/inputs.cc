#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "image/pnm_codec.h"
#include "util/random.h"

namespace perfbench {
namespace {

float OnGrid(double x) {
  const double level = std::clamp(std::round(x * 256.0), 0.0, 255.0);
  return static_cast<float>(level / 256.0);
}

}  // namespace

VectorSet MakeClusteredVectors(size_t count, size_t dim, size_t clusters,
                               double sigma, uint64_t seed) {
  cbix::Rng rng(seed);
  std::vector<std::vector<double>> centres(clusters,
                                           std::vector<double>(dim));
  for (auto& c : centres) {
    for (double& x : c) x = rng.Uniform(0.2, 0.8);
  }
  VectorSet set;
  set.dim = dim;
  set.rows.reserve(count);
  set.labels.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t c = rng.NextBelow(clusters);
    cbix::Vec row(dim);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = OnGrid(rng.Gaussian(centres[c][d], sigma));
    }
    set.rows.push_back(std::move(row));
    set.labels.push_back(static_cast<int32_t>(c));
  }
  return set;
}

VectorSet MakePerturbedQueries(const VectorSet& data, size_t count,
                               double sigma, uint64_t seed) {
  cbix::Rng rng(seed);
  VectorSet set;
  set.dim = data.dim;
  for (size_t i = 0; i < count; ++i) {
    const size_t src = rng.NextBelow(data.rows.size());
    cbix::Vec q(data.dim);
    for (size_t d = 0; d < data.dim; ++d) {
      q[d] = OnGrid(rng.Gaussian(data.rows[src][d], sigma));
    }
    set.rows.push_back(std::move(q));
    set.labels.push_back(data.labels[src]);
  }
  return set;
}

ImageInputs MakeImageInputs(int classes, int per_class, size_t queries,
                            size_t inserts, uint64_t seed) {
  cbix::CorpusSpec spec;
  spec.num_classes = classes;
  spec.images_per_class = per_class;
  spec.width = 128;
  spec.height = 128;
  spec.seed = seed;
  const cbix::CorpusGenerator gen(spec);
  ImageInputs in;
  in.corpus = gen.Generate();
  cbix::Rng rng(seed ^ 0x5bd1e995ULL);
  // Unseen instances: instance ids past the corpus, so a query is never
  // a stored image.
  int next_instance = per_class;
  for (size_t i = 0; i < queries; ++i) {
    const int c = static_cast<int>(rng.NextBelow(classes));
    const cbix::LabeledImage inst = gen.MakeInstance(c, next_instance++);
    const cbix::Distortion distortion = cbix::RandomDistortion(&rng, 0.3f);
    const cbix::ImageU8 img =
        cbix::ApplyDistortion(inst.image, distortion, rng.Next());
    auto encoded = cbix::EncodePnm(img);
    if (!encoded.ok()) {
      std::fprintf(stderr, "perfbench: EncodePnm failed: %s\n",
                   encoded.status().ToString().c_str());
      continue;  // the caller checks the query count
    }
    in.queries.push_back({std::move(encoded).value(), c});
  }
  for (size_t i = 0; i < inserts; ++i) {
    const int c = static_cast<int>(rng.NextBelow(classes));
    in.inserts.push_back(gen.MakeInstance(c, next_instance++));
  }
  return in;
}

uint64_t Fingerprint(const VectorSet& set, uint64_t h) {
  for (size_t i = 0; i < set.rows.size(); ++i) {
    h = Fnv1a(set.rows[i].data(), set.rows[i].size() * sizeof(float), h);
    h = Fnv1a(&set.labels[i], sizeof(int32_t), h);
  }
  return h;
}

uint64_t Fingerprint(const ImageInputs& inputs, uint64_t h) {
  const auto image = [&h](const cbix::LabeledImage& li) {
    h = Fnv1a(li.image.data().data(), li.image.data().size(), h);
    h = Fnv1a(&li.class_id, sizeof(int), h);
  };
  for (const auto& li : inputs.corpus) image(li);
  for (const auto& q : inputs.queries) {
    h = Fnv1a(q.pnm.data(), q.pnm.size(), h);
    h = Fnv1a(&q.label, sizeof(int32_t), h);
  }
  for (const auto& li : inputs.inserts) image(li);
  return h;
}

}  // namespace perfbench
