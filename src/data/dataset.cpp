#include "data/dataset.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dv {

dataset dataset::subset(const std::vector<std::int64_t>& indices) const {
  dataset out;
  out.num_classes = num_classes;
  out.name = name;
  if (indices.empty()) return out;
  out.images = images.select_rows(indices);
  out.labels.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    out.labels[i] = labels[static_cast<std::size_t>(indices[i])];
  }
  return out;
}

std::pair<dataset, dataset> dataset::split(std::int64_t first_count) const {
  if (first_count < 0 || first_count > size()) {
    throw std::out_of_range{"dataset::split: bad count"};
  }
  std::vector<std::int64_t> head(static_cast<std::size_t>(first_count));
  std::iota(head.begin(), head.end(), 0);
  std::vector<std::int64_t> tail(static_cast<std::size_t>(size() - first_count));
  std::iota(tail.begin(), tail.end(), first_count);
  return {subset(head), subset(tail)};
}

void dataset::check() const {
  if (images.dim() != 4) {
    throw std::invalid_argument{"dataset: images must be [N,C,H,W]"};
  }
  if (static_cast<std::int64_t>(labels.size()) != size()) {
    throw std::invalid_argument{"dataset: label count mismatch"};
  }
  for (const auto y : labels) {
    if (y < 0 || y >= num_classes) {
      throw std::invalid_argument{"dataset: label out of range"};
    }
  }
}

std::vector<std::int64_t> sample_indices(std::int64_t population,
                                         std::int64_t count, rng& gen) {
  if (count > population) {
    throw std::invalid_argument{"sample_indices: count exceeds population"};
  }
  std::vector<std::int64_t> all(static_cast<std::size_t>(population));
  std::iota(all.begin(), all.end(), 0);
  gen.shuffle_indices(all.size(), [&](std::size_t a, std::size_t b) {
    std::swap(all[a], all[b]);
  });
  all.resize(static_cast<std::size_t>(count));
  return all;
}

}  // namespace dv
