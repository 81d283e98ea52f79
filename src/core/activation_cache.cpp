#include "core/activation_cache.h"

#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/deep_validator.h"

namespace dv {

namespace {

std::size_t frame_value_bytes(const cached_frame_activations& v) {
  std::size_t bytes = v.logits.size() * sizeof(float) +
                      v.per_layer.size() * sizeof(double);
  for (const tensor& p : v.probes) {
    bytes += static_cast<std::size_t>(p.numel()) * sizeof(float);
  }
  return bytes;
}

/// Shape of the full [N, ...] output tensor given one frame's [1, ...]
/// slice and the batch size.
std::vector<std::int64_t> batched_shape(const tensor& frame_slice,
                                        std::int64_t n) {
  std::vector<std::int64_t> shape = frame_slice.shape();
  shape[0] = n;
  return shape;
}

/// One batch through the cache, up to its inserts. Every row points at
/// its frame's entry: the cached one on a hit, or the fresh value its
/// first occurrence computed. Hit pointers stay valid until
/// insert_fresh, so nothing else may touch the cache in between.
struct cache_pass {
  std::vector<cached_frame_activations*> rows;
  /// The forward pass over the distinct missed frames, in first-occurrence
  /// order, then one value and key per frame.
  activation_batch fresh_acts;
  std::vector<cached_frame_activations> fresh;
  std::vector<strong_hash> fresh_keys;
};

/// Splits a reduced activation_batch into one cache value per row.
std::vector<cached_frame_activations> split_rows(const activation_batch& acts) {
  const std::int64_t n = acts.size();
  const std::int64_t classes = acts.logits.extent(1);
  std::vector<cached_frame_activations> out(static_cast<std::size_t>(n));
  for (std::int64_t f = 0; f < n; ++f) {
    cached_frame_activations& value = out[static_cast<std::size_t>(f)];
    value.logits.assign(acts.logits.data() + f * classes,
                        acts.logits.data() + (f + 1) * classes);
    value.prediction = acts.predictions[static_cast<std::size_t>(f)];
    value.probes.reserve(acts.probes.size());
    for (const tensor& src : acts.probes) {
      const std::int64_t row_elems = src.numel() / n;
      tensor slice{batched_shape(src, 1)};
      std::memcpy(slice.data(), src.data() + f * row_elems,
                  static_cast<std::size_t>(row_elems) * sizeof(float));
      value.probes.push_back(std::move(slice));
    }
  }
  return out;
}

/// Stacks the entries `rows` point at into one batch reduced at `spatial`.
activation_batch stack_rows(const std::vector<cached_frame_activations*>& rows,
                            int spatial) {
  activation_batch out;
  out.reduced_spatial = spatial;
  const auto n = static_cast<std::int64_t>(rows.size());
  if (n == 0) return out;
  const cached_frame_activations& first = *rows.front();
  const auto classes = static_cast<std::int64_t>(first.logits.size());
  out.logits = tensor{{n, classes}};
  out.predictions.resize(static_cast<std::size_t>(n));
  out.probes.reserve(first.probes.size());
  for (const tensor& p : first.probes) {
    out.probes.push_back(tensor{batched_shape(p, n)});
  }
  for (std::int64_t i = 0; i < n; ++i) {
    const cached_frame_activations& row = *rows[static_cast<std::size_t>(i)];
    std::memcpy(out.logits.data() + i * classes, row.logits.data(),
                static_cast<std::size_t>(classes) * sizeof(float));
    out.predictions[static_cast<std::size_t>(i)] = row.prediction;
    for (std::size_t p = 0; p < out.probes.size(); ++p) {
      const tensor& src = row.probes[p];
      std::memcpy(out.probes[p].data() + i * src.numel(), src.data(),
                  static_cast<std::size_t>(src.numel()) * sizeof(float));
    }
  }
  return out;
}

cache_pass probe_and_forward(const sequential& model, const tensor& images,
                             activation_cache& cache) {
  if (images.dim() != 3 && images.dim() != 4) {
    throw std::invalid_argument{
        "activation cache: expected [N,C,H,W] images or one [C,H,W] frame, "
        "got " +
        images.shape_string()};
  }
  const std::int64_t n = images.dim() == 4 ? images.extent(0) : 1;
  const std::int64_t frame_elems = n > 0 ? images.numel() / n : 0;

  // Probe (sequential): hash every frame and look it up once. Probe order
  // is the row order, so hit/miss counts and LRU refreshes are a pure
  // function of the stream — identical at any DV_THREADS. Missed rows
  // dedup by hash within the batch — a near-static camera fills a whole
  // batch with one frame, which must cost one forward row, not max_batch
  // of them. Identical bytes produce identical outputs (all kernels are
  // deterministic), so fanning one computed row out to its duplicates is
  // bitwise exact.
  cache_pass pass;
  pass.rows.assign(static_cast<std::size_t>(n), nullptr);
  std::vector<std::int64_t> miss_rows;  // first row per distinct missed hash
  std::vector<std::int64_t> miss_index(static_cast<std::size_t>(n), -1);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> seen;
  for (std::int64_t i = 0; i < n; ++i) {
    const strong_hash h = strong_hash::of_bytes(
        images.data() + i * frame_elems,
        static_cast<std::size_t>(frame_elems) * sizeof(float));
    pass.rows[static_cast<std::size_t>(i)] = cache.lru().find(h);
    if (pass.rows[static_cast<std::size_t>(i)] != nullptr) continue;
    const auto [it, inserted] = seen.emplace(
        std::make_pair(h.hi, h.lo),
        static_cast<std::int64_t>(miss_rows.size()));
    if (inserted) {
      miss_rows.push_back(i);
      pass.fresh_keys.push_back(h);
    }
    miss_index[static_cast<std::size_t>(i)] = it->second;
  }
  if (miss_rows.empty()) return pass;

  // One forward pass over just the distinct missed rows, its probes
  // reduced at the cache's resolution inside each inference slice. The
  // reducer works row by row, so a row reduced here has the bits it would
  // have inside the full batch.
  std::vector<std::int64_t> shape{static_cast<std::int64_t>(miss_rows.size())};
  shape.insert(shape.end(), images.shape().end() - 3, images.shape().end());
  tensor miss_images{shape};
  for (std::size_t m = 0; m < miss_rows.size(); ++m) {
    std::memcpy(miss_images.data() + static_cast<std::int64_t>(m) * frame_elems,
                images.data() + miss_rows[m] * frame_elems,
                static_cast<std::size_t>(frame_elems) * sizeof(float));
  }
  pass.fresh_acts = extract_activations(model, miss_images, cache.spatial());
  pass.fresh = split_rows(pass.fresh_acts);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t m = miss_index[static_cast<std::size_t>(i)];
    if (m >= 0) {
      pass.rows[static_cast<std::size_t>(i)] =
          &pass.fresh[static_cast<std::size_t>(m)];
    }
  }
  return pass;
}

/// Inserts each distinct missed frame once, in first-occurrence order.
void insert_fresh(activation_cache& cache, cache_pass& pass) {
  for (std::size_t m = 0; m < pass.fresh.size(); ++m) {
    const std::size_t bytes = frame_value_bytes(pass.fresh[m]);
    cache.lru().insert(pass.fresh_keys[m], std::move(pass.fresh[m]), bytes);
  }
}

}  // namespace

activation_cache::activation_cache()
    : activation_cache(cache_capacity(), deep_validator_config{}.spatial) {}

activation_cache::activation_cache(std::size_t capacity, int spatial)
    : lru_{capacity, "activation"}, spatial_{spatial} {
  if (spatial_ < 1) {
    throw std::invalid_argument{"activation_cache: spatial must be >= 1"};
  }
}

activation_batch extract_activations_cached(const sequential& model,
                                            const tensor& images,
                                            activation_cache* cache) {
  if (cache == nullptr) return extract_activations(model, images);
  if (!cache_enabled() || cache->lru().capacity() == 0) {
    return extract_activations(model, images, cache->spatial());
  }
  cache_pass pass = probe_and_forward(model, images, *cache);
  activation_batch out = stack_rows(pass.rows, cache->spatial());
  insert_fresh(*cache, pass);
  return out;
}

validation_scores score_cached(const sequential& model, const tensor& images,
                               const validator_bank_view& bank,
                               activation_cache* cache) {
  if (cache == nullptr || !cache_enabled() || cache->lru().capacity() == 0) {
    return bank.evaluate(extract_activations(model, images, bank.spatial()));
  }
  if (cache->spatial() != bank.spatial()) {
    throw std::invalid_argument{
        "score_cached: the cache holds probes at another resolution than "
        "the bank reads"};
  }
  cache_pass pass = probe_and_forward(model, images, *cache);

  // The bank scores each distinct missed frame once; every hit holds the
  // row this bank scored when its frame was inserted.
  if (!pass.fresh.empty()) {
    const validation_scores s = bank.evaluate(pass.fresh_acts);
    for (std::size_t m = 0; m < pass.fresh.size(); ++m) {
      cached_frame_activations& entry = pass.fresh[m];
      entry.per_layer.resize(s.per_layer.size());
      for (std::size_t v = 0; v < s.per_layer.size(); ++v) {
        entry.per_layer[v] = s.per_layer[v][m];
      }
      entry.joint = s.joint[m];
    }
  }

  // Every row copies its entry's scored row, then the fresh frames are
  // inserted (hit pointers die at the first insert).
  const std::size_t n = pass.rows.size();
  validation_scores out;
  out.per_layer.assign(static_cast<std::size_t>(bank.validated_layers()),
                       std::vector<double>(n));
  out.joint.resize(n);
  out.predictions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const cached_frame_activations& entry = *pass.rows[i];
    if (entry.per_layer.size() != out.per_layer.size()) {
      throw std::logic_error{
          "score_cached: the cache holds a frame this bank did not score"};
    }
    for (std::size_t v = 0; v < out.per_layer.size(); ++v) {
      out.per_layer[v][i] = entry.per_layer[v];
    }
    out.joint[i] = entry.joint;
    out.predictions[i] = entry.prediction;
  }
  insert_fresh(*cache, pass);
  return out;
}

}  // namespace dv
