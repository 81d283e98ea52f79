#include "core/activation_cache.h"

#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/deep_validator.h"

namespace dv {

namespace {

std::size_t frame_value_bytes(const cached_frame_activations& v) {
  std::size_t bytes = v.logits.size() * sizeof(float);
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
  if (images.dim() == 3) {
    return extract_activations_cached(
        model,
        images.reshaped(
            {1, images.extent(0), images.extent(1), images.extent(2)}),
        cache);
  }
  if (images.dim() != 4) {
    throw std::invalid_argument{
        "extract_activations_cached: expected [N,C,H,W] images"};
  }
  const std::int64_t n = images.extent(0);
  const std::int64_t frame_elems = n > 0 ? images.numel() / n : 0;

  // Pass 1 (sequential): hash every frame and probe the cache. Probe
  // order is the row order, so hit/miss counts and LRU refreshes are a
  // pure function of the stream — identical at any DV_THREADS. Hit
  // pointers stay valid until the first insert below; every copy-out
  // happens before that. Missed rows dedup by hash within the batch —
  // a near-static camera fills a whole batch with one frame, which must
  // cost one forward row, not max_batch of them. Identical bytes produce
  // identical outputs (all kernels are deterministic), so fanning one
  // computed row out to its duplicates is bitwise exact.
  auto& lru = cache->lru();
  std::vector<strong_hash> hashes(static_cast<std::size_t>(n));
  std::vector<cached_frame_activations*> hits(static_cast<std::size_t>(n),
                                              nullptr);
  std::vector<std::int64_t> miss_rows;    // first row per distinct missed hash
  std::vector<std::int64_t> miss_index(static_cast<std::size_t>(n), -1);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> seen;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto& h = hashes[static_cast<std::size_t>(i)] =
        strong_hash::of_bytes(
            images.data() + i * frame_elems,
            static_cast<std::size_t>(frame_elems) * sizeof(float));
    hits[static_cast<std::size_t>(i)] = lru.find(h);
    if (hits[static_cast<std::size_t>(i)] != nullptr) continue;
    const auto [it, inserted] = seen.emplace(
        std::make_pair(h.hi, h.lo),
        static_cast<std::int64_t>(miss_rows.size()));
    if (inserted) miss_rows.push_back(i);
    miss_index[static_cast<std::size_t>(i)] = it->second;
  }

  // One forward pass over just the distinct missed rows, its probes
  // reduced at the cache's resolution inside each inference slice. The
  // reducer works row by row, so a row reduced here has the bits it would
  // have inside the full batch.
  activation_batch fresh;
  if (!miss_rows.empty()) {
    std::vector<std::int64_t> shape = images.shape();
    shape[0] = static_cast<std::int64_t>(miss_rows.size());
    tensor miss_images{shape};
    for (std::size_t m = 0; m < miss_rows.size(); ++m) {
      std::memcpy(miss_images.data() +
                      static_cast<std::int64_t>(m) * frame_elems,
                  images.data() + miss_rows[m] * frame_elems,
                  static_cast<std::size_t>(frame_elems) * sizeof(float));
    }
    fresh = extract_activations(model, miss_images, cache->spatial());
  }

  // Allocate the output from whichever side knows the shapes.
  activation_batch out;
  out.reduced_spatial = cache->spatial();
  const cached_frame_activations* shape_source = nullptr;
  for (std::int64_t i = 0; i < n && shape_source == nullptr; ++i) {
    shape_source = hits[static_cast<std::size_t>(i)];
  }
  if (!miss_rows.empty()) {
    out.logits = tensor{batched_shape(fresh.logits, n)};
    out.probes.reserve(fresh.probes.size());
    for (const tensor& p : fresh.probes) {
      out.probes.push_back(tensor{batched_shape(p, n)});
    }
  } else if (shape_source != nullptr) {
    out.logits = tensor{
        {n, static_cast<std::int64_t>(shape_source->logits.size())}};
    out.probes.reserve(shape_source->probes.size());
    for (const tensor& p : shape_source->probes) {
      out.probes.push_back(tensor{batched_shape(p, n)});
    }
  }
  out.predictions.assign(static_cast<std::size_t>(n), 0);

  // Copy cached rows first (hit pointers die at the first insert).
  const std::int64_t classes = out.logits.dim() == 2 ? out.logits.extent(1) : 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const cached_frame_activations* hit = hits[static_cast<std::size_t>(i)];
    if (hit == nullptr) continue;
    std::memcpy(out.logits.data() + i * classes, hit->logits.data(),
                hit->logits.size() * sizeof(float));
    out.predictions[static_cast<std::size_t>(i)] = hit->prediction;
    for (std::size_t p = 0; p < out.probes.size(); ++p) {
      tensor& dst = out.probes[p];
      const tensor& src = hit->probes[p];
      const std::int64_t row_elems = dst.numel() / n;
      std::memcpy(dst.data() + i * row_elems, src.data(),
                  static_cast<std::size_t>(row_elems) * sizeof(float));
    }
  }

  // Copy fresh rows out — in-batch duplicates share one computed row —
  // then insert each distinct frame once, in first-occurrence order.
  const std::int64_t unique = static_cast<std::int64_t>(miss_rows.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t f = miss_index[static_cast<std::size_t>(i)];
    if (f < 0) continue;
    std::memcpy(out.logits.data() + i * classes,
                fresh.logits.data() + f * classes,
                static_cast<std::size_t>(classes) * sizeof(float));
    out.predictions[static_cast<std::size_t>(i)] =
        fresh.predictions[static_cast<std::size_t>(f)];
    for (std::size_t p = 0; p < out.probes.size(); ++p) {
      const tensor& src = fresh.probes[p];
      const std::int64_t row_elems = src.numel() / unique;
      std::memcpy(out.probes[p].data() + i * row_elems,
                  src.data() + f * row_elems,
                  static_cast<std::size_t>(row_elems) * sizeof(float));
    }
  }
  for (std::size_t m = 0; m < miss_rows.size(); ++m) {
    const std::int64_t f = static_cast<std::int64_t>(m);
    cached_frame_activations value;
    value.logits.resize(static_cast<std::size_t>(classes));
    std::memcpy(value.logits.data(), fresh.logits.data() + f * classes,
                static_cast<std::size_t>(classes) * sizeof(float));
    value.prediction = fresh.predictions[m];
    value.probes.reserve(fresh.probes.size());
    for (std::size_t p = 0; p < fresh.probes.size(); ++p) {
      const tensor& src = fresh.probes[p];
      const std::int64_t row_elems = src.numel() / unique;
      tensor slice{batched_shape(src, 1)};
      std::memcpy(slice.data(), src.data() + f * row_elems,
                  static_cast<std::size_t>(row_elems) * sizeof(float));
      value.probes.push_back(std::move(slice));
    }
    const std::size_t bytes = frame_value_bytes(value);
    lru.insert(hashes[static_cast<std::size_t>(miss_rows[m])],
               std::move(value), bytes);
  }
  return out;
}

}  // namespace dv
