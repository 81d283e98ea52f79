// Dense float32 tensor with value semantics.
//
// The tensor is always contiguous in row-major order with up to four
// dimensions used by this library (N, C, H, W for image batches; M, N for
// matrices; flat for vectors). It owns its storage; copies are deep and
// moves are cheap. All indexing is bounds-checked in debug builds via
// assertions and unchecked in release builds for speed.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dv {

class snapshot_view;
class snapshot_writer;

class tensor {
 public:
  /// Empty tensor (numel() == 0, dim() == 0).
  tensor() = default;

  /// Zero-filled tensor of the given shape. All extents must be positive.
  explicit tensor(std::vector<std::int64_t> shape);

  /// Convenience constructors.
  static tensor zeros(std::vector<std::int64_t> shape);
  static tensor full(std::vector<std::int64_t> shape, float value);
  static tensor from_data(std::vector<std::int64_t> shape,
                          std::vector<float> data);
  /// I.i.d. normal entries with the given stddev.
  static tensor randn(std::vector<std::int64_t> shape, rng& gen,
                      float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static tensor uniform(std::vector<std::int64_t> shape, rng& gen, float lo,
                        float hi);

  // -- Shape ----------------------------------------------------------------

  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  int dim() const { return static_cast<int>(shape_.size()); }
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t extent(int axis) const {
    assert(axis >= 0 && axis < dim());
    return shape_[static_cast<std::size_t>(axis)];
  }
  bool same_shape(const tensor& other) const { return shape_ == other.shape_; }
  bool empty() const { return data_.empty(); }

  /// Reinterprets the tensor with a new shape of identical numel.
  /// A single -1 extent is inferred. Returns *this for chaining.
  tensor& reshape(std::vector<std::int64_t> shape);
  /// Copy with a different shape; the source is untouched.
  tensor reshaped(std::vector<std::int64_t> shape) const;

  // -- Element access ---------------------------------------------------------

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  float& operator[](std::int64_t i) {
    assert(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    assert(i >= 0 && i < numel());
    return data_[static_cast<std::size_t>(i)];
  }

  float& at2(std::int64_t i, std::int64_t j) {
    assert(dim() == 2);
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }
  float at2(std::int64_t i, std::int64_t j) const {
    assert(dim() == 2);
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }

  float& at4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    assert(dim() == 4);
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float at4(std::int64_t n, std::int64_t c, std::int64_t h,
            std::int64_t w) const {
    assert(dim() == 4);
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  float& at3(std::int64_t c, std::int64_t h, std::int64_t w) {
    assert(dim() == 3);
    return data_[static_cast<std::size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }
  float at3(std::int64_t c, std::int64_t h, std::int64_t w) const {
    assert(dim() == 3);
    return data_[static_cast<std::size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }

  // -- Batch helpers ----------------------------------------------------------

  /// Copies sample `n` of a 4-D batch into a fresh [C,H,W] tensor.
  tensor sample(std::int64_t n) const;
  /// Overwrites sample `n` of a 4-D batch from a [C,H,W] tensor.
  void set_sample(std::int64_t n, const tensor& s);
  /// Copies rows [begin, end) of the leading axis into a fresh tensor.
  tensor slice_rows(std::int64_t begin, std::int64_t end) const;
  /// Copies the listed rows of the leading axis, in list order, into a
  /// fresh tensor. Throws std::out_of_range on a bad or empty row list.
  tensor select_rows(const std::vector<std::int64_t>& rows) const;

  // -- Arithmetic (elementwise, in place) --------------------------------------

  void fill(float value);
  tensor& operator+=(const tensor& other);
  tensor& operator-=(const tensor& other);
  tensor& operator*=(float scalar);
  /// this += alpha * other (axpy).
  void add_scaled(const tensor& other, float alpha);
  /// Hadamard product in place.
  void mul_elem(const tensor& other);
  /// Clamps every element to [lo, hi].
  void clamp(float lo, float hi);

  // -- Reductions ---------------------------------------------------------------

  float sum() const;
  float max() const;
  float min() const;
  float mean() const;
  /// Index of the maximum element (first on ties).
  std::int64_t argmax() const;
  /// Euclidean norm of the flattened tensor.
  float norm2() const;
  /// L1 norm of the flattened tensor.
  float norm1() const;

  // -- Serialization --------------------------------------------------------------

  /// Writes the tensor as snapshot sections `prefix` + {shape, data}.
  void save_snapshot(snapshot_writer& w, const std::string& prefix) const;
  /// Reads the sections written by save_snapshot; throws serialize_error
  /// when the shape and the data disagree.
  static tensor load_snapshot(const snapshot_view& snap,
                              const std::string& prefix);

  /// Human-readable shape like "[64, 3, 32, 32]".
  std::string shape_string() const;

 private:
  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
};

/// Out-of-place helpers.
tensor operator+(tensor lhs, const tensor& rhs);
tensor operator-(tensor lhs, const tensor& rhs);
tensor operator*(tensor lhs, float scalar);

}  // namespace dv
