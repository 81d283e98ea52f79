#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/flat_snapshot.h"
#include "util/serialize.h"

namespace dv {

namespace {
std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (const auto e : shape) {
    if (e <= 0) throw std::invalid_argument{"tensor: nonpositive extent"};
    n *= e;
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

tensor::tensor(std::vector<std::int64_t> shape)
    : shape_{std::move(shape)},
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0f) {}

tensor tensor::zeros(std::vector<std::int64_t> shape) {
  return tensor{std::move(shape)};
}

tensor tensor::full(std::vector<std::int64_t> shape, float value) {
  tensor t{std::move(shape)};
  t.fill(value);
  return t;
}

tensor tensor::from_data(std::vector<std::int64_t> shape,
                         std::vector<float> data) {
  tensor t;
  const auto n = shape_numel(shape);
  if (static_cast<std::size_t>(n) != data.size()) {
    throw std::invalid_argument{"tensor::from_data: size mismatch"};
  }
  t.shape_ = std::move(shape);
  t.data_ = std::move(data);
  return t;
}

tensor tensor::randn(std::vector<std::int64_t> shape, rng& gen, float stddev) {
  tensor t{std::move(shape)};
  for (auto& v : t.data_) v = static_cast<float>(gen.normal()) * stddev;
  return t;
}

tensor tensor::uniform(std::vector<std::int64_t> shape, rng& gen, float lo,
                       float hi) {
  tensor t{std::move(shape)};
  for (auto& v : t.data_) v = static_cast<float>(gen.uniform(lo, hi));
  return t;
}

tensor& tensor::reshape(std::vector<std::int64_t> shape) {
  std::int64_t known = 1;
  int infer = -1;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      if (infer >= 0) throw std::invalid_argument{"reshape: two -1 extents"};
      infer = static_cast<int>(i);
    } else if (shape[i] <= 0) {
      throw std::invalid_argument{"reshape: nonpositive extent"};
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    if (known == 0 || numel() % known != 0) {
      throw std::invalid_argument{"reshape: cannot infer extent"};
    }
    shape[static_cast<std::size_t>(infer)] = numel() / known;
    known *= shape[static_cast<std::size_t>(infer)];
  }
  if (known != numel()) throw std::invalid_argument{"reshape: numel mismatch"};
  shape_ = std::move(shape);
  return *this;
}

tensor tensor::reshaped(std::vector<std::int64_t> shape) const {
  tensor t = *this;
  t.reshape(std::move(shape));
  return t;
}

tensor tensor::sample(std::int64_t n) const {
  if (dim() != 4) throw std::invalid_argument{"sample: tensor is not 4-D"};
  if (n < 0 || n >= shape_[0]) throw std::out_of_range{"sample: bad index"};
  const std::int64_t stride = shape_[1] * shape_[2] * shape_[3];
  tensor out{{shape_[1], shape_[2], shape_[3]}};
  std::copy_n(data_.data() + n * stride, stride, out.data());
  return out;
}

void tensor::set_sample(std::int64_t n, const tensor& s) {
  if (dim() != 4) throw std::invalid_argument{"set_sample: tensor is not 4-D"};
  const std::int64_t stride = shape_[1] * shape_[2] * shape_[3];
  if (s.numel() != stride) throw std::invalid_argument{"set_sample: size"};
  if (n < 0 || n >= shape_[0]) throw std::out_of_range{"set_sample: index"};
  std::copy_n(s.data(), stride, data_.data() + n * stride);
}

tensor tensor::slice_rows(std::int64_t begin, std::int64_t end) const {
  if (dim() < 1) throw std::invalid_argument{"slice_rows: empty tensor"};
  if (begin < 0 || end > shape_[0] || begin >= end) {
    throw std::out_of_range{"slice_rows: bad range"};
  }
  std::int64_t stride = 1;
  for (int a = 1; a < dim(); ++a) stride *= shape_[static_cast<std::size_t>(a)];
  std::vector<std::int64_t> out_shape = shape_;
  out_shape[0] = end - begin;
  tensor out{out_shape};
  std::copy_n(data_.data() + begin * stride, (end - begin) * stride,
              out.data());
  return out;
}

tensor tensor::select_rows(const std::vector<std::int64_t>& rows) const {
  if (dim() < 1) throw std::invalid_argument{"select_rows: empty tensor"};
  if (rows.empty()) throw std::out_of_range{"select_rows: no rows"};
  const std::int64_t stride = numel() / shape_[0];
  std::vector<std::int64_t> out_shape = shape_;
  out_shape[0] = static_cast<std::int64_t>(rows.size());
  tensor out{out_shape};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] < 0 || rows[i] >= shape_[0]) {
      throw std::out_of_range{"select_rows: row out of range"};
    }
    std::copy_n(data_.data() + rows[i] * stride, stride,
                out.data() + static_cast<std::int64_t>(i) * stride);
  }
  return out;
}

void tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

tensor& tensor::operator+=(const tensor& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

tensor& tensor::operator-=(const tensor& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

tensor& tensor::operator*=(float scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

void tensor::add_scaled(const tensor& other, float alpha) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void tensor::mul_elem(const tensor& other) {
  assert(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void tensor::clamp(float lo, float hi) {
  for (auto& v : data_) v = std::clamp(v, lo, hi);
}

float tensor::sum() const {
  double acc = 0.0;
  for (const auto v : data_) acc += v;
  return static_cast<float>(acc);
}

float tensor::max() const {
  if (data_.empty()) throw std::logic_error{"max of empty tensor"};
  return *std::max_element(data_.begin(), data_.end());
}

float tensor::min() const {
  if (data_.empty()) throw std::logic_error{"min of empty tensor"};
  return *std::min_element(data_.begin(), data_.end());
}

float tensor::mean() const {
  if (data_.empty()) throw std::logic_error{"mean of empty tensor"};
  return sum() / static_cast<float>(data_.size());
}

std::int64_t tensor::argmax() const {
  if (data_.empty()) throw std::logic_error{"argmax of empty tensor"};
  return static_cast<std::int64_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

float tensor::norm2() const {
  double acc = 0.0;
  for (const auto v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float tensor::norm1() const {
  double acc = 0.0;
  for (const auto v : data_) acc += std::abs(static_cast<double>(v));
  return static_cast<float>(acc);
}

void tensor::save_snapshot(snapshot_writer& w,
                           const std::string& prefix) const {
  w.add_i64(prefix + "shape", shape_);
  w.add_f32(prefix + "data", data_);
}

tensor tensor::load_snapshot(const snapshot_view& snap,
                             const std::string& prefix) {
  const auto shape = snap.i64(prefix + "shape");
  const auto data = snap.f32(prefix + "data");
  // Each extent is checked against the element count before multiplying,
  // so a corrupt shape cannot overflow the product.
  std::size_t numel = shape.empty() ? 0 : 1;
  bool ok = true;
  for (const std::int64_t e : shape) {
    ok = ok && e > 0 && numel <= data.size() / static_cast<std::size_t>(e);
    if (ok) numel *= static_cast<std::size_t>(e);
  }
  if (!ok || numel != data.size()) {
    throw serialize_error{"tensor '" + prefix + "': shape/data mismatch"};
  }
  tensor t;
  t.shape_.assign(shape.begin(), shape.end());
  t.data_.assign(data.begin(), data.end());
  return t;
}

std::string tensor::shape_string() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << "]";
  return out.str();
}

tensor operator+(tensor lhs, const tensor& rhs) {
  lhs += rhs;
  return lhs;
}

tensor operator-(tensor lhs, const tensor& rhs) {
  lhs -= rhs;
  return lhs;
}

tensor operator*(tensor lhs, float scalar) {
  lhs *= scalar;
  return lhs;
}

}  // namespace dv
