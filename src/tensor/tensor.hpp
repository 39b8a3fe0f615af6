#pragma once

// Dense float32 tensors with shared storage.
//
// Tensor is a handle type, like the blob/tensor types in the frameworks
// under study: copying a Tensor aliases the same contiguous buffer;
// clone() makes a deep copy. All tensors are contiguous row-major and
// single-precision, matching the training configurations in the paper.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/shape.hpp"
#include "util/rng.hpp"

namespace dlbench::tensor {

/// A contiguous, row-major float32 tensor handle.
class Tensor {
 public:
  /// Empty (rank-0, zero-element) tensor.
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills with `value`.
  Tensor(Shape shape, float value);

  /// Wraps the given values (copied). values.size() must equal numel.
  Tensor(Shape shape, std::span<const float> values);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  /// Allocates WITHOUT zero-filling. Only for destinations every
  /// element of which the caller immediately overwrites (GEMM / conv
  /// outputs); reading before writing is undefined.
  static Tensor uninit(Shape shape);
  static Tensor full(Shape shape, float value);
  /// i.i.d. N(mean, stddev) entries.
  static Tensor randn(Shape shape, util::Rng& rng, float mean = 0.f,
                      float stddev = 1.f);
  /// i.i.d. U[lo, hi) entries.
  static Tensor rand_uniform(Shape shape, util::Rng& rng, float lo,
                             float hi);

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return shape_.numel(); }
  std::int64_t dim(int i) const { return shape_.dim(i); }
  /// True for a default-constructed handle (no buffer; its rank-0
  /// shape would count one element) and for zero-element shapes.
  bool empty() const { return data_ == nullptr || numel() == 0; }

  /// Mutable / const access to the flat buffer.
  std::span<float> data();
  std::span<const float> data() const;
  float* raw() { return data_.get(); }
  const float* raw() const { return data_.get(); }

  /// Element access by flat index (debug-checked).
  float& at(std::int64_t i);
  float at(std::int64_t i) const;

  /// Deep copy.
  Tensor clone() const;

  /// Returns a tensor sharing this storage under a new shape with the
  /// same element count.
  Tensor reshape(Shape new_shape) const;

  /// Rows [first, first + count) along dimension 0, sharing this
  /// storage (a contiguous sub-block, so still a plain tensor).
  Tensor rows(std::int64_t first, std::int64_t count) const;

  /// Sets every element to `value`.
  void fill(float value);

  /// True if any element is NaN or infinite.
  bool has_non_finite() const;

  /// "Tensor[2, 3] {…}" — elided for big tensors.
  std::string to_string() const;

 private:
  Shape shape_;
  std::shared_ptr<float[]> data_;
};

}  // namespace dlbench::tensor
