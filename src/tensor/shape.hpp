#pragma once

// Tensor shapes: small fixed-capacity dimension vectors.

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace dlbench::tensor {

/// A tensor shape of up to 4 dimensions (N, C, H, W at most — all nets
/// in the paper are CNNs over NCHW batches plus 2-D weight matrices).
class Shape {
 public:
  static constexpr int kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);

  int rank() const { return rank_; }

  /// Dimension i; negative i counts from the back (-1 = last).
  std::int64_t dim(int i) const;
  std::int64_t operator[](int i) const { return dim(i); }

  /// Product of all dimensions (1 for rank-0).
  std::int64_t numel() const;

  /// This shape with dimension 0 (the batch) replaced by `n`.
  Shape with_batch(std::int64_t n) const;

  bool operator==(const Shape& other) const;
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// "[2, 3, 28, 28]"
  std::string to_string() const;

 private:
  std::array<std::int64_t, kMaxRank> dims_{};
  int rank_ = 0;
};

}  // namespace dlbench::tensor
