#include "tensor/shape.hpp"

#include <sstream>

#include "util/error.hpp"

namespace dlbench::tensor {

Shape::Shape(std::initializer_list<std::int64_t> dims) {
  DLB_CHECK(dims.size() <= kMaxRank,
            "shape rank " << dims.size() << " exceeds max " << kMaxRank);
  for (auto d : dims) {
    DLB_CHECK(d >= 0, "negative dimension " << d);
    dims_[static_cast<std::size_t>(rank_++)] = d;
  }
}

std::int64_t Shape::dim(int i) const {
  if (i < 0) i += rank_;
  DLB_CHECK(i >= 0 && i < rank_, "dim index " << i << " out of rank " << rank_);
  return dims_[static_cast<std::size_t>(i)];
}

std::int64_t Shape::numel() const {
  std::int64_t n = 1;
  for (int i = 0; i < rank_; ++i) n *= dims_[static_cast<std::size_t>(i)];
  return n;
}

Shape Shape::with_batch(std::int64_t n) const {
  DLB_CHECK(rank_ >= 1 && n >= 0, "with_batch(" << n << ") on rank " << rank_);
  Shape out = *this;
  out.dims_[0] = n;
  return out;
}

bool Shape::operator==(const Shape& other) const {
  if (rank_ != other.rank_) return false;
  for (int i = 0; i < rank_; ++i)
    if (dims_[static_cast<std::size_t>(i)] !=
        other.dims_[static_cast<std::size_t>(i)])
      return false;
  return true;
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < rank_; ++i)
    os << (i ? ", " : "") << dims_[static_cast<std::size_t>(i)];
  os << "]";
  return os.str();
}

}  // namespace dlbench::tensor
