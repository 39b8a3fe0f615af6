#pragma once

// Procedural stand-ins for MNIST and CIFAR-10.
//
// The real datasets are not available offline; these generators create
// datasets with the properties the paper's analysis rests on:
//
//  * synthetic MNIST — 28x28x1, ten glyph classes rendered from
//    seven-segment strokes with jitter and light noise. Sparse (mostly
//    zero background) and low-entropy, so simple CNNs exceed 99%,
//    exactly the regime of the paper's Fig. 1.
//  * synthetic CIFAR-10 — 32x32x3, ten classes of dense oriented color
//    textures with shape overlays and strong per-sample variation.
//    High-entropy and much harder, so the same nets land far below
//    MNIST accuracy and differentiate by capacity/epochs (Fig. 2).
//
// Both generators are fully deterministic given the seed.

#include <cstdint>

#include "data/dataset.hpp"

namespace dlbench::data {

struct MnistOptions {
  std::int64_t train_samples = 2000;
  std::int64_t test_samples = 500;
  std::uint64_t seed = 42;
};

/// Generates the paired train/test synthetic MNIST split.
DatasetPair synthetic_mnist(const MnistOptions& options = {});

struct CifarOptions {
  std::int64_t train_samples = 2000;
  std::int64_t test_samples = 500;
  std::uint64_t seed = 43;
};

/// Generates the paired train/test synthetic CIFAR-10 split.
DatasetPair synthetic_cifar10(const CifarOptions& options = {});

/// Canonical dataset names used by the config registry.
inline constexpr const char* kMnistName = "MNIST";
inline constexpr const char* kCifarName = "CIFAR-10";

}  // namespace dlbench::data
