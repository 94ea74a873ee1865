#pragma once

// Order statistics for the benchmark's own figures. Percentiles are
// nearest-rank: the reported value is always one of the samples, so a
// figure can be traced back to a single measured call.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it describes a handful of outliers, not a tail.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile `q` (in [0, 1]) over `n` samples:
/// ceil(q * n), clamped to [1, n]. n must be > 0.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile; nullopt for an empty sample.
[[nodiscard]] inline std::optional<double> percentile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return std::nullopt;
  }
  const std::size_t rank = nearest_rank(xs.size(), q);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
  return xs[rank - 1];
}

/// Nearest-rank percentile that is refused (nullopt) when fewer than
/// kMinSamplesBeyond samples lie beyond it — p99 needs at least 1000.
[[nodiscard]] inline std::optional<double> tail_percentile(std::vector<double> xs, double q) {
  if (xs.empty() || xs.size() - nearest_rank(xs.size(), q) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  return percentile(std::move(xs), q);
}

[[nodiscard]] inline std::optional<double> median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}

/// Folds one pass of per-item timings into the running per-item minimum
/// over passes: `acc` becomes `pass` when empty, else its element-wise
/// minimum with `pass`. Returns false (and leaves `acc` alone) when the
/// passes differ in length, i.e. did not time the same items.
[[nodiscard]] inline bool fold_min(std::vector<double>& acc, const std::vector<double>& pass) {
  if (acc.empty()) {
    acc = pass;
    return true;
  }
  if (acc.size() != pass.size()) {
    return false;
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i] = std::min(acc[i], pass[i]);
  }
  return true;
}

}  // namespace perfbench
