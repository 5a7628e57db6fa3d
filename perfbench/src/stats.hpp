// stats.hpp — sample statistics shared by the benchmark and its tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `v` (q in [0, 1]). A tail quantile is only
/// reported when at least `kTailSamples` samples lie beyond it, so a p99
/// needs >= 1000 samples and a p90 >= 100; fewer throws, because a tail
/// estimated from a handful of points is not a measurement.
inline constexpr std::int64_t kTailSamples = 10;

inline double quantile(std::vector<double> v, double q,
                       const std::string& what = "sample") {
  if (v.empty()) throw std::runtime_error(what + ": no samples");
  const auto n = static_cast<std::int64_t>(v.size());
  if (q > 0.5 && static_cast<double>(n) * (1.0 - q) + 1e-9 <
                     static_cast<double>(kTailSamples))
    throw std::runtime_error(what + ": " + std::to_string(n) +
                             " samples are too few for quantile " +
                             std::to_string(q));
  auto rank = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[static_cast<std::size_t>(rank - 1)];
}

inline double median(std::vector<double> v, const std::string& what = "sample") {
  return quantile(std::move(v), 0.5, what);
}

/// The q quantile of each consecutive window of `window` samples (arrival
/// order; a trailing partial window is dropped).
inline std::vector<double> window_quantiles(const std::vector<double>& v,
                                            std::size_t window, double q,
                                            const std::string& what = "sample") {
  std::vector<double> out;
  for (std::size_t lo = 0; lo + window <= v.size(); lo += window)
    out.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                            v.begin() + static_cast<std::ptrdiff_t>(lo + window)),
        q, what));
  return out;
}

/// Robust tail estimate for a long stream on a shared machine: the median of
/// the per-window quantiles, so a stall that hits a minority of the windows
/// cannot move it.
inline double windowed_quantile(const std::vector<double>& v, double q,
                                std::size_t window,
                                const std::string& what = "sample") {
  std::vector<double> per_window = window_quantiles(v, window, q, what);
  if (per_window.size() < 3)
    throw std::runtime_error(what + ": fewer than 3 windows of " +
                             std::to_string(window));
  return median(std::move(per_window), what);
}

}  // namespace perfbench
