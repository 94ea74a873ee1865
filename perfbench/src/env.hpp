#pragma once

// The environment block printed with every result, so a figure is never
// read without the host, compiler and build that produced it.

#include <cstddef>
#include <string>

#include "run.hpp"

namespace perfbench {

/// Per-core L2 size in bytes (0 when the host does not say).
[[nodiscard]] std::size_t l2_cache_bytes();

/// True when this binary was compiled with optimisation and without
/// assertions; timings of any other build are never published.
[[nodiscard]] constexpr bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

/// One JSON object: nproc, CPU model, L2/L3 sizes, compiler, build type,
/// git revision, seed, replay shard count.
[[nodiscard]] std::string environment_json(const Options& opts, const std::string& git_rev,
                                           std::size_t shards);

}  // namespace perfbench
