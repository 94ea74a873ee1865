#pragma once

// The benchmark's one reading of the host clock. Every host time the
// benchmark reports (setup, timed phase, spans, per-call latency) goes
// through now_ns(), so there is a single place that reads real time.

#include <chrono>
#include <cstdint>

namespace perfbench {

// mpipred-lint: allow(wall-clock) -- the benchmark measures real host time, never simulated time
using HostClock = std::chrono::steady_clock;

/// Monotonic host time in nanoseconds since an arbitrary epoch.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double ns_to_s(std::int64_t ns) noexcept {
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace perfbench
