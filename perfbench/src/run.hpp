#pragma once

// State of one benchmark process: its options, tracer, output checks and
// the samples the end-to-end metrics are computed from.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "clock.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Samples a batch p90 needs: 10 beyond it.
inline constexpr std::size_t kMinBatchSamples = 100;

/// Spreads single-threaded repetitions over the CPUs this process may use.
/// On a shared host one CPU can run far slower than another at the same
/// moment; pinning repetition i to CPU i mod n makes every run sample all
/// of them, so a run's median does not depend on where the scheduler
/// happened to place it. The destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation();
  /// Pins the calling thread to the (i mod n)-th allowed CPU.
  void pin(std::size_t i);
  /// Lets the calling thread run on every allowed CPU again.
  void restore();

 private:
  std::vector<int> cpus_;
};

/// Samples of one world of a run: one world seed's timed phase and
/// closed-loop passes.
struct WorldSamples {
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  // Closed-loop observe + predicted_window latency of each replayed
  // message, the minimum over passes (every pass replays the same
  // messages, so the same work). The p50 and p99 are taken over it.
  std::vector<double> loop_min_us;
  std::size_t loop_passes = 0;
  double msgs = 0.0;  // messages the timed phase handles
  std::int64_t accuracy_hits = 0;
  std::int64_t accuracy_total = 0;
};

class Run {
 public:
  explicit Run(Options o) : opts(std::move(o)), tracer(opts.trace) {}

  /// One output check; a failure is printed and counted.
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  /// Pins a digest of simulated output for this run: the first value is
  /// kept, and every later repetition must reproduce it.
  void digest(const std::string& name, const std::string& hex) {
    const auto [it, inserted] = digests.emplace(name, hex);
    if (!inserted) {
      expect(it->second == hex, "digest " + name + " repeats across repetitions");
    }
  }

  /// Repeats `one_rep(k)` (which runs world k and returns its timed-phase
  /// seconds) until `opts.seconds` have passed, cycling over the run's
  /// worlds, each at least twice (traced runs: twice untraced, twice
  /// traced). In a traced run every second repetition records spans, the
  /// others give the untraced baseline the tracing overhead is measured
  /// against; each untraced/traced pair runs the same world. With
  /// `rotate`, the pairs (or repetitions) of a single-threaded workload are
  /// pinned to the allowed CPUs in turn (see CpuRotation), shifted by one
  /// CPU per round over the worlds so that every world visits every CPU.
  template <typename F>
  void timed_reps(F&& one_rep, bool rotate) {
    const std::int64_t start = now_ns();
    const std::size_t per_slot = opts.trace ? 2 : 1;
    const std::size_t min_reps = 2 * per_slot * worlds.size();
    CpuRotation cpus;
    for (std::size_t rep = 0; rep < min_reps || ns_to_s(now_ns() - start) < opts.seconds;
         ++rep) {
      const std::size_t slot = rep / per_slot;
      const std::size_t k = slot % worlds.size();
      if (rotate) {
        cpus.pin(slot + slot / worlds.size());
      }
      const bool traced = opts.trace && rep % 2 == 1;
      tracer.set_enabled(traced);
      (void)tracer.begin_run();
      const double wall = one_rep(k);
      (traced ? worlds[k].traced_wall_s : worlds[k].wall_s).push_back(wall);
    }
    tracer.set_enabled(opts.trace);
  }

  Options opts;
  Tracer tracer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::string> digests;

  // End-to-end samples and figures.
  std::vector<double> setup_s;
  /// One entry per world seed the timed phase cycles over.
  std::vector<WorldSamples> worlds = std::vector<WorldSamples>(1);
  double peak_rss_mib = 0.0;
  /// Lines that state the base of a ratio or the sample count of a figure.
  std::vector<std::string> notes;
};

/// Peak resident memory of this process so far (MiB).
[[nodiscard]] double peak_rss_mib();

/// The three workloads; each fills `run`.
void lu16_offline(Run& run);
void cg16_adaptive(Run& run);
void tiled_replay(Run& run);

/// Prints the metrics of `run` (end-to-end, or per-layer when tracing) and
/// the final result line; returns the process exit code.
int report(Run& run);

}  // namespace perfbench
