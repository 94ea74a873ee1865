#pragma once

// The benchmark's calls into each layer of the program, one function per
// layer boundary. Each wraps the public call in a Span and records the
// counts read at that boundary, so a traced run sees every layer from the
// outside; with tracing off the same calls run without recording.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "digest.hpp"
#include "engine/engine.hpp"
#include "mpi/world.hpp"
#include "spans.hpp"

namespace perfbench {

namespace mp = mpipred;

/// Simulated ranks of every world the benchmark runs.
inline constexpr int kRanks = 16;

/// The paper's machine profile with priced fallback round-trips.
[[nodiscard]] mp::mpi::WorldConfig static_world(std::uint64_t seed, std::int64_t fallback_ns);
/// The same world with the adaptive runtime on at its default confidence
/// and live per-stream credits (bench_adaptive_speedup's setup).
[[nodiscard]] mp::mpi::WorldConfig adaptive_world(std::uint64_t seed, std::int64_t fallback_ns);

/// sim (+mpi, apps): AppInfo::run on `world` under span `span`
/// ("sim.run" for static worlds, "adaptive.run" for adaptive ones). A
/// static run counts the engine's events, context switches and final time.
[[nodiscard]] mp::apps::AppOutcome run_app(Tracer& tracer, const char* span, std::string_view app,
                                           mp::mpi::World& world, int iterations);

/// mpi: World::aggregate_counters() of `world`.
void count_mpi(Tracer& tracer, const mp::mpi::World& world);
/// adaptive: AdaptivePolicy::stats() and the final time of an adaptive world.
void count_policy(Tracer& tracer, mp::mpi::World& world);

/// Credit conservation of a finished world: grants == releases and no
/// credited bytes outstanding.
[[nodiscard]] bool credits_conserved(const mp::mpi::World& world);

/// trace: engine::events_from_trace.
[[nodiscard]] std::vector<mp::engine::Event> extract(Tracer& tracer,
                                                     const mp::trace::TraceStore& store,
                                                     mp::trace::Level level);

/// trace: trace::write_csv_file; returns the file size in bytes.
std::uint64_t write_trace(Tracer& tracer, const mp::trace::TraceStore& store,
                          const std::string& path);

/// engine: PredictionEngine::observe_all then report().
[[nodiscard]] mp::engine::EngineReport engine_pass(Tracer& tracer,
                                                   std::span<const mp::engine::Event> events,
                                                   const mp::engine::EngineConfig& cfg);

/// The adaptive runtime's service configuration (horizon 8), one shard.
[[nodiscard]] mp::adaptive::ServiceConfig loop_service_config();

/// What a closed-loop client saw: per-message latencies (µs) and a digest
/// of every predicted window.
struct LoopResult {
  std::vector<double> pair_us;  // observe + predicted_window
  Digest windows;
  mp::engine::EngineReport arrival;  // the service's per-receiver scoring view
};

/// adaptive: a single closed-loop client replays `events` in order through
/// a fresh PredictionService — one observe and one
/// predicted_window(destination) per message, each pair timed.
[[nodiscard]] LoopResult closed_loop(Tracer& tracer, std::span<const mp::engine::Event> events);

/// Both levels of a CSV trace replayed through one PredictionServer, one
/// Session per level, via ingest::run_into.
struct ReplayResult {
  mp::engine::EngineReport logical;
  mp::engine::EngineReport physical;
  std::int64_t events = 0;  // both levels
};

/// serve + ingest: the replay, with each batch's Session::observe_all and
/// each EventStream::next_batch of the CSV reader timed.
[[nodiscard]] ReplayResult serve_replay(Tracer& tracer, const std::string& path,
                                        std::size_t shards, std::size_t batch_events);

/// The value sequences an engine pass over `level` predicts: per receiver,
/// its sender sequence and its size sequence.
void append_streams(const mp::trace::TraceStore& store, mp::trace::Level level,
                    std::vector<std::vector<std::int64_t>>& out);

/// core: a bare StreamPredictor per sequence stepping over it (predict
/// +1..+h, then observe) — the predictor work of an engine pass without
/// the engine. Returns the sum of the predictions.
std::int64_t core_probe(Tracer& tracer, const std::vector<std::vector<std::int64_t>>& streams,
                        std::size_t horizon);

}  // namespace perfbench
