#pragma once

// Replays an ingested event stream through the adaptive runtime's decision
// layer — protocol choice per message, pre-post scoring, per-stream credit
// scoring, service feed — exactly the path mpi::detail::Endpoint drives
// live. This is what makes an external trace first-class: the same
// registry predictor, the same sharded engine, the same policy code, fed
// from a file instead of the simulator. It is also the one driver behind
// the paper's §2 what-ifs (buffer memory, credit flow control, rendezvous
// elision): each is a replay of one receiver's arrivals with its own
// RuntimeConfig, next to the prediction-free baselines below.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "adaptive/config.hpp"
#include "adaptive/policy.hpp"
#include "engine/config.hpp"
#include "telemetry/telemetry.hpp"

namespace mpipred::ingest {

/// §2.2 credit accounting: before each arrival the receiver's per-stream
/// credit plan (AdaptivePolicy::credit_plan) is read; the arrival rides a
/// credit when one names its sender and covers its bytes, and otherwise
/// asks first.
struct CreditStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  /// Largest credit plan, in bytes one receiver pledged, read before an
  /// arrival.
  std::int64_t peak_pledged_bytes = 0;

  /// 0.0 on empty replays.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Accounting of one adaptive replay over an ingested event stream.
struct AdaptiveReplay {
  adaptive::PolicyStats stats;
  /// Scored only when RuntimeConfig::per_stream_credits is on.
  std::optional<CreditStats> credits;

  /// One-line summary of every stat (integers and fixed-precision floats
  /// only), compared byte-for-byte across shard counts by the `--trace`
  /// determinism gates. Credit fields appear only when credits were scored.
  [[nodiscard]] std::string summary() const;
};

/// Feeds `events` (time-ordered arrivals) through one AdaptivePolicy:
/// each message is scored for protocol choice (eager / rendezvous /
/// elided), against the receiver's per-stream credits when
/// `cfg.per_stream_credits` is on, and against the receiver's pre-post
/// plan, then learned from. Pure per-stream predictor state, so the
/// result is identical for any `cfg.service.engine.shards` value.
///
/// `telemetry`, when given, receives the run's metrics (engine.feed.*,
/// adaptive.policy.*) and — if tracing is enabled there — one decision
/// instant per event on the destination's track, stamped with the event
/// ordinal (an ingested stream has no simulated clock). Telemetry never
/// feeds back into a decision: stats are byte-identical with or without
/// it, which telemetry_test and the CLI `--emit-*` gates pin.
[[nodiscard]] AdaptiveReplay replay_adaptive(std::span<const engine::Event> events,
                                             const adaptive::RuntimeConfig& cfg = {},
                                             telemetry::Telemetry* telemetry = nullptr);

/// Prediction-free yardstick: every receiver keeps buffers for its `k`
/// most recently seen senders only. Fills the pre-post fields of
/// PolicyStats (messages, hits, misses, peak and summed residency), so it
/// reads like an adaptive replay at the same memory budget.
[[nodiscard]] adaptive::PolicyStats replay_lru_buffers(std::span<const engine::Event> events,
                                                       std::size_t k);

/// The static library's per-peer allocation as PolicyStats: every receiver
/// holds one buffer per peer (`nranks - 1`), so each of `messages` arrivals
/// hits. An empty replay holds no residency either.
[[nodiscard]] adaptive::PolicyStats all_pairs_buffers(std::int64_t messages, int nranks);

/// replay_adaptive at every shard count in `shard_counts` plus the
/// byte-identical-summary gate — the one implementation every `--trace`
/// consumer's determinism check goes through.
struct SweptReplay {
  /// The replay at shard_counts.front() (all others must match it).
  AdaptiveReplay replay;
  bool deterministic = true;
  /// First mismatch (shard count, both summaries); empty when deterministic.
  std::string mismatch;
};

[[nodiscard]] SweptReplay replay_adaptive_swept(std::span<const engine::Event> events,
                                                adaptive::RuntimeConfig cfg,
                                                std::span<const std::size_t> shard_counts);

}  // namespace mpipred::ingest
