#pragma once

// Tiling for the tiled-replay workload: many renumbered copies of a few
// simulated worlds side by side in one trace. Copy k of a world with n
// ranks occupies ranks [k*n, (k+1)*n); every rank id in it — receiver and
// sender — moves by k*n, so no two copies share a stream or a sender
// value, while each copy's per-receiver streams keep their exact shape.

#include <span>
#include <vector>

#include "engine/engine.hpp"
#include "trace/store.hpp"

namespace perfbench {

/// Sender id of a record after moving its tile by `offset` ranks. The
/// unresolved marker (trace::kUnresolvedSender) is not a rank and stays.
[[nodiscard]] std::int32_t renumber_sender(std::int32_t sender, int offset) noexcept;

/// A trace of `tiles` copies, copy k taken from sources[k % sources.size()].
/// Every source must have the same rank count.
[[nodiscard]] mpipred::trace::TraceStore tile_traces(
    std::span<const mpipred::trace::TraceStore* const> sources, int tiles);

/// The part of `tiled` that copy `tile` contributes (n ranks per tile),
/// with its keys moved back to the source's rank ids — equal to the
/// source's own report when renumbering preserved every stream.
[[nodiscard]] std::vector<mpipred::engine::StreamReport> untile_streams(
    const mpipred::engine::EngineReport& tiled, int tile, int ranks_per_tile);

}  // namespace perfbench
