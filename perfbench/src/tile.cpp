#include "tile.hpp"

#include <stdexcept>

namespace perfbench {

using mpipred::trace::Level;

std::int32_t renumber_sender(std::int32_t sender, int offset) noexcept {
  return sender == mpipred::trace::kUnresolvedSender ? sender : sender + offset;
}

mpipred::trace::TraceStore tile_traces(std::span<const mpipred::trace::TraceStore* const> sources,
                                       int tiles) {
  if (sources.empty() || tiles <= 0) {
    throw std::invalid_argument("tile_traces needs at least one source and one tile");
  }
  const int n = sources.front()->nranks();
  for (const auto* src : sources) {
    if (src->nranks() != n) {
      throw std::invalid_argument("tile_traces: sources differ in rank count");
    }
  }
  mpipred::trace::TraceStore out(n * tiles);
  for (int k = 0; k < tiles; ++k) {
    const auto& src = *sources[static_cast<std::size_t>(k) % sources.size()];
    const int offset = k * n;
    for (const Level level : {Level::Logical, Level::Physical}) {
      for (int r = 0; r < n; ++r) {
        for (mpipred::trace::Record rec : src.records(r, level)) {
          rec.sender = renumber_sender(rec.sender, offset);
          (void)out.append(offset + r, level, rec);
        }
      }
    }
  }
  return out;
}

std::vector<mpipred::engine::StreamReport> untile_streams(
    const mpipred::engine::EngineReport& tiled, int tile, int ranks_per_tile) {
  const int lo = tile * ranks_per_tile;
  std::vector<mpipred::engine::StreamReport> out;
  for (const auto& s : tiled.streams) {
    if (s.key.destination >= lo && s.key.destination < lo + ranks_per_tile) {
      out.push_back(s);
      out.back().key.destination -= lo;
    }
  }
  return out;
}

}  // namespace perfbench
