#pragma once

// Order-sensitive FNV-1a digests of simulated outputs. They depend only on
// what the program computed (trace records, simulated times, accuracy
// tallies, predicted windows), never on host time or on C++ struct
// layout, so they are pinned per seed and must repeat byte for byte.

#include <cstdint>
#include <cstdio>
#include <string>

#include "engine/engine.hpp"
#include "trace/store.hpp"

namespace perfbench {

class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_signed(std::int64_t v) noexcept { add(static_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Every record of every rank at `level`, in rank then record order.
inline void add_trace(Digest& d, const mpipred::trace::TraceStore& store,
                      mpipred::trace::Level level) {
  for (int r = 0; r < store.nranks(); ++r) {
    d.add(0x5241u + static_cast<std::uint64_t>(r));
    for (const mpipred::trace::Record& rec : store.records(r, level)) {
      d.add_signed(rec.time.count());
      d.add_signed(rec.sender);
      d.add_signed(rec.bytes);
      d.add(static_cast<std::uint64_t>(rec.kind));
      d.add(static_cast<std::uint64_t>(rec.op));
    }
  }
}

inline void add_accuracy(Digest& d, const mpipred::core::AccuracyReport& report) {
  for (const auto& h : report.horizons) {
    d.add_signed(h.hits);
    d.add_signed(h.misses);
    d.add_signed(h.unpredicted);
  }
}

/// Stream keys, event counts and every accuracy tally. Footprint bytes are
/// left out: they track struct layout, not behaviour.
inline void add_report(Digest& d, const mpipred::engine::EngineReport& report) {
  d.add_signed(report.events);
  for (const auto& s : report.streams) {
    d.add_signed(s.key.source);
    d.add_signed(s.key.destination);
    d.add_signed(s.key.tag);
    d.add_signed(s.events);
    add_accuracy(d, s.senders);
    add_accuracy(d, s.sizes);
  }
  add_accuracy(d, report.aggregate_senders);
  add_accuracy(d, report.aggregate_sizes);
}

}  // namespace perfbench
