// §2.2 — control flow for short messages. Eager-everything is fast but the
// receiver's memory exposure is unbounded (it must buffer any burst);
// always-ask bounds memory but triples the latency of every message. The
// paper's proposal: grant credits for *predicted* (sender, size) pairs —
// eager speed with bounded, receiver-controlled memory. Replays physical
// traces through ingest::replay_adaptive with per-stream credits scored,
// next to the two closed-form baselines, all priced with the simulated
// network's first-order model.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"

namespace {

using namespace mpipred;

struct Row {
  const char* policy = "";
  std::int64_t hits = 0;
  std::int64_t peak_pledged_bytes = 0;
  double total_latency_ns = 0.0;
};

}  // namespace

int main() {
  std::printf("§2.2 — credit-based flow control on physical traces\n\n");
  std::printf("%-12s %-18s %10s %14s %14s\n", "config", "policy", "hit-rate%", "peak-pledged-B",
              "mean-lat-us");

  // Credits use the engine's default horizon (only the +1 size matters).
  adaptive::RuntimeConfig rt;
  rt.service.engine = engine::EngineConfig{};
  rt.per_stream_credits = true;
  const std::int64_t granule = rt.policy.credit_granule_bytes;
  const auto round_up = [granule](std::int64_t bytes) {
    return (bytes + granule - 1) / granule * granule;
  };

  struct Case {
    const char* app;
    int procs;
  };
  for (const auto& [app, procs] :
       {Case{"lu", 8}, Case{"bt", 9}, Case{"cg", 16}, Case{"sweep3d", 16}, Case{"is", 16}}) {
    auto run = bench::run_traced(app, procs);
    const int rep = trace::representative_rank(run.world->traces(), trace::Level::Physical);
    const auto events = engine::events_from_rank(run.world->traces(), rep, trace::Level::Physical);
    const sim::NetworkConfig& net = run.world->config().engine.network;
    const auto n = static_cast<std::int64_t>(events.size());

    // Eager everything: every message direct, and nothing bounds what the
    // receiver must buffer — its exposure is the whole stream (§2.2's
    // warning). Always ask: one message buffered at a time, every message
    // pays the handshake.
    Row eager{.policy = "eager-everything", .hits = n};
    Row ask{.policy = "always-ask"};
    for (const engine::Event& e : events) {
      eager.total_latency_ns += net.direct_ns(e.bytes);
      eager.peak_pledged_bytes += round_up(e.bytes);
      ask.total_latency_ns += net.handshake_ns(e.bytes);
      ask.peak_pledged_bytes = std::max(ask.peak_pledged_bytes, round_up(e.bytes));
    }
    // Predicted credits: a credit hit goes direct, a miss also pays the ask.
    const ingest::CreditStats credits = *ingest::replay_adaptive(events, rt).credits;
    const double ask_ns = net.handshake_ns(0) - net.direct_ns(0);
    const double predicted_ns =
        eager.total_latency_ns + static_cast<double>(credits.misses) * ask_ns;
    const Row predicted{.policy = "predicted-credits",
                        .hits = credits.hits,
                        .peak_pledged_bytes = credits.peak_pledged_bytes,
                        .total_latency_ns = predicted_ns};
    for (const Row& row : {eager, ask, predicted}) {
      std::printf("%-12s %-18s %10.1f %14lld %14.2f\n",
                  (std::string(app) + "." + std::to_string(procs)).c_str(), row.policy,
                  n == 0 ? 0.0 : bench::pct(static_cast<double>(row.hits) / static_cast<double>(n)),
                  static_cast<long long>(row.peak_pledged_bytes),
                  n == 0 ? 0.0 : row.total_latency_ns / static_cast<double>(n) / 1000.0);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("(expected: predicted-credits ~eager latency with ~always-ask memory bounds\n"
              " on periodic apps; IS degrades towards always-ask)\n");
  return 0;
}
