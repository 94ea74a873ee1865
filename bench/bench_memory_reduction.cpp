// §2.1 — memory reduction. "Just imagine that each process allocates a
// 16KB buffer for each other process ... 10000 nodes ... 160MB of memory
// per process." With sender prediction the receiver only keeps buffers for
// the peers about to send; mispredictions fall back to the slow
// ask-permission path. Replays real physical traces through
// ingest::replay_adaptive, compares them with all-pairs allocation (a
// closed form), prices both with the simulated network's first-order
// model, and extrapolates the per-process memory to large machines.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"

namespace {

using namespace mpipred;

/// Mean first-order latency per message when hits go direct and misses
/// ask first, every message `bytes` long.
double mean_latency_ns(const adaptive::PolicyStats& s, const sim::NetworkConfig& net,
                       std::int64_t bytes) {
  if (s.messages == 0) {
    return 0.0;
  }
  return (static_cast<double>(s.prepost_hits) * net.direct_ns(bytes) +
          static_cast<double>(s.prepost_misses) * net.handshake_ns(bytes)) /
         static_cast<double>(s.messages);
}

}  // namespace

int main() {
  std::printf("§2.1 — buffer memory: all-pairs vs prediction-driven (physical traces)\n\n");
  std::printf("%-12s %10s %10s %10s %12s %12s %10s\n", "config", "hit-rate%", "buffers",
              "peak-buf", "mem-bytes", "allpairs-B", "latencyx");

  struct Case {
    const char* app;
    int procs;
  };
  const adaptive::RuntimeConfig rt = bench::buffer_replay_config();
  const auto buffer_bytes = static_cast<double>(rt.policy.buffer_bytes);
  for (const auto& [app, procs] : {Case{"bt", 16}, Case{"bt", 25}, Case{"lu", 32},
                                   Case{"cg", 32}, Case{"sweep3d", 32}}) {
    auto run = bench::run_traced(app, procs);
    const int rep = trace::representative_rank(run.world->traces(), trace::Level::Physical);
    const auto events = engine::events_from_rank(run.world->traces(), rep, trace::Level::Physical,
                                                 {.kind = trace::OpKind::PointToPoint});
    const adaptive::PolicyStats predicted = ingest::replay_adaptive(events, rt).stats;
    const adaptive::PolicyStats all_pairs =
        ingest::all_pairs_buffers(static_cast<std::int64_t>(events.size()), procs);
    const sim::NetworkConfig& net = run.world->config().engine.network;
    const std::int64_t mean_bytes = 4096;
    std::printf("%-12s %10.1f %10.1f %10lld %12.0f %12lld %10.2f\n",
                (std::string(app) + "." + std::to_string(procs)).c_str(),
                bench::pct(predicted.hit_rate()), predicted.avg_buffers(),
                static_cast<long long>(predicted.peak_buffers),
                predicted.avg_buffers() * buffer_bytes,
                static_cast<long long>(all_pairs.peak_buffers * rt.policy.buffer_bytes),
                mean_latency_ns(predicted, net, mean_bytes) /
                    mean_latency_ns(all_pairs, net, mean_bytes));
    std::fflush(stdout);
  }

  std::printf("\nExtrapolation of §2.1's example (16 KiB per peer buffer):\n");
  for (const long long nodes : {100LL, 1000LL, 10000LL}) {
    const long long all_pairs = (nodes - 1) * 16 * 1024;
    // Prediction keeps roughly (frequent senders + LRU) buffers resident;
    // use 8 as the observed ceiling across our traces.
    const long long predicted = 8 * 16 * 1024;
    std::printf("  %6lld nodes: all-pairs %8.1f MiB/process -> predicted %5.2f MiB/process\n",
                nodes, static_cast<double>(all_pairs) / (1024.0 * 1024.0),
                static_cast<double>(predicted) / (1024.0 * 1024.0));
  }
  return 0;
}
