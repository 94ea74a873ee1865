// §2.3 — long messages without rendezvous. A large message normally pays a
// three-leg handshake; a receiver that *predicts* the (sender, size) can
// allocate the buffer and pre-grant the transfer, making the long message
// travel like a short one. Replays physical traces through
// ingest::replay_adaptive at each case's threshold and reports the elision
// rate and the latency improvement under the simulated network's
// first-order model for rendezvous-sized messages.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"

int main() {
  using namespace mpipred;
  std::printf("§2.3 — rendezvous elision for long messages (physical traces)\n\n");
  std::printf("%-12s %10s %10s %14s %10s\n", "config", "long-msgs", "elided%", "lat-saved-us",
              "speedup");

  struct Case {
    const char* app;
    int procs;
    std::int64_t threshold;
  };
  for (const auto& [app, procs, threshold] :
       {Case{"lu", 4, 16 * 1024}, Case{"lu", 16, 16 * 1024}, Case{"bt", 9, 16 * 1024},
        Case{"bt", 25, 16 * 1024}, Case{"cg", 8, 16 * 1024}, Case{"is", 8, 16 * 1024}}) {
    auto run = bench::run_traced(app, procs);
    const int rep = trace::representative_rank(run.world->traces(), trace::Level::Physical);
    const auto events = engine::events_from_rank(run.world->traces(), rep, trace::Level::Physical);
    // The engine's default horizon: the predicted window is the §5.3 set.
    adaptive::RuntimeConfig rt;
    rt.service.engine = engine::EngineConfig{};
    rt.policy.rendezvous_threshold_bytes = threshold;
    const adaptive::PolicyStats stats = ingest::replay_adaptive(events, rt).stats;

    // Without prediction every long message pays the handshake; an elided
    // one travels direct instead.
    const sim::NetworkConfig& net = run.world->config().engine.network;
    double baseline_ns = 0.0;
    for (const engine::Event& e : events) {
      if (e.bytes > threshold) {
        baseline_ns += net.handshake_ns(e.bytes);
      }
    }
    const double saved_ns =
        static_cast<double>(stats.rendezvous_elided) * (net.handshake_ns(0) - net.direct_ns(0));
    const double predicted_ns = baseline_ns - saved_ns;
    std::printf("%-12s %10lld %10.1f %14.2f %10.3f\n",
                (std::string(app) + "." + std::to_string(procs)).c_str(),
                static_cast<long long>(stats.rendezvous_sends + stats.rendezvous_elided),
                bench::pct(stats.elision_rate()), (baseline_ns - predicted_ns) / 1000.0,
                predicted_ns == 0.0 ? 1.0 : baseline_ns / predicted_ns);
    std::fflush(stdout);
  }
  std::printf("\n(expected: periodic large transfers — LU faces, BT faces — mostly elided;\n"
              " IS's data-dependent alltoallv sizes resist elision)\n");
  return 0;
}
