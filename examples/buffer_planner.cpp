// §2.1 scenario: plan receive buffers from predictions. Runs BT on 16
// simulated processes, takes one process's *physical* arrivals, and
// replays them through ingest::replay_adaptive, comparing the memory
// footprint and slow-path rate against all-pairs pre-allocation.
//
//   $ ./examples/buffer_planner [procs]    (default 16, must be a square)

#include <cstdio>
#include <cstdlib>

#include "apps/app.hpp"
#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"
#include "mpi/world.hpp"
#include "trace/stats.hpp"

int main(int argc, char** argv) {
  using namespace mpipred;
  const int procs = argc > 1 ? std::atoi(argv[1]) : 16;
  if (!apps::bt_supports(procs)) {
    std::printf("BT needs a square process count (got %d)\n", procs);
    return 1;
  }

  std::printf("running bt.%d and planning buffers from its physical trace...\n\n", procs);
  mpi::World world(procs, apps::paper_world_config(7));
  (void)apps::run_bt(world, apps::AppConfig{.problem_class = apps::ProblemClass::A});

  const int rank = trace::representative_rank(world.traces(), trace::Level::Physical);
  const auto events = engine::events_from_rank(world.traces(), rank, trace::Level::Physical,
                                               {.kind = trace::OpKind::PointToPoint});
  const adaptive::RuntimeConfig rt = bench::buffer_replay_config();
  const auto messages = static_cast<std::int64_t>(events.size());
  const adaptive::PolicyStats all_pairs = ingest::all_pairs_buffers(messages, procs);
  const adaptive::PolicyStats predicted = ingest::replay_adaptive(events, rt).stats;
  const adaptive::PolicyStats none{.messages = messages, .prepost_misses = messages};

  const auto avg_memory = [&](const adaptive::PolicyStats& s) {
    return s.avg_buffers() * static_cast<double>(rt.policy.buffer_bytes);
  };
  const auto print = [&](const char* policy, const adaptive::PolicyStats& s) {
    std::printf("  %-12s hit-rate %5.1f%%  avg buffers %5.1f  peak %3lld  avg memory %8.0f B\n",
                policy, 100.0 * s.hit_rate(), s.avg_buffers(),
                static_cast<long long>(s.peak_buffers), avg_memory(s));
  };
  std::printf("process %d received %zu point-to-point messages\n", rank, events.size());
  print("all-pairs", all_pairs);
  print("predicted", predicted);
  print("none", none);

  std::printf("\nmemory saved by prediction: %.1f%% (at %d processes; the gap widens\n"
              "linearly with machine size — that is §2.1's argument)\n",
              100.0 * (1.0 - avg_memory(predicted) / avg_memory(all_pairs)), procs);
  return 0;
}
