// Offline workflow: run a kernel once, export the full two-level trace to
// CSV, reload it, and analyze periodicity without re-running the
// simulation — the workflow a tools team would use on recorded traces.
//
//   $ ./examples/trace_export [path]   (default: ./is8_trace.csv)

#include <cstdio>
#include <memory>
#include <string>

#include "apps/app.hpp"
#include "core/periodogram.hpp"
#include "ingest/source.hpp"
#include "mpi/world.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

int main(int argc, char** argv) {
  using namespace mpipred;
  const std::string path = argc > 1 ? argv[1] : "is8_trace.csv";
  constexpr int kProcs = 8;

  std::printf("running is.%d (Class S) and exporting traces to %s ...\n", kProcs, path.c_str());
  {
    mpi::World world(kProcs, apps::paper_world_config(5));
    (void)apps::run_is(world, apps::AppConfig{.problem_class = apps::ProblemClass::S});
    trace::write_csv_file(path, world.traces());
  }

  // A different process (or a later analysis session) reloads the CSV
  // through the ingest boundary; the rank count comes from the file.
  std::unique_ptr<ingest::TraceSource> source;
  try {
    source = ingest::open_trace(path);
  } catch (const ingest::IngestError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const trace::TraceStore& store = *source->store();
  std::printf("reloaded %zu logical + %zu physical records\n\n",
              store.total_records(trace::Level::Logical),
              store.total_records(trace::Level::Physical));

  for (int rank = 0; rank < store.nranks(); rank += 3) {
    const auto streams = trace::extract_streams(store, rank, trace::Level::Logical);
    const auto pg = core::compute_periodogram(streams.senders, 64);
    const auto fundamental = pg.fundamental_period();
    const auto near = pg.near_period(0.05);
    std::printf("rank %d: %4zu msgs, sender-period exact=%zu near(5%%)=%zu",
                rank, streams.length(), fundamental.value_or(0), near.value_or(0));
    if (near) {
      std::printf("  coverage=%.1f%%", 100.0 * core::period_coverage(streams.senders, *near));
    }
    std::printf("\n");
  }
  std::printf("\n(delete %s when done)\n", path.c_str());
  return 0;
}
