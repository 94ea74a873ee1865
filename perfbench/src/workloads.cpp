// The three workloads. Each runs set-up, then repetitions of its timed
// phase, each followed (outside the timed phase) by one pass of the
// closed-loop client whose per-pass latencies give predict_p50_us /
// predict_p99_us. In a traced run, layers the timed phase bypasses are
// then driven once over the workload's own traffic ("probes"), so every
// per-layer metric is measured on every workload; the end-to-end figures
// never include a probe.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/registry.hpp"
#include "env.hpp"
#include "ingest/streaming.hpp"
#include "layers.hpp"
#include "run.hpp"
#include "stats.hpp"
#include "tile.hpp"

namespace perfbench {

using mp::trace::Level;

namespace {

/// World constructions per set-up sample; set-up is otherwise too short to
/// time steadily.
constexpr int kSetupRepeats = 5;
/// Closed-loop client on lu16-offline and tiled-replay: the first this many
/// physical messages, replayed once per repetition (cg16-adaptive replays
/// all of its messages). On tiled-replay only messages to the first
/// kLoopTiles tiles count, one copy of each pool world, so the service's
/// per-flow state stays far below the sessions' and out of peak_rss_mib.
constexpr std::size_t kLoopMessages = 10'000;
constexpr int kLoopTiles = 4;
/// Events per batch of every CSV replay through the serve layer: the
/// engine's inline threshold, so every batch is dispatched to the shards
/// while a run still sees enough batches for a tail percentile.
constexpr std::size_t kBatchEvents = 2048;
/// Replays of the serve probe at most (it repeats until the batch tail
/// percentile has enough samples).
constexpr int kMaxServeProbes = 16;

/// World seeds per run on lu16-offline and cg16-adaptive. A seed moves the
/// network jitter, so the message order and with it the predictor's work:
/// one cg.16 world ran 15% slower than another on the same CPU. Cycling
/// over several worlds per run keeps that out of the run-to-run spread.
constexpr std::size_t kWorldSeeds = 4;

constexpr int kLuIterations = 8;
/// Half of bench_adaptive_speedup's cg default of 8: shorter repetitions
/// give each world twice the samples in a run, which halved the spread of
/// predict_p99_us and cut that of wall_s from 18% to 15% in runs
/// interleaved with 8-iteration ones.
constexpr int kCgIterations = 4;
constexpr std::int64_t kCgFallbackNs = 20'000;

/// tiled-replay: the pool of simulated worlds the tiles copy, and how many
/// 16-rank tiles the replayed trace holds (512 receivers per level).
struct PoolWorld {
  const char* app;
  int iterations;
};
constexpr std::array<PoolWorld, 4> kPool = {
    {{"bt", 10}, {"cg", 2}, {"lu", 2}, {"sweep3d", 2}}};
constexpr int kTiles = 32;
constexpr int kTiledSetups = 5;

double elapsed_s(std::int64_t since) { return ns_to_s(now_ns() - since); }

std::string trace_digest(const mp::trace::TraceStore& store, Level level) {
  Digest d;
  add_trace(d, store, level);
  return d.hex();
}

std::string report_digest(const mp::engine::EngineReport& report) {
  Digest d;
  add_report(d, report);
  return d.hex();
}

std::string file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Digest d;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      d.add(static_cast<unsigned char>(buf[i]));
    }
  }
  return d.hex();
}

std::size_t replay_shards() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 1 ? n - 1 : 1;
}

std::string work_path(const Run& run, const char* stem) {
  return (std::filesystem::path(run.opts.out_dir) /
          (std::string(stem) + "-seed" + std::to_string(run.opts.seed) + ".csv"))
      .string();
}

void set_accuracy(WorldSamples& w, const mp::engine::EngineReport& physical) {
  w.accuracy_hits = physical.aggregate_senders.at(1).hits;
  w.accuracy_total = physical.aggregate_senders.at(1).total();
}

/// Digest name `name` of world k (".w<k>" appended when a run has more
/// than one world).
std::string world_name(const Run& run, const std::string& name, std::size_t k) {
  return run.worlds.size() == 1 ? name : name + ".w" + std::to_string(k);
}

/// One pass of the closed-loop client over world k's `events`; its
/// per-message latencies fold into the world's per-message minimum.
/// Returns the service's arrival-view report.
mp::engine::EngineReport loop_over(Run& run, std::size_t k,
                                   std::span<const mp::engine::Event> events) {
  LoopResult loop = closed_loop(run.tracer, events);
  run.expect(loop.arrival.events == static_cast<std::int64_t>(events.size()),
             "closed-loop service scored every replayed message");
  run.digest(world_name(run, "service.windows", k), loop.windows.hex());
  WorldSamples& w = run.worlds[k];
  run.expect(fold_min(w.loop_min_us, loop.pair_us),
             "every closed-loop pass replays the same messages");
  ++w.loop_passes;
  return std::move(loop.arrival);
}

/// World seed k of a run: lu16-offline and cg16-adaptive cycle over
/// kWorldSeeds worlds, the way tiled-replay's pool is seeded.
std::uint64_t world_seed(std::uint64_t seed, std::size_t k) { return seed * kWorldSeeds + k; }

/// serve + ingest probe: the workload's own trace written as CSV and
/// replayed through the serve layer until the batch p90 is supported.
/// `expect` holds the engine reports the replay must reproduce, if any.
void serve_probe(Run& run, const mp::trace::TraceStore& store, const char* stem,
                 const mp::engine::EngineReport* expect_logical,
                 const mp::engine::EngineReport* expect_physical) {
  const std::string path = work_path(run, stem);
  (void)run.tracer.begin_run();
  (void)write_trace(run.tracer, store, path);
  const auto records = static_cast<std::int64_t>(store.total_records(Level::Logical) +
                                                 store.total_records(Level::Physical));
  for (int i = 0; i < kMaxServeProbes &&
                  run.tracer.durations("serve.observe_all").size() < kMinBatchSamples;
       ++i) {
    (void)run.tracer.begin_run();
    const ReplayResult r = serve_replay(run.tracer, path, replay_shards(), kBatchEvents);
    run.expect(r.events == records, "serve probe: replayed events equal trace records");
    if (expect_logical != nullptr) {
      run.expect(r.logical == *expect_logical && r.physical == *expect_physical,
                 "serve probe: session reports equal the engine's");
    }
  }
  std::filesystem::remove(path);
}

/// Set-up results passed from a set-up child process: key -> value.
using Fields = std::map<std::string, std::string>;

std::string key(const char* name, std::size_t i) {
  return std::string(name) + "." + std::to_string(i);
}
std::string key(const char* name, std::size_t i, std::size_t level) {
  return key(name, i) + "." + std::to_string(level);
}

/// Every field of every stream report, footprint included: two equal
/// digests mean two equal StreamReport lists.
std::string streams_digest(const std::vector<mp::engine::StreamReport>& streams) {
  Digest d;
  for (const auto& s : streams) {
    d.add_signed(s.key.source);
    d.add_signed(s.key.destination);
    d.add_signed(s.key.tag);
    d.add_signed(s.events);
    add_accuracy(d, s.senders);
    add_accuracy(d, s.sizes);
    d.add(s.footprint_bytes);
  }
  return d.hex();
}

/// tiled-replay set-up: simulate the pool, score each world's streams,
/// tile the traces and write them as CSV to `path`. Keeps the pool's
/// traces in `pool_out` when given.
Fields build_tiled(Tracer& tracer, std::uint64_t seed, const std::string& path,
                   std::vector<mp::trace::TraceStore>* pool_out) {
  Fields out;
  std::vector<mp::trace::TraceStore> pool;
  std::size_t state_bytes = 0;
  for (std::size_t i = 0; i < kPool.size(); ++i) {
    mp::mpi::World world(kRanks, static_world(seed * kPool.size() + i, 0));
    const auto outcome = run_app(tracer, "sim.run", kPool[i].app, world, kPool[i].iterations);
    count_mpi(tracer, world);
    for (const Level level : {Level::Logical, Level::Physical}) {
      const auto events = extract(tracer, world.traces(), level);
      const auto report = engine_pass(tracer, events, {.shards = 1});
      out[key("source", i, static_cast<std::size_t>(level))] = streams_digest(report.streams);
      if (level == Level::Physical) {
        state_bytes += report.total_footprint_bytes * (kTiles / kPool.size());
      }
    }
    out[key("verified", i)] = outcome.verified ? "1" : "0";
    out[key("checksum", i)] = std::to_string(outcome.combined_checksum());
    out[key("pool_physical", i)] = trace_digest(world.traces(), Level::Physical);
    pool.push_back(world.traces());
  }
  std::array<const mp::trace::TraceStore*, kPool.size()> sources{};
  for (std::size_t i = 0; i < kPool.size(); ++i) {
    sources[i] = &pool[i];
  }
  const mp::trace::TraceStore tiled = [&] {
    const Span s(tracer, "bench.tile");
    return tile_traces(sources, kTiles);
  }();
  (void)write_trace(tracer, tiled, path);
  out["records.0"] = std::to_string(tiled.total_records(Level::Logical));
  out["records.1"] = std::to_string(tiled.total_records(Level::Physical));
  out["state_bytes"] = std::to_string(state_bytes);
  if (pool_out != nullptr) {
    *pool_out = std::move(pool);
  }
  return out;
}

/// Runs `build` in a child process and returns the fields it produced,
/// passed back through the file `manifest`. Waits for the child.
Fields in_child(const std::string& manifest, const std::function<Fields()>& build) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    int code = 0;
    try {
      std::ofstream out(manifest);
      for (const auto& [k, v] : build()) {
        out << k << ' ' << v << '\n';
      }
      code = out ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "set-up child: %s\n", e.what());
      code = 1;
    }
    std::_Exit(code);  // no atexit handlers, no second flush of inherited buffers
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child process failed");
  }
  Fields out;
  std::ifstream in(manifest);
  std::string k;
  std::string v;
  while (in >> k >> v) {
    out[k] = v;
  }
  return out;
}

/// The first kLoopMessages physical messages of the tiled CSV trace that
/// reach the first kLoopTiles tiles, in trace order.
std::vector<mp::engine::Event> loop_prefix(const std::string& path) {
  auto reader = mp::ingest::CsvStreamReader::open(path, Level::Physical);
  std::vector<mp::engine::Event> out;
  std::vector<mp::ingest::TimedEvent> batch;
  while (out.size() < kLoopMessages) {
    batch.clear();
    if (reader->next_batch(mp::ingest::kDefaultBatchEvents, batch) == 0) {
      break;
    }
    for (const auto& te : batch) {
      if (te.event.destination < kLoopTiles * kRanks && out.size() < kLoopMessages) {
        out.push_back(te.event);
      }
    }
  }
  return out;
}

/// Adaptive twin of a finished static run: same world, adaptive runtime on.
void adaptive_twin(Run& run, const char* app, int iterations, std::uint64_t seed,
                   std::int64_t fallback_ns, std::uint64_t static_checksum) {
  mp::mpi::World world(kRanks, adaptive_world(seed, fallback_ns));
  const auto outcome = run_app(run.tracer, "adaptive.run", app, world, iterations);
  count_policy(run.tracer, world);
  run.expect(outcome.verified, std::string("adaptive ") + app + ".16 run verified");
  run.expect(outcome.combined_checksum() == static_checksum,
             std::string("adaptive ") + app + ".16 payload checksum equals its static twin's");
  run.expect(credits_conserved(world),
             std::string("adaptive ") + app + ".16 credit grants equal releases, none outstanding");
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus_.push_back(c);
      }
    }
  }
}

CpuRotation::~CpuRotation() { restore(); }

void CpuRotation::restore() {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) {
    CPU_SET(c, &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::pin(std::size_t i) {
  if (cpus_.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[i % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void lu16_offline(Run& run) {
  Tracer& tracer = run.tracer;
  run.worlds.resize(kWorldSeeds);
  std::unique_ptr<mp::mpi::World> world;  // world 0, kept for the probes
  std::array<mp::engine::EngineReport, 2> reports0;
  std::vector<std::uint64_t> checksums(kWorldSeeds);
  run.timed_reps([&](std::size_t k) {
    const std::uint64_t seed = world_seed(run.opts.seed, k);
    std::unique_ptr<mp::mpi::World> w;
    for (int i = 0; i < kSetupRepeats; ++i) {
      w.reset();  // the previous sample's world is torn down untimed
      const std::int64_t t = now_ns();
      const Span s(tracer, "bench.setup");
      w = std::make_unique<mp::mpi::World>(kRanks, static_world(seed, 0));
      run.setup_s.push_back(elapsed_s(t));
    }

    std::array<mp::engine::EngineReport, 2> reports;
    const std::int64_t t0 = now_ns();
    const auto outcome = run_app(tracer, "sim.run", "lu", *w, kLuIterations);
    for (const Level level : {Level::Logical, Level::Physical}) {
      const auto events = extract(tracer, w->traces(), level);
      reports[static_cast<std::size_t>(level)] = engine_pass(tracer, events, {.shards = 1});
    }
    const double wall = elapsed_s(t0);

    auto loop_events = mp::engine::events_from_trace(w->traces(), Level::Physical);
    loop_events.resize(std::min(loop_events.size(), kLoopMessages));
    (void)loop_over(run, k, loop_events);
    count_mpi(tracer, *w);
    run.expect(outcome.verified, "lu.16 run verified");
    for (const Level level : {Level::Logical, Level::Physical}) {
      run.expect(reports[static_cast<std::size_t>(level)].events ==
                     static_cast<std::int64_t>(w->traces().total_records(level)),
                 "engine report events equal trace records");
    }
    run.digest(world_name(run, "trace.logical", k), trace_digest(w->traces(), Level::Logical));
    run.digest(world_name(run, "trace.physical", k), trace_digest(w->traces(), Level::Physical));
    run.digest(world_name(run, "sim.final_time_ns", k),
               std::to_string(w->engine().stats().final_time.count()));
    run.digest(world_name(run, "engine.logical", k), report_digest(reports[0]));
    run.digest(world_name(run, "engine.physical", k), report_digest(reports[1]));
    run.worlds[k].msgs = static_cast<double>(w->traces().total_records(Level::Physical));
    set_accuracy(run.worlds[k], reports[1]);
    checksums[k] = outcome.combined_checksum();
    if (k == 0) {
      world = std::move(w);
      reports0 = std::move(reports);
    }
    return wall;
  }, /*rotate=*/true);
  run.peak_rss_mib = peak_rss_mib();

  if (run.opts.trace) {
    (void)tracer.begin_run();
    std::vector<std::vector<std::int64_t>> streams;
    append_streams(world->traces(), Level::Logical, streams);
    append_streams(world->traces(), Level::Physical, streams);
    (void)core_probe(tracer, streams, 5);
    for (std::size_t k = 0; k < kWorldSeeds; ++k) {
      (void)tracer.begin_run();
      adaptive_twin(run, "lu", kLuIterations, world_seed(run.opts.seed, k), 0, checksums[k]);
    }
    serve_probe(run, world->traces(), "lu16-offline", &reports0[0], &reports0[1]);
  }
}

void cg16_adaptive(Run& run) {
  Tracer& tracer = run.tracer;
  run.worlds.resize(kWorldSeeds);
  std::unique_ptr<mp::mpi::World> adaptive;  // world 0, kept for the probes
  std::vector<mp::engine::Event> events0;
  mp::engine::EngineReport arrival0;
  std::vector<std::uint64_t> checksums(kWorldSeeds);
  std::vector<std::int64_t> finals(kWorldSeeds);
  run.timed_reps([&](std::size_t k) {
    const std::uint64_t seed = world_seed(run.opts.seed, k);
    std::unique_ptr<mp::mpi::World> a;
    for (int i = 0; i < kSetupRepeats; ++i) {
      a.reset();  // the previous sample's world is torn down untimed
      const std::int64_t t = now_ns();
      const Span span(tracer, "bench.setup");
      a = std::make_unique<mp::mpi::World>(kRanks, adaptive_world(seed, kCgFallbackNs));
      run.setup_s.push_back(elapsed_s(t));
    }

    const std::int64_t t0 = now_ns();
    const auto out_a = run_app(tracer, "adaptive.run", "cg", *a, kCgIterations);
    const double wall = elapsed_s(t0);
    count_policy(tracer, *a);
    count_mpi(tracer, *a);

    auto events = extract(tracer, a->traces(), Level::Physical);
    auto arrival = loop_over(run, k, events);

    run.expect(out_a.verified, "adaptive cg.16 run verified");
    run.expect(credits_conserved(*a), "credit grants equal releases, none outstanding");
    run.expect(arrival.events ==
                   static_cast<std::int64_t>(a->traces().total_records(Level::Physical)),
               "service report events equal trace records");
    run.digest(world_name(run, "trace.logical", k), trace_digest(a->traces(), Level::Logical));
    run.digest(world_name(run, "trace.physical", k), trace_digest(a->traces(), Level::Physical));
    run.digest(world_name(run, "adaptive.final_time_ns", k),
               std::to_string(a->engine().stats().final_time.count()));
    run.digest(world_name(run, "engine.arrival", k), report_digest(arrival));
    run.worlds[k].msgs = static_cast<double>(events.size());
    set_accuracy(run.worlds[k], arrival);
    checksums[k] = out_a.combined_checksum();
    finals[k] = a->engine().stats().final_time.count();
    if (k == 0) {
      adaptive = std::move(a);
      events0 = std::move(events);
      arrival0 = std::move(arrival);
    }
    return wall;
  }, /*rotate=*/true);
  run.peak_rss_mib = peak_rss_mib();

  // The static twins are deterministic, so one run of each serves every
  // repetition.
  double static_sum = 0.0;
  double adaptive_sum = 0.0;
  for (std::size_t k = 0; k < kWorldSeeds; ++k) {
    (void)tracer.begin_run();
    mp::mpi::World twin(kRanks, static_world(world_seed(run.opts.seed, k), kCgFallbackNs));
    const auto out_s = run_app(tracer, "sim.run", "cg", twin, kCgIterations);
    run.expect(out_s.verified, "static cg.16 twin verified");
    run.expect(checksums[k] == out_s.combined_checksum(),
               "adaptive cg.16 payload checksum equals its static twin's");
    const auto final_s = twin.engine().stats().final_time.count();
    run.digest(world_name(run, "sim.final_time_ns", k), std::to_string(final_s));
    static_sum += static_cast<double>(final_s);
    adaptive_sum += static_cast<double>(finals[k]);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "sim_speedup_pct = %.4f %% (static %.0f sim-ns, adaptive %.0f sim-ns, summed over "
                "%zu worlds)",
                100.0 * (static_sum - adaptive_sum) / static_sum, static_sum, adaptive_sum,
                kWorldSeeds);
  run.notes.emplace_back(line);

  if (run.opts.trace) {
    (void)tracer.begin_run();
    std::vector<std::vector<std::int64_t>> streams;
    append_streams(adaptive->traces(), Level::Physical, streams);
    (void)core_probe(tracer, streams, 8);
    (void)tracer.begin_run();
    const auto report = engine_pass(tracer, events0, loop_service_config().engine);
    run.expect(report == arrival0, "engine probe report equals the service's arrival view");
    serve_probe(run, adaptive->traces(), "cg16-adaptive", nullptr, nullptr);
  }
}

void tiled_replay(Run& run) {
  Tracer& tracer = run.tracer;
  const std::uint64_t seed = run.opts.seed;
  const std::string path = work_path(run, "tiled-replay");
  Fields inputs;
  std::vector<mp::trace::TraceStore> pool;  // traced runs keep it for the core probe
  if (run.opts.trace) {
    (void)tracer.begin_run();
    inputs = build_tiled(tracer, seed, path, &pool);
  } else {
    // Each set-up runs in a child process, so the pool simulation never
    // raises this process's peak_rss_mib: that figure is the replay's.
    const std::string manifest = path + ".inputs";
    for (int setup = 0; setup < kTiledSetups; ++setup) {
      const std::int64_t t0 = now_ns();
      const Fields f = in_child(manifest, [&] { return build_tiled(tracer, seed, path, nullptr); });
      run.setup_s.push_back(elapsed_s(t0));
      run.expect(setup == 0 || f == inputs, "every set-up builds the same inputs");
      inputs = f;
    }
    std::filesystem::remove(manifest);
  }
  for (std::size_t i = 0; i < kPool.size(); ++i) {
    run.expect(inputs.at(key("verified", i)) == "1",
               std::string(kPool[i].app) + ".16 pool run verified");
    run.digest(std::string("pool.") + kPool[i].app + ".physical",
               inputs.at(key("pool_physical", i)));
  }
  run.digest("tiled.csv", file_digest(path));

  const std::array<std::int64_t, 2> records = {std::stoll(inputs.at("records.0")),
                                               std::stoll(inputs.at("records.1"))};
  run.worlds[0].msgs = static_cast<double>(records[0] + records[1]);
  const auto loop_events = loop_prefix(path);
  CpuRotation loop_cpus;  // the replay uses every CPU; the single-threaded pass rotates
  std::size_t pass = 0;
  run.timed_reps([&](std::size_t /*k*/) {
    const std::int64_t t0 = now_ns();
    const ReplayResult r = serve_replay(tracer, path, replay_shards(), kBatchEvents);
    const double wall = elapsed_s(t0);
    loop_cpus.pin(pass++);
    (void)loop_over(run, 0, loop_events);
    loop_cpus.restore();

    const std::array<const mp::engine::EngineReport*, 2> reports = {&r.logical, &r.physical};
    for (const std::size_t level : {0U, 1U}) {
      run.expect(reports[level]->events == records[level],
                 "session report events equal trace records");
      bool tiles_match = true;
      for (int k = 0; k < kTiles; ++k) {
        tiles_match =
            tiles_match && streams_digest(untile_streams(*reports[level], k, kRanks)) ==
                               inputs.at(key("source", static_cast<std::size_t>(k) % kPool.size(),
                                             level));
      }
      run.expect(tiles_match, "every tile's per-stream report equals its source world's");
    }
    run.digest("serve.logical", report_digest(r.logical));
    run.digest("serve.physical", report_digest(r.physical));
    set_accuracy(run.worlds[0], r.physical);
    return wall;
  }, /*rotate=*/false);
  run.peak_rss_mib = peak_rss_mib();

  char line[200];
  std::snprintf(line, sizeof(line),
                "predictor state per level: %.1f MiB over %d receivers (%d tiles); per-core L2 "
                "%.1f MiB",
                std::stod(inputs.at("state_bytes")) / (1 << 20), kTiles * kRanks, kTiles,
                static_cast<double>(l2_cache_bytes()) / (1 << 20));
  run.notes.emplace_back(line);

  if (run.opts.trace) {
    (void)tracer.begin_run();
    std::vector<std::vector<std::int64_t>> streams;  // what the set-up's engine passes predict
    for (const auto& store : pool) {
      append_streams(store, Level::Logical, streams);
      append_streams(store, Level::Physical, streams);
    }
    (void)core_probe(tracer, streams, 5);
    (void)tracer.begin_run();
    for (std::size_t i = 0; i < kPool.size(); ++i) {
      adaptive_twin(run, kPool[i].app, kPool[i].iterations, seed * kPool.size() + i, 0,
                    std::stoull(inputs.at(key("checksum", i))));
    }
  }
  std::filesystem::remove(path);
}

}  // namespace perfbench
