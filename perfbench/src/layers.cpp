#include "layers.hpp"

#include <algorithm>
#include <filesystem>

#include "adaptive/policy.hpp"
#include "adaptive/service.hpp"
#include "apps/registry.hpp"
#include "core/stream_predictor.hpp"
#include "ingest/streaming.hpp"
#include "serve/server.hpp"
#include "trace/csv.hpp"

namespace perfbench {

using mp::trace::Level;

mp::mpi::WorldConfig static_world(std::uint64_t seed, std::int64_t fallback_ns) {
  mp::mpi::WorldConfig cfg = mp::apps::paper_world_config(seed);
  cfg.engine.network.fallback_cost = mp::sim::SimTime{fallback_ns};
  return cfg;
}

mp::mpi::WorldConfig adaptive_world(std::uint64_t seed, std::int64_t fallback_ns) {
  mp::mpi::WorldConfig cfg = static_world(seed, fallback_ns);
  cfg.adaptive.enabled = true;
  cfg.adaptive.service.engine.shards = 1;
  cfg.adaptive.per_stream_credits = true;
  return cfg;
}

mp::apps::AppOutcome run_app(Tracer& tracer, const char* span, std::string_view app,
                             mp::mpi::World& world, int iterations) {
  const auto& info = mp::apps::find_app(app);
  mp::apps::AppOutcome outcome;
  {
    const Span s(tracer, span);
    outcome = info.run(world, mp::apps::AppConfig{.problem_class = mp::apps::ProblemClass::A,
                                                  .iterations_override = iterations});
  }
  const auto& stats = world.engine().stats();
  if (world.adaptive_policy() == nullptr) {
    tracer.count("sim.events", static_cast<double>(stats.events_processed));
    tracer.count("sim.context_switches", static_cast<double>(stats.context_switches));
    tracer.count("sim.final_time_ns", static_cast<double>(stats.final_time.count()));
  }
  return outcome;
}

void count_mpi(Tracer& tracer, const mp::mpi::World& world) {
  const auto c = world.aggregate_counters();
  tracer.count("mpi.msgs", static_cast<double>(c.eager_received + c.rendezvous_received));
  tracer.count("mpi.fallback_round_trips", static_cast<double>(c.fallback_round_trips));
  tracer.count("mpi.stream_credit_grants", static_cast<double>(c.stream_credit_grants));
  tracer.count("mpi.stream_credit_releases", static_cast<double>(c.stream_credit_releases));
}

void count_policy(Tracer& tracer, mp::mpi::World& world) {
  const auto& stats = world.adaptive_policy()->stats();
  tracer.count("adaptive.prepost_hits", static_cast<double>(stats.prepost_hits));
  tracer.count("adaptive.prepost_misses", static_cast<double>(stats.prepost_misses));
  tracer.count("adaptive.rendezvous_elided", static_cast<double>(stats.rendezvous_elided));
  tracer.count("adaptive.degraded_arrivals", static_cast<double>(stats.degraded_arrivals));
  tracer.count("adaptive.final_time_ns",
               static_cast<double>(world.engine().stats().final_time.count()));
}

bool credits_conserved(const mp::mpi::World& world) {
  const auto c = world.aggregate_counters();
  return c.stream_credit_grants == c.stream_credit_releases && c.stream_credit_bytes_now == 0;
}

std::vector<mp::engine::Event> extract(Tracer& tracer, const mp::trace::TraceStore& store,
                                       Level level) {
  const Span s(tracer, "trace.extract");
  return mp::engine::events_from_trace(store, level);
}

std::uint64_t write_trace(Tracer& tracer, const mp::trace::TraceStore& store,
                          const std::string& path) {
  {
    const Span s(tracer, "trace.write");
    mp::trace::write_csv_file(path, store);
  }
  const auto bytes = std::filesystem::file_size(path);
  tracer.count("trace.write_bytes", static_cast<double>(bytes));
  return bytes;
}

mp::engine::EngineReport engine_pass(Tracer& tracer, std::span<const mp::engine::Event> events,
                                     const mp::engine::EngineConfig& cfg) {
  mp::engine::PredictionEngine engine(cfg);
  {
    const Span s(tracer, "engine.observe_all");
    engine.observe_all(events);
  }
  mp::engine::EngineReport report;
  {
    const Span s(tracer, "engine.report");
    report = engine.report();
  }
  tracer.count("engine.events", static_cast<double>(events.size()));
  tracer.count("engine.streams", static_cast<double>(report.streams.size()));
  tracer.count("engine.footprint_bytes", static_cast<double>(report.total_footprint_bytes));
  return report;
}

mp::adaptive::ServiceConfig loop_service_config() {
  mp::adaptive::ServiceConfig cfg = mp::adaptive::RuntimeConfig{}.service;
  cfg.engine.shards = 1;
  return cfg;
}

LoopResult closed_loop(Tracer& tracer, std::span<const mp::engine::Event> events) {
  mp::adaptive::PredictionService service(loop_service_config());
  LoopResult out;
  out.pair_us.reserve(events.size());
  const Span loop(tracer, "adaptive.loop");
  for (const mp::engine::Event& ev : events) {
    const std::int64_t t0 = now_ns();
    service.observe(ev);
    const std::int64_t t1 = now_ns();
    const auto window = service.predicted_window(ev.destination);
    const std::int64_t t2 = now_ns();
    tracer.record("adaptive.observe", t0, t1);
    tracer.record("adaptive.window", t1, t2);
    out.pair_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
    out.windows.add(window.size());
    for (const auto& p : window) {
      out.windows.add_signed(p.sender);
      out.windows.add_signed(p.bytes.value_or(-1));
    }
  }
  {
    const Span s(tracer, "engine.report");
    out.arrival = service.arrival_engine().report();
  }
  return out;
}

namespace {

/// The CSV reader with every next_batch call timed. Calls arrive on the
/// batch driver's parse thread, so spans name their parent explicitly.
class TimedStream final : public mp::ingest::EventStream {
 public:
  TimedStream(mp::ingest::EventStream& inner, Tracer& tracer, std::uint32_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  std::size_t next_batch(std::size_t max_events,
                         std::vector<mp::ingest::TimedEvent>& out) override {
    const Span s(tracer_, "ingest.next_batch", parent_);
    return inner_.next_batch(max_events, out);
  }
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_.time_ordered(); }

 private:
  mp::ingest::EventStream& inner_;
  Tracer& tracer_;
  std::uint32_t parent_;
};

/// ingest::run_into target over a Session whose per-batch observe_all is
/// timed: engine::drive_batches(produce, observe_all) is exactly what
/// Session::observe_batches does.
struct TimedSession {
  mp::serve::Session& session;
  Tracer& tracer;

  void observe_batches(const mp::engine::BatchProducer& produce) {
    mp::engine::drive_batches(produce, [this](std::span<const mp::engine::Event> batch) {
      const Span s(tracer, "serve.observe_all");
      session.observe_all(batch);
    });
  }
  [[nodiscard]] mp::engine::EngineReport report() const {
    const Span s(tracer, "serve.report");
    return session.report();
  }
};

}  // namespace

ReplayResult serve_replay(Tracer& tracer, const std::string& path, std::size_t shards,
                          std::size_t batch_events) {
  mp::serve::PredictionServer server({.engine = {.shards = shards}});
  const auto file_bytes = static_cast<double>(std::filesystem::file_size(path));
  ReplayResult out;
  std::size_t peak_buffered = 0;
  std::size_t peak_resident = 0;
  for (const Level level : {Level::Logical, Level::Physical}) {
    auto reader = mp::ingest::CsvStreamReader::open(path, level);
    mp::ingest::StreamedRun run;
    {
      // One session per level, released before the next opens, so at most
      // `shards` feed threads plus the parse thread run at any time.
      const std::shared_ptr<mp::serve::Session> session = server.open_session();
      const Span s(tracer, "serve.run");
      TimedStream timed(*reader, tracer, s.id());
      TimedSession target{*session, tracer};
      run = mp::ingest::run_into(timed, target, batch_events);
      peak_resident = std::max(peak_resident, server.stats().resident_bytes);
    }
    peak_buffered = std::max(peak_buffered, reader->peak_buffered_events());
    tracer.count("ingest.batches", static_cast<double>(run.batches));
    tracer.count("ingest.bytes", file_bytes);
    out.events += run.events;
    (level == Level::Logical ? out.logical : out.physical) = std::move(run.report);
  }
  tracer.count("ingest.peak_buffered_events", static_cast<double>(peak_buffered));
  tracer.count("serve.resident_bytes", static_cast<double>(peak_resident));
  return out;
}

void append_streams(const mp::trace::TraceStore& store, Level level,
                    std::vector<std::vector<std::int64_t>>& out) {
  for (int r = 0; r < store.nranks(); ++r) {
    std::vector<std::int64_t> senders;
    std::vector<std::int64_t> sizes;
    for (const auto& rec : store.records(r, level)) {
      senders.push_back(rec.sender);
      sizes.push_back(rec.bytes);
    }
    out.push_back(std::move(senders));
    out.push_back(std::move(sizes));
  }
}

std::int64_t core_probe(Tracer& tracer, const std::vector<std::vector<std::int64_t>>& streams,
                        std::size_t horizon) {
  std::int64_t sink = 0;  // keeps the predictions observable, costs one add
  std::size_t steps = 0;
  std::size_t state_bytes = 0;
  {
    const Span s(tracer, "core.step");
    for (const auto& values : streams) {
      mp::core::StreamPredictor predictor({.horizon = horizon});
      for (const std::int64_t v : values) {
        for (std::size_t h = 1; h <= horizon; ++h) {
          sink += predictor.predict(h).value_or(-1);
        }
        predictor.observe(v);
      }
      steps += values.size();
      state_bytes = predictor.footprint_bytes();
    }
  }
  tracer.count("core.steps", static_cast<double>(steps));
  tracer.count("core.state_bytes", static_cast<double>(state_bytes));
  return sink;
}

}  // namespace perfbench
