// Turns a finished Run into metrics: the end-to-end set from the untraced
// repetitions, or the per-layer set from the spans and counts of a traced
// run. Every ratio is printed with its base and every percentile with its
// sample count; the last line is the one-object JSON result.

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "run.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  // what the figure is computed from
};

class Metrics {
 public:
  explicit Metrics(Run& run) : run_(run) {}

  void add(std::string name, double value, std::string unit, std::string base = "") {
    rows_.push_back({std::move(name), value, std::move(unit), std::move(base)});
  }
  /// A figure that could not be computed: a failed check, reported as 0.
  void refuse(std::string name, std::string unit, const std::string& why) {
    run_.expect(false, name + ": " + why);
    add(std::move(name), 0.0, std::move(unit), "refused: " + why);
  }

  void print() const {
    for (const Metric& m : rows_) {
      std::printf("  %-30s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.base.c_str());
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[96];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].value);
      out += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  Run& run_;
  std::vector<Metric> rows_;
};

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

std::string samples(std::size_t n) { return "(n=" + std::to_string(n) + ")"; }

/// "(n=..) min, quartiles m / q1 / q2 / q3" for a sample of repetitions.
std::string quartiles(const std::vector<double>& xs) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), " min, quartiles %.6g / %.6g / %.6g / %.6g",
                percentile(xs, 0.0).value_or(0.0), percentile(xs, 0.25).value_or(0.0),
                percentile(xs, 0.5).value_or(0.0),
                percentile(xs, 0.75).value_or(0.0));
  return samples(xs.size()) + buf;
}

/// Sum over the run's worlds of each world's lower quartile of `samples`;
/// nullopt when a world has none.
template <typename F>
std::optional<double> summed_lower_quartiles(const Run& run, F samples) {
  double sum = 0.0;
  for (const WorldSamples& w : run.worlds) {
    const auto q1 = percentile(samples(w), 0.25);
    if (!q1) {
      return std::nullopt;
    }
    sum += *q1;
  }
  return sum;
}

void end_to_end(Run& run, Metrics& m) {
  // Host times are the lower quartile over repetitions, per world, summed
  // over the run's worlds: on a shared host interference only ever adds
  // time, and the lower quartile tracks the undisturbed cost while still
  // resting on a quarter of the sample. setup_s, timed many times per run,
  // keeps the median. The closed-loop percentiles are taken over each
  // message's fastest pass, for the same reason at the grain of one call.
  const auto setup = median(run.setup_s);
  const auto wall =
      summed_lower_quartiles(run, [](const WorldSamples& w) { return w.wall_s; });
  std::vector<double> loop_us;
  double msgs = 0.0;
  double hits = 0.0;
  double total = 0.0;
  std::size_t passes = 0;
  std::string per_world;
  for (const WorldSamples& w : run.worlds) {
    loop_us.insert(loop_us.end(), w.loop_min_us.begin(), w.loop_min_us.end());
    msgs += w.msgs;
    hits += static_cast<double>(w.accuracy_hits);
    total += static_cast<double>(w.accuracy_total);
    passes = passes == 0 ? w.loop_passes : std::min(passes, w.loop_passes);
    per_world += ' ';
    per_world += quartiles(w.wall_s);
  }
  const auto p50 = median(loop_us);
  const auto p99 = tail_percentile(loop_us, 0.99);
  if (!setup || !wall || !p50) {
    m.refuse("wall_s", "s", "no timed repetition or closed-loop pass ran");
    return;
  }
  m.add("setup_s", *setup, "s", "median " + quartiles(run.setup_s));
  m.add("wall_s", *wall, "s",
        "sum over " + std::to_string(run.worlds.size()) +
            " world(s) of the lower quartile of repetitions, per world" + per_world);
  m.add("msgs_per_s", msgs / *wall, "msg/s", fmt("%.0f msgs / wall_s", msgs));
  m.add("peak_rss_mib", run.peak_rss_mib, "MiB", "getrusage ru_maxrss after the timed phase");
  const std::string over = " of observe+predicted_window over " +
                           std::to_string(loop_us.size()) + " messages, each its fastest of " +
                           std::to_string(passes) + "+ passes " + samples(loop_us.size());
  m.add("predict_p50_us", *p50, "us", "p50" + over);
  if (p99) {
    m.add("predict_p99_us", *p99, "us", "p99" + over);
  } else {
    m.refuse("predict_p99_us", "us", "fewer than 10 samples beyond p99" + over);
  }
  m.add("accuracy_pct", total == 0 ? 0.0 : 100.0 * hits / total, "%",
        fmt("+1 sender hits %.0f of %.0f (physical level)", hits, total));
}

void per_layer(Run& run, Metrics& m) {
  const Tracer& t = run.tracer;
  const auto secs = [&](const char* span) {
    return median_over_runs(t.seconds_per_run(span)).value_or(0.0);
  };
  const auto count = [&](const char* name) {
    return median_over_runs(t.counts_per_run(name)).value_or(0.0);
  };
  const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  const auto p50_of = [&](const char* span) {
    const auto d = t.durations(span);
    return std::make_pair(median(d).value_or(0.0), d.size());
  };

  const double sim_run = secs("sim.run");
  const double sim_events = count("sim.events");
  m.add("sim.run_s", sim_run, "s", "AppInfo::run on static worlds, median per run");
  m.add("sim.events", sim_events, "count");
  m.add("sim.context_switches", count("sim.context_switches"), "count");
  m.add("sim.host_ns_per_event", ratio(sim_run * 1e9, sim_events), "ns",
        fmt("sim.run_s %.6f s / %.0f events", sim_run, sim_events));
  const double static_final = count("sim.final_time_ns");
  m.add("sim.final_time_ns", static_final, "sim-ns", "simulated, deterministic per seed");

  const double grants = count("mpi.stream_credit_grants");
  const double releases = count("mpi.stream_credit_releases");
  m.add("mpi.msgs", count("mpi.msgs"), "count");
  m.add("mpi.fallback_round_trips", count("mpi.fallback_round_trips"), "count");
  m.add("mpi.stream_credit_grants", grants, "count");
  m.add("mpi.stream_credit_releases", releases, "count");

  const double write_s = secs("trace.write");
  const double write_mib = count("trace.write_bytes") / kMiB;
  m.add("trace.extract_s", secs("trace.extract"), "s");
  m.add("trace.write_s", write_s, "s");
  m.add("trace.write_mib_per_s", ratio(write_mib, write_s), "MiB/s",
        fmt("%.3f MiB / %.6f s", write_mib, write_s));

  const double steps = count("core.steps");
  const double step_ns = ratio(secs("core.step") * 1e9, steps);
  m.add("core.step_ns", step_ns, "ns", fmt("%.0f steps of predict +1..+h then observe", steps));
  m.add("core.state_bytes", count("core.state_bytes"), "bytes", "footprint_bytes() per predictor");

  const double feed = secs("engine.observe_all");
  const double events = count("engine.events");
  m.add("engine.feed_s", feed, "s");
  m.add("engine.events_per_s", ratio(events, feed), "1/s",
        fmt("%.0f events / %.6f s", events, feed));
  m.add("engine.dispatch_ns_per_event", ratio(feed * 1e9, events) - 2.0 * step_ns, "ns",
        fmt("feed %.1f ns/event - 2 x core.step_ns %.1f", ratio(feed * 1e9, events), step_ns));
  m.add("engine.report_s", secs("engine.report"), "s");
  m.add("engine.streams", count("engine.streams"), "count");
  m.add("engine.footprint_mib", count("engine.footprint_bytes") / kMiB, "MiB");

  const double adaptive_run = secs("adaptive.run");
  const double hits = count("adaptive.prepost_hits");
  const double misses = count("adaptive.prepost_misses");
  const double adaptive_final = count("adaptive.final_time_ns");
  const auto [observe_us, observe_n] = p50_of("adaptive.observe");
  const auto [window_us, window_n] = p50_of("adaptive.window");
  m.add("adaptive.run_s", adaptive_run, "s", "AppInfo::run on adaptive worlds");
  m.add("adaptive.overhead_s", adaptive_run - sim_run, "s",
        fmt("adaptive.run_s %.6f - static sim.run_s %.6f", adaptive_run, sim_run));
  m.add("adaptive.observe_us", observe_us * 1e6, "us", "p50 " + samples(observe_n));
  m.add("adaptive.window_us", window_us * 1e6, "us", "p50 " + samples(window_n));
  m.add("adaptive.prepost_hit_ratio", ratio(hits, hits + misses), "ratio",
        fmt("%.0f hits of %.0f arrivals", hits, hits + misses));
  m.add("adaptive.rendezvous_elided", count("adaptive.rendezvous_elided"), "count");
  m.add("adaptive.degraded_arrivals", count("adaptive.degraded_arrivals"), "count");
  m.add("adaptive.sim_speedup_pct", 100.0 * ratio(static_final - adaptive_final, static_final),
        "%", fmt("static %.0f sim-ns vs adaptive %.0f sim-ns", static_final, adaptive_final));

  const auto batches = t.durations("serve.observe_all");
  const auto batch_p90 = tail_percentile(batches, 0.90);
  m.add("serve.run_s", secs("serve.run"), "s", "ingest::run_into, both levels");
  m.add("serve.feed_s", secs("serve.observe_all"), "s");
  m.add("serve.batch_p50_ms", median(batches).value_or(0.0) * 1e3, "ms",
        "per-batch Session::observe_all " + samples(batches.size()));
  if (batch_p90) {
    m.add("serve.batch_p90_ms", *batch_p90 * 1e3, "ms", samples(batches.size()));
  } else {
    m.refuse("serve.batch_p90_ms", "ms",
             "fewer than 10 samples beyond p90 " + samples(batches.size()));
  }
  m.add("serve.report_s", secs("serve.report"), "s");
  m.add("serve.resident_mib", count("serve.resident_bytes") / kMiB, "MiB");

  const double parse = secs("ingest.next_batch");
  const double parse_mib = count("ingest.bytes") / kMiB;
  m.add("ingest.parse_s", parse, "s", "EventStream::next_batch, parse thread");
  m.add("ingest.parse_mib_per_s", ratio(parse_mib, parse), "MiB/s",
        fmt("%.3f MiB read / %.6f s", parse_mib, parse));
  m.add("ingest.batches", count("ingest.batches"), "count");
  m.add("ingest.peak_buffered_events", count("ingest.peak_buffered_events"), "count");

  const auto traced =
      summed_lower_quartiles(run, [](const WorldSamples& w) { return w.traced_wall_s; })
          .value_or(0.0);
  const auto untraced =
      summed_lower_quartiles(run, [](const WorldSamples& w) { return w.wall_s; }).value_or(0.0);
  m.add("bench.trace_overhead_pct", 100.0 * ratio(traced - untraced, untraced), "%",
        fmt("traced wall_s %.6f vs untraced %.6f (summed lower quartiles", traced, untraced) +
            " over " + std::to_string(run.worlds.size()) + " world(s))");

  run.expect(grants == releases, "mpi: stream credit grants equal releases");
}

}  // namespace

int report(Run& run) {
  Metrics m(run);
  if (run.opts.trace) {
    per_layer(run, m);
  } else {
    end_to_end(run, m);
  }
  std::printf("%s metrics (%s):\n", run.opts.workload.c_str(),
              run.opts.trace ? "per layer, traced run" : "end to end, untraced");
  m.print();
  for (const std::string& note : run.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const auto& [name, hex] : run.digests) {
    std::printf("digest %s %s\n", name.c_str(), hex.c_str());
  }
  std::printf("error_rate = %zu failed / %zu checks attempted\n", run.failed, run.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              run.failed == 0 ? "true" : "false", run.attempted, run.failed, m.json().c_str());
  return run.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
