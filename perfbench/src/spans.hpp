#pragma once

// In-memory tracing for the benchmark's traced runs. The benchmark wraps
// each call it makes into a layer of the program in a Span; spans and the
// counts read at the same boundaries stay in memory and are written out
// once, when the run ends. A disabled Tracer records nothing, so the
// untraced runs that give the end-to-end figures pay no recording cost.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "clock.hpp"

namespace perfbench {

/// One call into a layer. Ids start at 1; parent 0 marks a root span.
/// `run` groups the spans of one repetition (a setup, a timed repetition
/// or a probe) the way a request id groups the spans of one request.
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t run = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// A count read at a layer boundary (events processed, bytes written...).
struct CountRecord {
  std::uint32_t run = 0;
  const char* name = "";
  double value = 0.0;
};

/// Self time of every span, index for index: its duration minus the part
/// of its interval that its direct children cover. Children may overlap
/// each other (a parse thread beside a feed) — the union is subtracted,
/// clipped to the parent's interval.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Starts a new run id; spans and counts recorded afterwards carry it.
  std::uint32_t begin_run() noexcept { return run_.fetch_add(1, std::memory_order_relaxed) + 1; }
  [[nodiscard]] std::uint32_t run() const noexcept { return run_.load(std::memory_order_relaxed); }

  /// Reserves a span id (0 when disabled).
  [[nodiscard]] std::uint32_t next_id() noexcept {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }
  /// Stores a finished span. Thread-safe.
  void add(const SpanRecord& span);
  /// Records a span measured by the caller, under the calling thread's
  /// current span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);
  /// Adds `value` to the count `name` of the current run. Thread-safe.
  void count(const char* name, double value);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Sum of the durations (s) of the spans named `name`, per run.
  [[nodiscard]] std::map<std::uint32_t, double> seconds_per_run(const std::string& name) const;
  /// Sum of the counts named `name`, per run.
  [[nodiscard]] std::map<std::uint32_t, double> counts_per_run(const std::string& name) const;
  /// Every duration (s) of the spans named `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes every span as CSV (run,id,parent,name,start_ns,end_ns,self_ns).
  void write_csv(const std::string& path) const;
  /// Prints calls, total and self time per span name, largest self first.
  void print_profile() const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint32_t> run_{0};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<CountRecord> counts_;
};

/// The calling thread's innermost open span (0 outside any span).
[[nodiscard]] std::uint32_t current_span() noexcept;

/// Times one call into a layer. Opened on the calling thread, it becomes
/// the parent of the spans opened inside it; pass `parent` to attach a
/// span opened on another thread (a parse thread) to its caller's span.
class Span {
 public:
  Span(Tracer& tracer, const char* name);
  Span(Tracer& tracer, const char* name, std::uint32_t parent);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  [[nodiscard]] std::uint32_t id() const noexcept { return rec_.id; }

 private:
  Tracer& tracer_;
  SpanRecord rec_;
  std::uint32_t saved_current_ = 0;
};

/// Median over runs of a per-run map; nullopt when empty.
[[nodiscard]] std::optional<double> median_over_runs(
    const std::map<std::uint32_t, double>& per_run);

}  // namespace perfbench
