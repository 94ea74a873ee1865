#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "stats.hpp"

namespace perfbench {

namespace {

thread_local std::uint32_t t_current_span = 0;

}  // namespace

std::uint32_t current_span() noexcept { return t_current_span; }

std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index_of.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> child_intervals(spans.size());
  for (const SpanRecord& s : spans) {
    const auto parent = index_of.find(s.parent);
    if (s.parent != 0 && parent != index_of.end()) {
      child_intervals[parent->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = child_intervals[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;  // end of the union so far
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, spans[i].end_ns);
      if (to > from) {
        covered += to - from;
      }
      reach = std::max(reach, std::min(end, spans[i].end_ns));
    }
    out[i] = spans[i].duration_ns() - covered;
  }
  return out;
}

void Tracer::add(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(span);
}

void Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled()) {
    return;
  }
  add({.id = next_id(), .parent = t_current_span, .run = run(), .name = name,
       .start_ns = start_ns, .end_ns = end_ns});
}

void Tracer::count(const char* name, double value) {
  if (!enabled()) {
    return;
  }
  const std::lock_guard<std::mutex> lk(mu_);
  counts_.push_back({.run = run(), .name = name, .value = value});
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::map<std::uint32_t, double> Tracer::seconds_per_run(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::map<std::uint32_t, double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out[s.run] += ns_to_s(s.duration_ns());
    }
  }
  return out;
}

std::map<std::uint32_t, double> Tracer::counts_per_run(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::map<std::uint32_t, double> out;
  for (const CountRecord& c : counts_) {
    if (name == c.name) {
      out[c.run] += c.value;
    }
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out.push_back(ns_to_s(s.duration_ns()));
    }
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<std::int64_t> self = self_times(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  std::fprintf(f, "run,id,parent,name,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f, "%u,%u,%u,%s,%lld,%lld,%lld\n", s.run, s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  std::fclose(f);
}

void Tracer::print_profile() const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<std::int64_t> self = self_times(all);
  struct Row {
    std::size_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Row& r = rows[all[i].name];
    ++r.calls;
    r.total_ns += all[i].duration_ns();
    r.self_ns += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.self_ns > b.second.self_ns; });
  std::printf("profile (all traced spans of this run; self = total minus child spans):\n");
  std::printf("  %-24s %9s %12s %12s\n", "span", "calls", "total_ms", "self_ms");
  for (const auto& [name, r] : sorted) {
    std::printf("  %-24s %9zu %12.3f %12.3f\n", name.c_str(), r.calls,
                static_cast<double>(r.total_ns) * 1e-6, static_cast<double>(r.self_ns) * 1e-6);
  }
}

Span::Span(Tracer& tracer, const char* name) : Span(tracer, name, t_current_span) {}

Span::Span(Tracer& tracer, const char* name, std::uint32_t parent) : tracer_(tracer) {
  if (!tracer_.enabled()) {
    return;
  }
  rec_ = {.id = tracer_.next_id(), .parent = parent, .run = tracer_.run(), .name = name,
          .start_ns = 0, .end_ns = 0};
  saved_current_ = t_current_span;
  t_current_span = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (rec_.id == 0) {
    return;
  }
  rec_.end_ns = now_ns();
  t_current_span = saved_current_;
  tracer_.add(rec_);
}

std::optional<double> median_over_runs(const std::map<std::uint32_t, double>& per_run) {
  std::vector<double> values;
  values.reserve(per_run.size());
  for (const auto& [run, v] : per_run) {
    values.push_back(v);
  }
  return median(std::move(values));
}

}  // namespace perfbench
