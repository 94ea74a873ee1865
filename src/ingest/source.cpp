#include "ingest/source.hpp"

#include <fstream>
#include <istream>
#include <utility>

#include "ingest/csv_source.hpp"
#include "ingest/streaming.hpp"
#include "trace/merge.hpp"

namespace mpipred::ingest {

std::unique_ptr<EventStream> TraceSource::stream_events(trace::Level level) const {
  std::vector<TimedEvent> timed;
  if (const trace::TraceStore* records = store()) {
    const auto merged = trace::merged_records(*records, level);
    timed.reserve(merged.size());
    for (const trace::MergedRecord& rec : merged) {
      timed.push_back({.time = rec.time,
                       .event = {.source = rec.sender,
                                 .destination = rec.receiver,
                                 .tag = static_cast<std::int32_t>(rec.kind),
                                 .bytes = rec.bytes}});
    }
  } else {
    // Event-only formats carry no timestamps; the transforms still compose
    // (a time window over an all-zero clock keeps everything or nothing).
    for (const engine::Event& event : events(level)) {
      timed.push_back({.time = sim::SimTime{0}, .event = event});
    }
  }
  return std::make_unique<VectorEventStream>(std::move(timed), /*time_ordered=*/true);
}

std::string to_string(const Diagnostic& d) {
  std::string out = d.file;
  if (d.line != 0) {
    out += ':';
    out += std::to_string(d.line);
  }
  out += ": ";
  if (!d.field.empty()) {
    out += "field '";
    out += d.field;
    out += "': ";
  }
  out += d.reason;
  return out;
}

TraceFormatRegistry& TraceFormatRegistry::instance() {
  static TraceFormatRegistry registry = [] {
    TraceFormatRegistry r;
    register_csv_formats(r);
    return r;
  }();
  return registry;
}

void TraceFormatRegistry::add(TraceFormat format) {
  for (const TraceFormat& existing : formats_) {
    if (existing.name == format.name) {
      throw UsageError("trace format '" + format.name + "' registered twice");
    }
  }
  formats_.push_back(std::move(format));
}

std::vector<std::string> TraceFormatRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(formats_.size());
  for (const TraceFormat& f : formats_) {
    out.push_back(f.name);
  }
  return out;
}

namespace {

/// First non-empty, non-comment line with any trailing '\r' removed — the
/// probe every format's `matches` sees — and its 1-based line number.
/// Empty text and line 0 when the stream has none.
struct Probe {
  std::string text;
  std::size_t line = 0;
};

Probe first_meaningful_line(std::istream& is) {
  Probe probe;
  std::size_t lineno = 0;
  while (std::getline(is, probe.text)) {
    ++lineno;
    if (!probe.text.empty() && probe.text.back() == '\r') {
      probe.text.pop_back();
    }
    if (probe.text.empty() || probe.text.front() == '#') {
      continue;
    }
    probe.line = lineno;
    return probe;
  }
  return {};
}

}  // namespace

namespace {

[[noreturn]] void throw_unknown_format(const std::vector<TraceFormat>& formats, const Probe& probe,
                                       const std::string& file) {
  std::string known;
  for (const TraceFormat& f : formats) {
    known += (known.empty() ? "" : ", ") + f.name;
  }
  throw IngestError({.file = file,
                     .line = probe.line,
                     .field = {},
                     .reason = "no registered trace format matches header '" + probe.text +
                               "' (known formats: " + known + ")"});
}

}  // namespace

std::unique_ptr<TraceSource> TraceFormatRegistry::open(std::istream& is,
                                                       const std::string& file) const {
  const Probe probe = first_meaningful_line(is);
  is.clear();
  is.seekg(0);
  if (!is) {
    throw IngestError({.file = file,
                       .line = 0,
                       .field = {},
                       .reason = "stream is not seekable (cannot rewind probe)"});
  }
  for (const TraceFormat& f : formats_) {
    if (f.matches(probe.text)) {
      return f.open(is, file);
    }
  }
  throw_unknown_format(formats_, probe, file);
}

std::unique_ptr<EventStream> TraceFormatRegistry::open_stream(const std::string& path,
                                                              trace::Level level) const {
  std::ifstream is(path);
  if (!is) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
  }
  const Probe probe = first_meaningful_line(is);
  for (const TraceFormat& f : formats_) {
    if (!f.matches(probe.text)) {
      continue;
    }
    if (f.open_stream) {
      return f.open_stream(path, level);
    }
    is.clear();
    is.seekg(0);
    if (!is) {
      throw IngestError({.file = path,
                         .line = 0,
                         .field = {},
                         .reason = "stream is not seekable (cannot rewind probe)"});
    }
    return f.open(is, path)->stream_events(level);
  }
  throw_unknown_format(formats_, probe, path);
}

std::unique_ptr<TraceSource> open_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw IngestError({.file = path, .line = 0, .field = {}, .reason = "cannot open for reading"});
  }
  return TraceFormatRegistry::instance().open(is, path);
}

std::unique_ptr<TraceSource> open_trace_stream(std::istream& is, const std::string& label) {
  return TraceFormatRegistry::instance().open(is, label);
}

}  // namespace mpipred::ingest
