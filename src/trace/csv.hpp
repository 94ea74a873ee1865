#pragma once

#include <iosfwd>
#include <string>

#include "trace/store.hpp"

namespace mpipred::trace {

/// Writes every record of `store` as CSV with the header
/// `rank,level,time_ns,sender,bytes,kind,op`, preceded by the versioned
/// `# mpipred-trace: v1` / `# nranks: N` preamble (so re-ingestion
/// recovers the rank count even when the top ranks logged nothing).
/// Streams are emitted rank by rank, level by level, preserving in-stream
/// order. src/ingest/ reads it back (ingest::open_trace).
void write_csv(std::ostream& os, const TraceStore& store);
void write_csv_file(const std::string& path, const TraceStore& store);

}  // namespace mpipred::trace
