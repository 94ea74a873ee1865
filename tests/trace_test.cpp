// Trace substrate: store semantics, stream extraction, Table-1 statistics,
// and CSV round-tripping (write_csv out, the ingest boundary back in).

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "common/error.hpp"
#include "ingest/source.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"
#include "trace/store.hpp"
#include "trace/stream.hpp"

namespace mpipred::trace {
namespace {

Record make(std::int32_t sender, std::int64_t bytes, OpKind kind = OpKind::PointToPoint,
            Op op = Op::Recv, std::int64_t t = 0) {
  return Record{.time = sim::SimTime{t}, .sender = sender, .bytes = bytes, .kind = kind, .op = op};
}

/// Reads write_csv output back through ingest::open_trace_stream.
TraceStore reload(std::istream& is) {
  const auto source = ingest::open_trace_stream(is);
  return *source->store();
}

TEST(Store, AppendAndRead) {
  TraceStore store(2);
  store.append(0, Level::Logical, make(1, 100));
  store.append(0, Level::Logical, make(1, 200));
  store.append(0, Level::Physical, make(1, 100));
  EXPECT_EQ(store.records(0, Level::Logical).size(), 2u);
  EXPECT_EQ(store.records(0, Level::Physical).size(), 1u);
  EXPECT_EQ(store.records(1, Level::Logical).size(), 0u);
  EXPECT_EQ(store.total_records(Level::Logical), 2u);
}

TEST(Store, ResolveFillsSenderAndBytes) {
  TraceStore store(1);
  const auto idx = store.append(0, Level::Logical, make(kUnresolvedSender, 0));
  store.resolve(0, Level::Logical, idx, 3, 512);
  const auto recs = store.records(0, Level::Logical);
  EXPECT_EQ(recs[0].sender, 3);
  EXPECT_EQ(recs[0].bytes, 512);
}

TEST(Store, BoundsChecked) {
  TraceStore store(2);
  EXPECT_THROW(store.append(2, Level::Logical, make(0, 1)), UsageError);
  EXPECT_THROW(store.append(-1, Level::Logical, make(0, 1)), UsageError);
  EXPECT_THROW(store.resolve_sender(0, Level::Logical, 0, 1), UsageError);
}

TEST(Store, ClearKeepsShape) {
  TraceStore store(2);
  store.append(1, Level::Physical, make(0, 9));
  store.clear();
  EXPECT_EQ(store.total_records(Level::Physical), 0u);
  EXPECT_EQ(store.nranks(), 2);
}

TEST(Stream, ExtractsBothSeries) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(1, 10));
  store.append(0, Level::Logical, make(2, 20));
  const auto streams = extract_streams(store, 0, Level::Logical);
  EXPECT_EQ(streams.senders, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(streams.sizes, (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(streams.length(), 2u);
}

TEST(Stream, KindFilterSeparatesTraffic) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(1, 10, OpKind::PointToPoint));
  store.append(0, Level::Logical, make(2, 20, OpKind::Collective, Op::Allreduce));
  store.append(0, Level::Logical, make(3, 30, OpKind::PointToPoint));
  const auto p2p = extract_streams(store, 0, Level::Logical, {.kind = OpKind::PointToPoint});
  const auto coll = extract_streams(store, 0, Level::Logical, {.kind = OpKind::Collective});
  EXPECT_EQ(p2p.senders, (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(coll.senders, (std::vector<std::int64_t>{2}));
}

TEST(Stream, UnresolvedDroppedByDefaultKeptOnRequest) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(kUnresolvedSender, 10));
  store.append(0, Level::Logical, make(2, 20));
  EXPECT_EQ(extract_streams(store, 0, Level::Logical).length(), 1u);
  EXPECT_EQ(extract_streams(store, 0, Level::Logical, {.drop_unresolved = false}).length(), 2u);
}

TEST(Stats, CountsKindsAndDistincts) {
  TraceStore store(1);
  for (int i = 0; i < 96; ++i) {
    store.append(0, Level::Logical, make(i % 3, (i % 2) ? 100 : 200));
  }
  for (int i = 0; i < 4; ++i) {
    store.append(0, Level::Logical, make(5, 999, OpKind::Collective, Op::Bcast));
  }
  const auto s = summarize_rank(store, 0, Level::Logical);
  EXPECT_EQ(s.p2p_msgs, 96);
  EXPECT_EQ(s.coll_msgs, 4);
  EXPECT_EQ(s.distinct_senders, 4);
  EXPECT_EQ(s.distinct_sizes, 3);
  EXPECT_EQ(s.frequent_senders, 4);  // 4% of stream each, above 1%
  EXPECT_EQ(s.frequent_sizes, 3);
}

TEST(Stats, FrequentThresholdFiltersRareValues) {
  TraceStore store(1);
  for (int i = 0; i < 999; ++i) {
    store.append(0, Level::Logical, make(1, 100));
  }
  store.append(0, Level::Logical, make(2, 555));  // 0.1% of the stream
  const auto s = summarize_rank(store, 0, Level::Logical, {.frequent_threshold = 0.01});
  EXPECT_EQ(s.distinct_senders, 2);
  EXPECT_EQ(s.frequent_senders, 1);
  EXPECT_EQ(s.distinct_sizes, 2);
  EXPECT_EQ(s.frequent_sizes, 1);
}

TEST(Stats, HistogramsCount) {
  TraceStore store(1);
  store.append(0, Level::Physical, make(1, 100));
  store.append(0, Level::Physical, make(1, 100));
  store.append(0, Level::Physical, make(2, 200));
  const auto sh = sender_histogram(store, 0, Level::Physical);
  EXPECT_EQ(sh.at(1), 2);
  EXPECT_EQ(sh.at(2), 1);
  const auto zh = size_histogram(store, 0, Level::Physical);
  EXPECT_EQ(zh.at(100), 2);
}

TEST(Stats, RepresentativeRankIsMedianByCount) {
  TraceStore store(3);
  for (int i = 0; i < 1; ++i) store.append(0, Level::Logical, make(0, 1));
  for (int i = 0; i < 5; ++i) store.append(1, Level::Logical, make(0, 1));
  for (int i = 0; i < 9; ++i) store.append(2, Level::Logical, make(0, 1));
  EXPECT_EQ(representative_rank(store, Level::Logical), 1);
}

TEST(Csv, RoundTripsAllFields) {
  TraceStore store(2);
  store.append(0, Level::Logical, make(1, 100, OpKind::PointToPoint, Op::Recv, 5));
  store.append(0, Level::Physical, make(1, 100, OpKind::PointToPoint, Op::Recv, 17));
  store.append(1, Level::Logical, make(kUnresolvedSender, 0, OpKind::Collective, Op::Alltoallv, 9));

  std::stringstream ss;
  write_csv(ss, store);
  const TraceStore back = reload(ss);

  for (int r = 0; r < 2; ++r) {
    for (const auto level : {Level::Logical, Level::Physical}) {
      const auto a = store.records(r, level);
      const auto b = back.records(r, level);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]);
      }
    }
  }
}

// Regression: CRLF-terminated files (Windows exports, curl -o) used to be
// rejected with "missing or unexpected header".
TEST(Csv, RoundTripsThroughCrlfLineEndings) {
  TraceStore store(2);
  store.append(0, Level::Logical, make(1, 100, OpKind::PointToPoint, Op::Recv, 5));
  store.append(1, Level::Physical, make(0, 7, OpKind::Collective, Op::Bcast, 6));
  std::stringstream unix_csv;
  write_csv(unix_csv, store);
  std::string text = unix_csv.str();
  for (std::size_t pos = 0; (pos = text.find('\n', pos)) != std::string::npos; pos += 2) {
    text.replace(pos, 1, "\r\n");
  }
  std::stringstream crlf(text);
  const TraceStore back = reload(crlf);
  EXPECT_EQ(back.records(0, Level::Logical)[0], store.records(0, Level::Logical)[0]);
  EXPECT_EQ(back.records(1, Level::Physical)[0], store.records(1, Level::Physical)[0]);
}

// Property: write_csv -> ingest is the identity on arbitrary store
// contents — time ties, empty streams, both levels, wildcard senders.
TEST(Csv, RandomizedRoundTripProperty) {
  std::mt19937 rng(20030515);  // fixed seed: reproducible corpus
  for (int iteration = 0; iteration < 25; ++iteration) {
    const int nranks = std::uniform_int_distribution<int>(1, 5)(rng);
    TraceStore store(nranks);
    for (int rank = 0; rank < nranks; ++rank) {
      for (const Level level : {Level::Logical, Level::Physical}) {
        const int count = std::uniform_int_distribution<int>(0, 8)(rng);
        for (int i = 0; i < count; ++i) {
          Record rec;
          // Tight time range on purpose: ties across ranks are common.
          rec.time = sim::SimTime{std::uniform_int_distribution<std::int64_t>(0, 3)(rng)};
          rec.sender =
              std::uniform_int_distribution<std::int32_t>(kUnresolvedSender, nranks - 1)(rng);
          rec.bytes = std::uniform_int_distribution<std::int64_t>(0, 1 << 20)(rng);
          rec.kind = static_cast<OpKind>(std::uniform_int_distribution<int>(0, 1)(rng));
          rec.op = static_cast<Op>(std::uniform_int_distribution<int>(0, kNumOps - 1)(rng));
          store.append(rank, level, rec);
        }
      }
    }
    std::stringstream ss;
    write_csv(ss, store);
    const TraceStore back = reload(ss);
    ASSERT_EQ(back.nranks(), nranks) << "iteration " << iteration;
    for (int rank = 0; rank < nranks; ++rank) {
      for (const Level level : {Level::Logical, Level::Physical}) {
        const auto a = store.records(rank, level);
        const auto b = back.records(rank, level);
        ASSERT_EQ(a.size(), b.size()) << "iteration " << iteration << " rank " << rank;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i], b[i]) << "iteration " << iteration << " rank " << rank << " #" << i;
        }
      }
    }
  }
}

TEST(Csv, FileRoundTrip) {
  TraceStore store(1);
  store.append(0, Level::Logical, make(0, 64));
  const std::string path = ::testing::TempDir() + "/mpipred_trace_test.csv";
  write_csv_file(path, store);
  const auto source = ingest::open_trace(path);
  EXPECT_EQ(source->store()->records(0, Level::Logical).size(), 1u);
  EXPECT_THROW(write_csv_file("/nonexistent/dir/x.csv", store), Error);
  EXPECT_THROW((void)ingest::open_trace("/nonexistent/dir/x.csv"), ingest::IngestError);
}

TEST(Event, ToStringCoversEnums) {
  EXPECT_EQ(to_string(Level::Logical), "logical");
  EXPECT_EQ(to_string(Level::Physical), "physical");
  EXPECT_EQ(to_string(OpKind::Collective), "coll");
  EXPECT_EQ(to_string(Op::Alltoallv), "alltoallv");
  EXPECT_EQ(to_string(Op::Barrier), "barrier");
}

}  // namespace
}  // namespace mpipred::trace
