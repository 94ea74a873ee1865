// Self-tests of the benchmark's own arithmetic: nearest-rank percentiles,
// the p99 refusal rule and the per-item minimum over passes, self time
// over nested and overlapping spans, and tile renumbering (a renumbered
// copy reports exactly like its source).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "mpi/world.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tile.hpp"

namespace perfbench {
namespace {

using mpipred::trace::Level;

std::vector<double> one_to(int n) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

TEST(Percentile, NearestRankPicksASample) {
  EXPECT_EQ(nearest_rank(10, 0.5), 5U);
  EXPECT_EQ(nearest_rank(10, 0.99), 10U);
  EXPECT_EQ(nearest_rank(10, 0.0), 1U);
  EXPECT_EQ(*percentile(one_to(10), 0.5), 5.0);
  EXPECT_EQ(*percentile(one_to(100), 0.99), 99.0);
  EXPECT_EQ(*percentile({7.0, 1.0, 3.0}, 0.5), 3.0);  // order of input does not matter
  EXPECT_EQ(*median(one_to(4)), 2.0);                 // nearest rank, never interpolated
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // p99 of n samples sits at rank ceil(0.99 n); n - rank samples lie beyond.
  EXPECT_FALSE(tail_percentile(one_to(999), 0.99).has_value());  // 9 beyond
  const auto p99 = tail_percentile(one_to(1000), 0.99);          // 10 beyond
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(*p99, 990.0);
  EXPECT_FALSE(tail_percentile(one_to(50), 0.9).has_value());  // 5 beyond
  EXPECT_EQ(*tail_percentile(one_to(100), 0.9), 90.0);         // 10 beyond
}

TEST(FoldMin, KeepsEachItemsFastestPass) {
  std::vector<double> acc;
  ASSERT_TRUE(fold_min(acc, {3.0, 1.0, 4.0}));
  EXPECT_EQ(acc, (std::vector<double>{3.0, 1.0, 4.0}));  // the first pass is taken whole
  ASSERT_TRUE(fold_min(acc, {2.0, 5.0, 4.0}));
  EXPECT_EQ(acc, (std::vector<double>{2.0, 1.0, 4.0}));
  EXPECT_FALSE(fold_min(acc, {0.0, 0.0}));  // a pass over other items is refused
  EXPECT_EQ(acc, (std::vector<double>{2.0, 1.0, 4.0}));
}

SpanRecord span(std::uint32_t id, std::uint32_t parent, std::int64_t start, std::int64_t end) {
  return {.id = id, .parent = parent, .run = 1, .name = "s", .start_ns = start, .end_ns = end};
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > b [15,35); root > c [50,60)
  const std::vector<SpanRecord> spans = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                                         span(3, 2, 15, 35), span(4, 1, 50, 60)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 10);
  EXPECT_EQ(self[1], 30 - 20);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two children on different threads overlap in [20,30); one runs past
  // the parent's end and is clipped to it.
  const std::vector<SpanRecord> spans = {span(1, 0, 0, 50), span(2, 1, 10, 30),
                                         span(3, 1, 20, 60)};
  EXPECT_EQ(self_times(spans)[0], 10);  // only [0,10) is uncovered
}

TEST(SelfTime, TracerRecordsNestingAndNothingWhenDisabled) {
  Tracer off(false);
  { const Span s(off, "outer"); }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  (void)on.begin_run();
  {
    const Span outer(on, "outer");
    const Span inner(on, "inner");
    on.count("items", 3);
  }
  const auto spans = on.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_STREQ(spans[0].name, "inner");  // closed first
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0U);
  EXPECT_EQ(on.counts_per_run("items").at(1), 3.0);
  EXPECT_EQ(current_span(), 0U);
}

TEST(Tile, RenumberingMovesRanksButNotTheUnresolvedMarker) {
  EXPECT_EQ(renumber_sender(3, 32), 35);
  EXPECT_EQ(renumber_sender(mpipred::trace::kUnresolvedSender, 32),
            mpipred::trace::kUnresolvedSender);
}

TEST(Tile, RenumberedCopyReportsLikeItsSource) {
  namespace mp = mpipred;
  mp::mpi::World world(4, mp::apps::paper_world_config(7));
  const auto outcome = mp::apps::find_app("cg").run(
      world, mp::apps::AppConfig{.problem_class = mp::apps::ProblemClass::Toy});
  ASSERT_TRUE(outcome.verified);
  const mp::trace::TraceStore* sources[] = {&world.traces()};
  const mp::trace::TraceStore tiled = tile_traces(sources, 3);
  ASSERT_EQ(tiled.nranks(), 12);

  for (const Level level : {Level::Logical, Level::Physical}) {
    const auto source =
        mp::engine::run_over_trace(world.traces(), level, {.shards = 1});
    const auto report = mp::engine::run_over_trace(tiled, level, {.shards = 1});
    EXPECT_EQ(report.events, 3 * source.events);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(untile_streams(report, k, 4), source.streams) << "tile " << k;
    }
  }
  // Copy 2's senders are its source's, moved by 8 ranks.
  const auto src = world.traces().records(1, Level::Physical);
  const auto copy = tiled.records(9, Level::Physical);
  ASSERT_EQ(src.size(), copy.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(copy[i].sender, renumber_sender(src[i].sender, 8));
  }
}

}  // namespace
}  // namespace perfbench
