// Tests for the round-trip attribution reducer (src/attribution.hpp).
#include "attribution.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

namespace {

using hg::obs::TraceEvent;
using perfbench::attribute;
using perfbench::Attribution;
using perfbench::join_spans;
using perfbench::kAttributionTolerance;

constexpr std::uint32_t kIoThread = 1;
constexpr std::uint32_t kWorker = 2;

/// Appends the four spans one traced predict leaves, starting at `t0`.
void add_request(std::vector<TraceEvent>* ev, std::uint64_t id, std::int64_t t0,
                 std::int64_t queue, std::int64_t forward, std::int64_t self,
                 std::int64_t flush) {
  const std::int64_t request = queue + forward + self;
  ev->push_back({"serve.queue_wait", "serve", id, t0 + 2, queue, kWorker});
  ev->push_back({"serve.predict_batch", "serve", id, t0 + 2 + queue, forward,
                 kWorker});
  ev->push_back({"net.request", "net", id, t0, request, kIoThread});
  ev->push_back({"net.flush", "net", 0, t0 + request, flush, kIoThread});
}

TEST(Attribution, RowsOfOneRequestSumToItsRoundTrip) {
  std::vector<TraceEvent> ev;
  add_request(&ev, 7, 1000, 30, 150, 20, 10);
  const std::map<std::uint64_t, double> rtt = {{7, 260.0}};
  const auto joined = join_spans(ev, rtt);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].request_us, 200.0);
  EXPECT_EQ(joined[0].flush_us, 10.0);
  const Attribution a = attribute(joined);
  ASSERT_EQ(a.rows.size(), 5u);
  EXPECT_EQ(a.rows[0].name, "client wire");
  EXPECT_DOUBLE_EQ(a.rows[0].us, 50.0);  // 260 - 200 - 10
  EXPECT_DOUBLE_EQ(a.rows[1].us, 20.0);
  EXPECT_DOUBLE_EQ(a.rows[2].us, 30.0);
  EXPECT_DOUBLE_EQ(a.rows[3].us, 150.0);
  EXPECT_DOUBLE_EQ(a.rows[4].us, 10.0);
  EXPECT_DOUBLE_EQ(a.rows_sum_us, 260.0);
  EXPECT_TRUE(a.within_tolerance());
}

TEST(Attribution, MedianBandSumsToP50WithinTolerance) {
  std::vector<TraceEvent> ev;
  std::map<std::uint64_t, double> rtt;
  // A skewed population: most requests ~200 us, a slow tail up to 5 ms.
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    const std::int64_t t0 = static_cast<std::int64_t>(id) * 10'000;
    const std::int64_t queue = 5 + static_cast<std::int64_t>(id % 17);
    const std::int64_t forward = 140 + static_cast<std::int64_t>(id % 23);
    const std::int64_t tail = id % 50 == 0 ? 5000 : 0;
    add_request(&ev, id, t0, queue + tail, forward, 15, 8);
    rtt[id] = static_cast<double>(queue + tail + forward + 15 + 8 + 30 +
                                  static_cast<std::int64_t>(id % 11));
  }
  const Attribution a = attribute(join_spans(ev, rtt));
  EXPECT_EQ(a.requests, 2000);
  EXPECT_GE(a.band_requests, 200);
  EXPECT_LE(a.residual_frac, kAttributionTolerance);
  double sum = 0.0;
  for (const auto& row : a.rows) sum += row.us;
  EXPECT_NEAR(sum, a.rows_sum_us, 1e-9);
  EXPECT_NEAR(a.rows_sum_us, a.rtt_p50_us, kAttributionTolerance * a.rtt_p50_us);
}

TEST(Attribution, RequestsMissingASpanAreLeftOut) {
  std::vector<TraceEvent> ev;
  add_request(&ev, 1, 1000, 10, 100, 10, 5);
  add_request(&ev, 2, 5000, 10, 100, 10, 5);
  ev.erase(ev.begin() + 4);  // request 2 loses its queue-wait span
  const std::map<std::uint64_t, double> rtt = {{1, 200.0}, {2, 200.0}, {3, 1.0}};
  const auto joined = join_spans(ev, rtt);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].id, 1u);
}

TEST(Attribution, FlushIsTheOneFollowingTheRequestOnItsThread) {
  std::vector<TraceEvent> ev;
  add_request(&ev, 1, 1000, 10, 100, 10, 5);
  // An earlier flush on the same thread and a concurrent one elsewhere
  // must not be picked.
  ev.push_back({"net.flush", "net", 0, 900, 99, kIoThread});
  ev.push_back({"net.flush", "net", 0, 1120, 77, kWorker});
  const auto joined = join_spans(ev, {{1, 200.0}});
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].flush_us, 5.0);
}

TEST(Attribution, EmptyInputIsNotWithinTolerance) {
  const Attribution a = attribute({});
  EXPECT_EQ(a.requests, 0);
  EXPECT_FALSE(a.within_tolerance());
}

}  // namespace
