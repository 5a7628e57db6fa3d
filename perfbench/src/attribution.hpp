// attribution.hpp — splits a remote predict round-trip into its layers.
//
// Input: the client-timed round-trip of each request (keyed by wire request
// id) and the spans a traced server recorded (obs::TraceCollector). With one
// request in flight, every request has exactly one "net.request" span
// (frame receipt -> reply encoded, under the wire id), one
// "serve.queue_wait" and one "serve.predict_batch" span (both under the same
// id), and is followed on the I/O thread by one "net.flush" span (the flush
// that writes its reply; matched by time, since the I/O thread flushes
// outside any request's trace scope).
//
// Per request the rows below sum to its round-trip exactly:
//
//   client wire          rtt - net.request - net.flush
//                        (client send, kernel loopback, server poll wake-up,
//                        frame decode before receipt, client wake-up)
//   net.request self     net.request - serve.queue_wait - serve.predict_batch
//                        (submit, completion wake-up, reply encode)
//   serve.queue_wait     admission -> dispatch
//   serve.predict_batch  the packed predictor forward
//   net.flush            the gathered reply write
//
// The table reports the mean of each row over the requests whose round-trip
// lies in the median band (ranks 45%..55%), so the rows sum to the band's
// mean round-trip — which equals the measured p50 round-trip within
// kAttributionTolerance on any non-pathological distribution.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Largest accepted |sum of rows - p50 rtt| / p50 rtt.
inline constexpr double kAttributionTolerance = 0.05;

struct RequestSpans {
  std::uint64_t id = 0;
  double rtt_us = 0.0;
  double request_us = 0.0;
  double queue_wait_us = 0.0;
  double predict_batch_us = 0.0;
  double flush_us = 0.0;
};

struct AttributionRow {
  std::string name;
  double us = 0.0;
};

struct Attribution {
  std::vector<AttributionRow> rows;  // client wire first, net.flush last
  std::int64_t requests = 0;         // requests joined
  std::int64_t band_requests = 0;    // requests in the median band
  double rtt_p50_us = 0.0;
  double rows_sum_us = 0.0;
  /// |rows_sum_us - rtt_p50_us| / rtt_p50_us.
  double residual_frac = 0.0;
  bool within_tolerance() const {
    return requests > 0 && residual_frac <= kAttributionTolerance;
  }
};

/// Joins client round-trips with server spans. Requests missing any of the
/// four spans are left out.
inline std::vector<RequestSpans> join_spans(
    const std::vector<hg::obs::TraceEvent>& events,
    const std::map<std::uint64_t, double>& rtt_us) {
  struct Partial {
    const hg::obs::TraceEvent* request = nullptr;
    double queue_wait_us = -1.0;
    double predict_batch_us = -1.0;
  };
  std::map<std::uint64_t, Partial> by_id;
  std::map<std::uint32_t, std::vector<const hg::obs::TraceEvent*>> flushes;
  for (const hg::obs::TraceEvent& e : events) {
    if (e.name == "net.flush") {
      flushes[e.tid].push_back(&e);
      continue;
    }
    if (rtt_us.count(e.trace_id) == 0) continue;
    Partial& p = by_id[e.trace_id];
    if (e.name == "net.request")
      p.request = &e;
    else if (e.name == "serve.queue_wait")
      p.queue_wait_us = static_cast<double>(e.dur_us);
    else if (e.name == "serve.predict_batch")
      p.predict_batch_us = static_cast<double>(e.dur_us);
  }
  for (auto& [tid, list] : flushes)
    std::sort(list.begin(), list.end(),
              [](const auto* a, const auto* b) { return a->ts_us < b->ts_us; });

  std::vector<RequestSpans> out;
  for (const auto& [id, p] : by_id) {
    if (p.request == nullptr || p.queue_wait_us < 0 || p.predict_batch_us < 0)
      continue;
    const auto it = flushes.find(p.request->tid);
    if (it == flushes.end()) continue;
    // The reply's flush starts right after the reply is encoded (the end
    // of net.request); allow 1 us of timestamp truncation either way.
    const std::int64_t end = p.request->ts_us + p.request->dur_us;
    const auto f = std::lower_bound(
        it->second.begin(), it->second.end(), end - 1,
        [](const auto* ev, std::int64_t t) { return ev->ts_us < t; });
    if (f == it->second.end() || (*f)->ts_us > end + 1000) continue;
    RequestSpans r;
    r.id = id;
    r.rtt_us = rtt_us.at(id);
    r.request_us = static_cast<double>(p.request->dur_us);
    r.queue_wait_us = p.queue_wait_us;
    r.predict_batch_us = p.predict_batch_us;
    r.flush_us = static_cast<double>((*f)->dur_us);
    out.push_back(r);
  }
  return out;
}

/// The per-layer table of the median band (see the header comment).
inline Attribution attribute(std::vector<RequestSpans> reqs) {
  Attribution a;
  a.requests = static_cast<std::int64_t>(reqs.size());
  a.rows = {{"client wire", 0.0},
            {"net.request self", 0.0},
            {"serve.queue_wait", 0.0},
            {"serve.predict_batch", 0.0},
            {"net.flush", 0.0}};
  if (reqs.empty()) return a;
  std::sort(reqs.begin(), reqs.end(),
            [](const RequestSpans& x, const RequestSpans& y) {
              return x.rtt_us < y.rtt_us;
            });
  const auto n = static_cast<std::int64_t>(reqs.size());
  // Nearest-rank median, as perfbench::quantile computes it.
  const auto mid = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(0.5 * static_cast<double>(n))));
  a.rtt_p50_us = reqs[static_cast<std::size_t>(mid - 1)].rtt_us;
  const auto lo = static_cast<std::int64_t>(0.45 * static_cast<double>(n));
  const auto hi = std::max<std::int64_t>(
      lo + 1, static_cast<std::int64_t>(std::ceil(0.55 * static_cast<double>(n))));
  for (std::int64_t i = lo; i < hi && i < n; ++i) {
    const RequestSpans& r = reqs[static_cast<std::size_t>(i)];
    a.rows[0].us += r.rtt_us - r.request_us - r.flush_us;
    a.rows[1].us += r.request_us - r.queue_wait_us - r.predict_batch_us;
    a.rows[2].us += r.queue_wait_us;
    a.rows[3].us += r.predict_batch_us;
    a.rows[4].us += r.flush_us;
    ++a.band_requests;
  }
  for (AttributionRow& row : a.rows) {
    row.us /= static_cast<double>(a.band_requests);
    a.rows_sum_us += row.us;
  }
  a.residual_frac = a.rtt_p50_us > 0.0
                        ? std::abs(a.rows_sum_us - a.rtt_p50_us) / a.rtt_p50_us
                        : 0.0;
  return a;
}

}  // namespace perfbench
