#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "net/protocol.hpp"

namespace perfbench {

ssize_t PumpTransport::recv(char* buf, std::size_t len) {
  if (unread_.empty()) return inner_->recv(buf, len);
  const std::size_t n = std::min(len, unread_.size());
  std::memcpy(buf, unread_.data(), n);
  unread_.erase(0, n);
  return static_cast<ssize_t>(n);
}

bool PumpTransport::pump(std::vector<Arrival>* arrived) {
  char buf[64 * 1024];
  bool got = false;
  for (;;) {
    const ssize_t n = ::recv(inner_->fd(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      unread_.append(buf, static_cast<std::size_t>(n));
      scan_.append(buf, static_cast<std::size_t>(n));
      got = true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  if (!got) return true;
  const Clock::time_point now = Clock::now();
  while (scan_.size() - scan_off_ >= hg::net::kHeaderSize) {
    hg::net::FrameHeader h;
    if (!hg::net::decode_header(scan_.data() + scan_off_,
                                scan_.size() - scan_off_, &h))
      return false;
    const std::size_t frame = hg::net::kHeaderSize + h.payload_len;
    if (scan_.size() - scan_off_ < frame) break;
    arrived->push_back({h.request_id, now});
    scan_off_ += frame;
  }
  if (scan_off_ > (1u << 20) || scan_off_ == scan_.size()) {
    scan_.erase(0, scan_off_);
    scan_off_ = 0;
  }
  return true;
}

Conn connect(std::uint16_t port) {
  hg::net::ClientConfig cfg;
  cfg.port = port;
  // The client keeps the wrapper for reconnects, so it must not refer to
  // this frame. (With the default one-attempt RetryPolicy there are none.)
  auto pump = std::make_shared<PumpTransport*>(nullptr);
  cfg.wrap_transport = [pump](std::unique_ptr<hg::net::Transport> t) {
    auto p = std::make_unique<PumpTransport>(std::move(t));
    *pump = p.get();
    return std::unique_ptr<hg::net::Transport>(std::move(p));
  };
  hg::api::Result<hg::net::Client> client = hg::net::Client::connect(cfg);
  if (!client.ok())
    throw std::runtime_error("connect: " + client.status().to_string());
  return Conn{std::move(client).value(), *pump};
}

void wait_readable(const std::vector<int>& fds, Clock::time_point until) {
  const auto left = until - Clock::now();
  if (left <= Clock::duration::zero()) return;
  std::vector<pollfd> p;
  for (const int fd : fds) p.push_back({fd, POLLIN, 0});
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  (void)::ppoll(p.data(), p.size(), &ts, nullptr);
}

std::string report_bytes(const hg::api::LatencyReport& r) {
  hg::net::Writer w;
  hg::net::encode_latency_report(r, &w);
  return w.take();
}

void OpenLoopStats::merge(const OpenLoopStats& o) {
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
  lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
  attempted += o.attempted;
  failed += o.failed;
  mismatched += o.mismatched;
}

ProbeStream::ProbeStream(Conn& conn, const ArchPool& pool, double rate_per_s,
                         std::uint64_t seed, Clock::time_point start)
    : conn_(conn), pool_(pool), mean_gap_us_(1e6 / rate_per_s), rng_(seed),
      next_due_(start) {
  next_arch_ = rng_.below(pool_.archs.size());
}

void ProbeStream::send_due() {
  Clock::time_point now = Clock::now();
  while (next_due_ <= now) {
    const std::size_t arch = next_arch_;
    hg::api::Result<std::uint64_t> id =
        conn_.client.send_predict_latency(pool_.archs[arch]);
    now = Clock::now();
    ++stats.attempted;
    stats.lag_ms.push_back(ms_between(next_due_, now));
    if (!id.ok()) {
      ++stats.failed;
    } else {
      outstanding_[id.value()] = {arch, next_due_};
    }
    // Exponential gap by inversion; 1 - u is in (0, 1].
    const double gap_us = -std::log(1.0 - rng_.uniform()) * mean_gap_us_;
    next_due_ += std::chrono::nanoseconds(
        static_cast<std::int64_t>(gap_us * 1e3));
    next_arch_ = rng_.below(pool_.archs.size());
  }
}

void ProbeStream::collect() {
  arrivals_.clear();
  if (!conn_.pump->pump(&arrivals_))
    throw std::runtime_error("predict connection closed by the server");
  for (const Arrival& a : arrivals_) {
    const auto it = outstanding_.find(a.id);
    if (it == outstanding_.end())
      throw std::runtime_error("reply for an unknown request id");
    hg::api::Result<hg::api::LatencyReport> r =
        conn_.client.wait_predict_latency(a.id);
    if (!r.ok()) {
      ++stats.failed;
    } else {
      stats.latency_ms.push_back(ms_between(it->second.due, a.at));
      if (report_bytes(r.value()) != report_bytes(pool_.ref[it->second.arch]))
        ++stats.mismatched;
    }
    outstanding_.erase(it);
  }
}

bool ProbeStream::drain(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(timeout_s * 1e6));
  while (!outstanding_.empty() && Clock::now() < deadline) {
    wait_readable({conn_.pump->fd()},
                  std::min(deadline, Clock::now() + std::chrono::milliseconds(10)));
    collect();
  }
  return outstanding_.empty();
}

bool run_open_loop(Conn& conn, const ArchPool& pool, double rate_per_s,
                   std::int64_t count, std::int64_t max_backlog,
                   std::uint64_t seed, OpenLoopStats* out) {
  ProbeStream s(conn, pool, rate_per_s, seed,
                Clock::now() + std::chrono::milliseconds(1));
  bool kept_up = true;
  while (s.sent() < count) {
    if (s.next_due() <= Clock::now()) {
      s.send_due();
    } else {
      wait_readable({conn.pump->fd()}, s.next_due());
    }
    s.collect();
    if (static_cast<std::int64_t>(s.outstanding()) > max_backlog) {
      kept_up = false;
      break;
    }
  }
  if (!s.drain(10.0)) throw std::runtime_error("replies never arrived");
  out->merge(s.stats);
  return kept_up;
}

}  // namespace perfbench
