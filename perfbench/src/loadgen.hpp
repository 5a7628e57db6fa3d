// loadgen.hpp — the benchmark's open-loop load generator.
//
// One generator thread drives one or more net::Client connections. A due
// send is never held up by a reply: replies are pulled off each socket
// without blocking (PumpTransport, a pass-through Transport installed via
// ClientConfig::wrap_transport), and the client is asked for a reply
// (wait_*) only once its whole frame has arrived, so wait_* never blocks.
//
// Latency of an open-loop request is measured from its DUE time (the
// Poisson schedule) to the arrival of its reply frame, so a late generator
// or a server backlog both show up in it; the generator's own lateness
// (send time - due time) is reported separately as the lag.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "net/client.hpp"
#include "net/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: the benchmark's only random source (schedules, pool picks).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

/// A reply frame that has fully arrived on a connection.
struct Arrival {
  std::uint64_t id = 0;
  Clock::time_point at;
};

/// Pass-through transport that can drain the socket without blocking.
class PumpTransport final : public hg::net::Transport {
 public:
  explicit PumpTransport(std::unique_ptr<hg::net::Transport> inner)
      : inner_(std::move(inner)) {}

  ssize_t send(const char* data, std::size_t len) override {
    return inner_->send(data, len);
  }
  ssize_t sendv(const struct iovec* iov, int iovcnt) override {
    return inner_->sendv(iov, iovcnt);
  }
  /// Serves pumped bytes first; falls through to a blocking read only
  /// when nothing is buffered (the blocking verbs).
  ssize_t recv(char* buf, std::size_t len) override;
  void shutdown_write() override { inner_->shutdown_write(); }
  int fd() const override { return inner_->fd(); }

  /// Moves whatever the socket holds into the buffer and appends every
  /// reply frame it completes to `arrived`. False on EOF or a socket error
  /// or an unframeable stream.
  bool pump(std::vector<Arrival>* arrived);

 private:
  std::unique_ptr<hg::net::Transport> inner_;
  std::string unread_;     // pumped bytes the client has not read yet
  std::string scan_;       // pumped bytes not yet split into frames
  std::size_t scan_off_ = 0;
};

/// One client connection with its pump.
struct Conn {
  hg::net::Client client;
  PumpTransport* pump = nullptr;  // owned by client
};
Conn connect(std::uint16_t port);

/// Blocks until one of `fds` is readable or `until` passes.
void wait_readable(const std::vector<int>& fds, Clock::time_point until);

/// Distinct architectures and their in-process reference answers.
struct ArchPool {
  std::vector<hg::api::Arch> archs;
  std::vector<hg::api::LatencyReport> ref;  // Engine::predict_batch(archs)
};

/// Wire bytes of a latency report (the byte-equality check).
std::string report_bytes(const hg::api::LatencyReport& r);

struct OpenLoopStats {
  std::vector<double> latency_ms;  // due time -> reply arrival
  std::vector<double> lag_ms;      // due time -> send
  std::int64_t attempted = 0;
  std::int64_t failed = 0;      // error replies (refusals included)
  std::int64_t mismatched = 0;  // OK replies that differ from the reference
  void merge(const OpenLoopStats& o);
};

/// Poisson stream of single predict_latency requests on one connection.
class ProbeStream {
 public:
  ProbeStream(Conn& conn, const ArchPool& pool, double rate_per_s,
              std::uint64_t seed, Clock::time_point start);

  Clock::time_point next_due() const { return next_due_; }
  /// Sends every request due by now.
  void send_due();
  /// Pumps the socket and records every reply that has fully arrived.
  void collect();
  std::size_t outstanding() const { return outstanding_.size(); }
  std::int64_t sent() const { return stats.attempted; }
  /// Waits (bounded) for every outstanding reply; false if some never came.
  bool drain(double timeout_s);

  OpenLoopStats stats;

 private:
  struct InFlight {
    std::size_t arch = 0;
    Clock::time_point due;
  };
  Conn& conn_;
  const ArchPool& pool_;
  double mean_gap_us_;
  SplitMix rng_;
  Clock::time_point next_due_;
  std::size_t next_arch_ = 0;
  std::map<std::uint64_t, InFlight> outstanding_;
  std::vector<Arrival> arrivals_;
};

/// `count` requests at `rate_per_s`; stops sending early (returns false)
/// once more than `max_backlog` requests are outstanding.
bool run_open_loop(Conn& conn, const ArchPool& pool, double rate_per_s,
                   std::int64_t count, std::int64_t max_backlog,
                   std::uint64_t seed, OpenLoopStats* out);

}  // namespace perfbench
