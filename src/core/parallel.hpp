// parallel.hpp — the parallel execution backbone: a lazily-initialised
// global thread pool plus deterministic chunked loops.
//
// Design rules (every kernel in tensor/, gnn/, graph/ and the concurrent
// candidate evaluation in hgnas/ builds on them):
//
//  * Determinism is partition-invariance, not scheduling. `parallel_for`
//    splits [begin, end) into chunks computed only from (range, grain,
//    thread count); which worker executes which chunk is irrelevant because
//    every kernel keeps the per-output-element arithmetic order identical
//    to the serial loop. Consequently results are bit-for-bit identical for
//    ANY thread count, including 1.
//  * `set_num_threads(1)` short-circuits every parallel_for into a plain
//    inline call of the serial body, with zero synchronisation overhead.
//    The width selects no other code path: every module computes the same
//    result at every width, 1 included.
//  * Nested parallel_for calls run inline on the calling worker (no
//    deadlock, no oversubscription): the outer level owns the pool.
//  * Exceptions thrown inside a chunk are captured and rethrown on the
//    calling thread after the loop completes.
//
// Configure through hg::api::EngineConfig::num_threads (0 = hardware
// concurrency) or directly via set_num_threads().
#pragma once

#include <cstdint>
#include <functional>

namespace hg::core {

/// Number of hardware threads (>= 1 even when the runtime reports 0).
std::int64_t hardware_threads();

/// Current pool width (>= 1). Before any set_num_threads() call this is
/// hardware_threads().
std::int64_t num_threads();

/// Resize the pool. n == 0 selects hardware concurrency; n == 1 disables
/// the pool entirely (loops run inline). Must not be called from inside a
/// parallel region. Idempotent when the width is unchanged.
void set_num_threads(std::int64_t n);

/// RAII thread-count override (tests, benches).
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(std::int64_t n)
      : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ScopedNumThreads() { set_num_threads(prev_); }
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  std::int64_t prev_;
};

/// True while the current thread is executing a parallel_for chunk (used to
/// run nested loops inline).
bool in_parallel_region();

namespace detail {

/// The pooled case of parallel_for: forks [begin, end) across the pool.
/// Precondition: the range is wider than `grain` (>= 1).
void run_pooled(std::int64_t begin, std::int64_t end, std::int64_t grain,
                const std::function<void(std::int64_t, std::int64_t)>& fn);

}  // namespace detail

/// Chunked parallel loop over [begin, end). `fn(chunk_begin, chunk_end)` is
/// invoked for contiguous, non-overlapping, covering chunks of at least
/// `grain` iterations (except possibly the last). Runs inline serially when
/// the range is at most `grain`, the pool width is 1, or called from inside
/// another parallel region — those cases call `fn` directly; only the
/// pooled case boxes it into a std::function.
template <class Fn>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Fn&& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  if (end - begin <= grain || num_threads() == 1 || in_parallel_region()) {
    fn(begin, end);
    return;
  }
  detail::run_pooled(begin, end, grain,
                     std::function<void(std::int64_t, std::int64_t)>(
                         std::ref(fn)));
}

/// `n` independent coarse tasks: fn(i) for i in [0, n). Tasks are claimed
/// dynamically (they may have very different costs — e.g. NAS candidate
/// evaluations); callers must not depend on execution order.
void parallel_invoke(std::int64_t n,
                     const std::function<void(std::int64_t)>& fn);

}  // namespace hg::core
