// ThreadPool: fixed-size worker pool with a deterministic static parallel_for.
//
// The pool exists for batched inference: a batch of independent samples is
// split into contiguous chunks, one per worker, and every chunk is processed
// by exactly one thread. Chunk boundaries depend only on (range, worker
// count), never on scheduling, so any per-index output written into
// pre-sized slots is bit-identical across runs and across thread counts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cdl {

class ThreadPool {
 public:
  /// Worker body for one chunk: fn(worker_index, chunk_begin, chunk_end).
  using ChunkFn =
      std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1). Requests above the hardware thread count are clamped to
  /// it (oversubscribing a fork/join pool only adds contention); size()
  /// reports the effective count. A pool of size 1 spawns no OS threads at
  /// all: every parallel_for runs inline on the caller. Returns once every
  /// worker has finished starting up.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Runs `fn` over [begin, end) split into size() contiguous chunks of
  /// near-equal length (first `total % size()` chunks get one extra item);
  /// worker w receives chunk w. Blocks until every chunk finished. The
  /// first exception thrown by any chunk is rethrown here; the pool stays
  /// usable afterwards. Concurrent calls from different threads are
  /// serialized. Empty ranges return immediately.
  void parallel_for(std::size_t begin, std::size_t end, const ChunkFn& fn);

  /// Chunk [begin, end) assigned to `worker` for a range of `total` items
  /// starting at `range_begin` (exposed for tests and cost models).
  [[nodiscard]] std::pair<std::size_t, std::size_t> chunk(
      std::size_t worker, std::size_t range_begin, std::size_t range_end) const;

 private:
  void worker_loop(std::size_t worker);

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::mutex submit_mutex_;  ///< serializes parallel_for callers

  // Job state, guarded by mutex_. `generation` bumps once per parallel_for;
  // each worker runs its chunk of the current job exactly once.
  const ChunkFn* job_ = nullptr;
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  std::size_t started_ = 0;  ///< workers through start-up (constructor waits)
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace cdl
