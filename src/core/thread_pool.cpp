#include "core/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/layer_profile.h"
#include "obs/trace.h"

namespace cdl {

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t hw = std::thread::hardware_concurrency();
  if (threads == 0) {
    threads = std::max<std::size_t>(1, hw);
  } else if (hw > 0) {
    // Cap at the hardware thread count: the pool is a fork/join pool whose
    // workers all run the whole job, so oversubscribing cores only adds
    // context-switch and barrier contention (measured as parallel speedups
    // below 1.0 on machines with fewer cores than the requested size).
    // hw == 0 means "unknown" — keep the caller's request in that case.
    threads = std::min(threads, hw);
  }
  size_ = threads;
  if (size_ <= 1) return;  // inline mode: no OS threads
  workers_.reserve(size_);
  for (std::size_t w = 0; w < size_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  // Return only once every worker is through its start-up (naming its trace
  // buffer allocates), so none of it lands in a caller's later work.
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return started_ == size_; });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk(
    std::size_t worker, std::size_t range_begin, std::size_t range_end) const {
  const std::size_t total = range_end - range_begin;
  const std::size_t base = total / size_;
  const std::size_t extra = total % size_;
  // Workers [0, extra) take base+1 items, the rest take base.
  const std::size_t begin = range_begin + worker * base +
                            std::min(worker, extra);
  const std::size_t len = base + (worker < extra ? 1 : 0);
  return {begin, begin + len};
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const ChunkFn& fn) {
  if (begin >= end) return;
  if (size_ <= 1) {
    fn(0, begin, end);
    return;
  }
  CDL_TRACE_SPAN(span, "parallel_for", static_cast<std::int32_t>(end - begin));
  const bool profiling = obs::LayerProfiler::enabled();
  const std::uint64_t prof_t0 = profiling ? obs::now_ns() : 0;
  const std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    job_begin_ = begin;
    job_end_ = end;
    pending_ = size_;
    first_error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
  if (profiling) {
    // Dispatch + work + join barrier, as seen by the submitting thread: the
    // fork/join floor the attribution profiler reports per run.
    obs::LayerProfiler::instance().record_parallel_for(end - begin,
                                                       obs::now_ns() - prof_t0);
  }
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::worker_loop(std::size_t worker) {
#ifndef CDL_TRACE_DISABLED
  // Name the worker's trace buffer up front; the ring itself is allocated
  // lazily on the first recorded event, so this is cheap when tracing is off.
  obs::Tracer::instance().set_thread_name("cdl-worker-" +
                                          std::to_string(worker));
#endif
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (++started_ == size_) done_cv_.notify_all();
  }
  std::uint64_t seen = 0;
  for (;;) {
    const ChunkFn* job = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      begin = job_begin_;
      end = job_end_;
    }
    const auto [c0, c1] = chunk(worker, begin, end);
    std::exception_ptr error;
    if (c0 < c1) {
      CDL_TRACE_SPAN(span, "chunk", static_cast<std::int32_t>(worker));
      try {
        (*job)(worker, c0, c1);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace cdl
