// A fixed-size worker pool with a shared FIFO queue.
//
// The decision procedure is CPU-bound and embarrassingly parallel across
// problems (each classify() call builds its own transition system and
// monoid), so a simple lock-based queue is plenty: tasks are coarse
// (milliseconds to seconds each) and contention on the queue mutex is
// negligible. Exceptions thrown by a task are captured in its future.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace lclpath {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains everything: shutdown rejects new submissions, but the workers
  /// run every task already in the FIFO — in submission order relative to
  /// each worker's pulls — before joining. Every future obtained from
  /// submit() therefore resolves (value or exception); none is abandoned
  /// as a broken promise, even when an earlier task threw. Destruction
  /// blocks until the queue is empty, so cancel long-running tasks (e.g.
  /// via an ExecutionBudget) before dropping the pool if prompt shutdown
  /// matters.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a nullary callable; the returned future yields its result or
  /// rethrows its exception. Throws std::runtime_error after shutdown began.
  template <typename F>
  auto submit(F f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

/// Runs body(0), ..., body(count - 1) and returns once every call has
/// returned: on `pool` when it is non-null and count > 1, else inline in
/// index order. Either way the exception that propagates is the lowest
/// index's (on the pool, after every call has finished).
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t count, const Body& body) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::future<void>> done;
  done.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    done.push_back(pool->submit([&body, i] { body(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& call : done) {
    try {
      call.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace lclpath
