#include "loop.hpp"

#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

namespace pipebench {

namespace {

constexpr std::size_t kReservedSamples = 1u << 22;

/// Starts one thread per index, joins them all, then rethrows the first
/// exception any of them raised.
void run_threads(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::mutex error_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      try {
        body(t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

LoopResult closed_loop(const LoopSpec& spec, const OpFn& op) {
  const std::size_t clients = spec.clients == 0 ? 1 : spec.clients;
  const std::size_t round = spec.round == 0 ? 1 : spec.round;
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::uint64_t> failed(clients, 0);
  std::vector<std::size_t> done(clients, 0);
  std::vector<double> client_wall(clients, 0);
  std::atomic<std::size_t> cursor{0};
  const std::size_t limit =
      spec.replay != nullptr ? spec.replay->ops : std::numeric_limits<std::size_t>::max();

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.seconds));
  run_threads(clients, [&](std::size_t c) {
    ThreadTrace* trace = spec.traces != nullptr ? &(*spec.traces)[c] : nullptr;
    // Reserved up front so no reallocation copies (and transiently doubles)
    // the samples mid-run; untouched pages cost no memory.
    latencies[c].reserve(kReservedSamples);
    const Clock::time_point client_start = Clock::now();
    for (;;) {
      // Every claimed op runs, so a timed loop completes a prefix of the
      // numbering, which is what a replay repeats.
      if (spec.replay == nullptr && Clock::now() >= deadline &&
          cursor.load(std::memory_order_relaxed) % round == 0) {
        break;
      }
      const std::size_t index = cursor.fetch_add(1, std::memory_order_relaxed);
      if (index >= limit) break;
      if (trace != nullptr) trace->set_request(index);
      const Clock::time_point t0 = Clock::now();
      const bool ok = op(c, index, trace);
      latencies[c].push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (!ok) ++failed[c];
      ++done[c];
    }
    client_wall[c] = seconds_between(client_start, Clock::now());
  });

  LoopResult result;
  result.wall_s = seconds_between(start, Clock::now());
  result.client_wall_s = client_wall;
  for (std::size_t c = 0; c < clients; ++c) {
    result.attempted += done[c];
    result.plan.ops += done[c];
    result.failed += failed[c];
    result.latency_ms.insert(result.latency_ms.end(), latencies[c].begin(),
                             latencies[c].end());
  }
  return result;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  run_threads(threads == 0 ? 1 : threads, [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  });
}

}  // namespace pipebench
