// The closed loop every workload runs: `clients` threads, each sending its
// next operation only after the previous one completed.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "bench.hpp"

namespace pipebench {

struct LoopSpec {
  std::size_t clients = 1;
  double seconds = 1;
  const Plan* replay = nullptr;              ///< run exactly this plan instead of timing
  std::vector<ThreadTrace>* traces = nullptr;  ///< one per client, or null
  /// A timed loop stops only at a multiple of this many ops, so every run
  /// measures whole rounds over a fixed input set.
  std::size_t round = 1;
};

/// One operation: `op` is its number, claimed by the client from a cursor
/// all clients share, and picks the input. Returns false when it failed (an
/// exception or a missed deadline); the latency is measured around the call.
using OpFn = std::function<bool(std::size_t client, std::size_t op, ThreadTrace* trace)>;

/// Runs the loop and returns latencies, wall times and the plan completed.
/// LoopResult::work is left for the caller to fill in.
LoopResult closed_loop(const LoopSpec& spec, const OpFn& op);

/// Runs fn(i) for i in [0, n) on up to `threads` threads; rethrows the
/// first exception after every thread has been joined.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace pipebench
