// Traced calls shared by the workloads and the traced set-up's probe.
#pragma once

#include <string>

#include "core/cancel.hpp"
#include "lcl/catalog.hpp"
#include "trace.hpp"

namespace pipebench {

/// classify()'s public steps, in its order, each under its own span. The
/// transition and monoid spans stay open until their object is destroyed,
/// so freeing it counts as that layer's time; the later steps are their
/// children. decide_linear_gap runs exactly when the result is not
/// kUnsolvable.
lclpath::ComplexityClass replay_classify(const lclpath::PairwiseProblem& problem,
                                         const lclpath::ExecutionBudget& budget,
                                         ThreadTrace* trace);

/// Sends one small catalog problem (3-coloring on a directed cycle) once
/// through every call a traced run times, from parse to a store lookup in
/// a scratch directory under `workdir` (removed again). A traced run does
/// this in its set-up, so every per-layer metric is a measured number
/// whichever layers the workload itself exercises. Returns a description
/// of the first wrong output, or an empty string.
std::string probe_every_layer(ThreadTrace* trace, const std::string& workdir);

}  // namespace pipebench
