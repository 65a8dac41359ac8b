// Cooperative cancellation, deadlines and resource ceilings for the
// classification runtime.
//
// The deciders are total in theory but wildly variable in practice: a
// hostile problem can wedge the pairwise oracle for hours, and a
// long-running catalog service cannot afford a worker pinned forever.
// ExecutionBudget is the one mechanism every unbounded hot loop honors:
//
//   * a steady-clock deadline (optional),
//   * an atomic cancel flag any thread may set,
//   * an optional memory ceiling charged by the allocating loops,
//   * an optional parent budget, checked transitively — classify_batch
//     chains per-problem budget -> batch watchdog budget -> caller budget,
//     so one flag cancels a whole tree of workers.
//
// Instrumented loops call checkpoint() (via the budget_checkpoint helper,
// which accepts the ubiquitous nullable pointer). checkpoint() is
// amortized: a relaxed atomic tick plus a branch on the fast path, with
// the real clock read / flag walk only every kCheckpointStride ticks — so
// sprinkling it through per-element inner loops is free at benchmark
// resolution. A loop that finishes a batch of units at once charges them
// together with checkpoint(ticks): one atomic add for the whole batch, so
// workers that share a budget do not contend on its counter once per
// unit. When a limit trips, checkpoint() (and the unamortized
// check()) throw CancelledError carrying the tripped CancelReason; the
// batch layer maps reasons onto the BatchError taxonomy (kDeadline ->
// kTimeout, kCancelled -> kCancelled, kMemory -> kBudget).
//
// Budgets are passed as `const ExecutionBudget*` everywhere: the object
// is logically const to the loops that poll it (ticks, the memo of
// charged bytes and the cancel flag are atomics). cancel() is the only
// mutating entry point and is safe to call from any thread while workers
// poll. A null budget means "unbounded" and costs one pointer test per
// checkpoint site.
//
// With the LCLPATH_FAULT_INJECTION build option every checkpoint()
// additionally reports to the fault-injection harness
// (core/fault_injection.hpp), which can throw a scripted failure at the
// k-th checkpoint — the mechanism the sweep tests use to prove every exit
// path unwinds cleanly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lclpath {

#ifdef LCLPATH_FAULT_INJECTION
namespace fault {
/// Defined in core/fault_injection.cpp; may throw a scripted failure.
void on_checkpoint();
}  // namespace fault
#endif

/// Which limit tripped a cancellation.
enum class CancelReason : std::uint8_t {
  kDeadline,   ///< the steady-clock deadline passed
  kCancelled,  ///< cancel() was called (by a caller or a parent budget)
  kMemory,     ///< the charged bytes exceeded the memory ceiling
};

std::string to_string(CancelReason reason);

/// Thrown by ExecutionBudget::checkpoint()/check() when a limit trips.
/// The instrumented loops let it propagate untouched; classify_batch maps
/// reason() onto BatchErrorKind.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(CancelReason reason, const std::string& message)
      : std::runtime_error(message), reason_(reason) {}

  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

class ExecutionBudget {
 public:
  using Clock = std::chrono::steady_clock;

  /// Real limit checks happen every this many checkpoint() ticks.
  static constexpr std::uint32_t kCheckpointStride = 4096;

  ExecutionBudget() = default;
  /// Budgets are polled by address from many threads; they never move.
  ExecutionBudget(const ExecutionBudget&) = delete;
  ExecutionBudget& operator=(const ExecutionBudget&) = delete;

  /// Absolute steady-clock deadline. Call before handing the budget to
  /// workers (not synchronized against concurrent checkpoints).
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  /// Convenience: now + timeout.
  void set_timeout(std::chrono::milliseconds timeout) {
    set_deadline(Clock::now() + timeout);
  }
  /// Memory ceiling in bytes for charge_memory(); 0 = unlimited. Set
  /// before handing the budget to workers.
  void set_memory_limit(std::size_t bytes) { memory_limit_ = bytes; }
  /// Chains this budget under `parent`: check() fails when any ancestor's
  /// limit trips, with the ancestor's reason. Set before handing the
  /// budget to workers; the parent must outlive this budget.
  void set_parent(const ExecutionBudget* parent) { parent_ = parent; }

  /// Requests cancellation; safe from any thread, idempotent. Workers
  /// observe it at their next slow-path checkpoint.
  void cancel() { cancel_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const { return cancel_.load(std::memory_order_relaxed); }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// Bytes charged so far via charge_memory().
  std::size_t memory_charged() const {
    return memory_charged_.load(std::memory_order_relaxed);
  }

  /// Full limit check (cancel flag, deadline, parent chain); throws
  /// CancelledError on the first tripped limit. Use at task entry and at
  /// natural phase boundaries; hot loops use checkpoint() instead.
  void check() const;

  /// Amortized check for hot loops. Charges `ticks` units of work with
  /// one relaxed fetch_add and runs the real check() when the charged
  /// tick range [before, before + ticks) contains a multiple of
  /// kCheckpointStride, so one check per stride ticks however they are
  /// batched: checkpoint() ticks once and checks every kCheckpointStride
  /// calls; a charge of kCheckpointStride or more ticks always checks.
  /// Thread-safe (workers sharing one budget contend only on the tick
  /// counter, once per call).
  void checkpoint(std::uint32_t ticks = 1) const {
#ifdef LCLPATH_FAULT_INJECTION
    fault::on_checkpoint();
#endif
    const std::uint32_t phase =
        ticks_.fetch_add(ticks, std::memory_order_relaxed) % kCheckpointStride;
    if (phase != 0 && std::uint64_t{phase} + ticks <= kCheckpointStride) return;
    check();
  }

  /// Accounts `bytes` against the memory ceiling; throws
  /// CancelledError{kMemory} once the total exceeds it. Charged totals
  /// are cumulative for the budget's lifetime (budgets are per-run).
  void charge_memory(std::size_t bytes) const;

 private:
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::size_t memory_limit_ = 0;
  const ExecutionBudget* parent_ = nullptr;
  std::atomic<bool> cancel_{false};
  mutable std::atomic<std::uint32_t> ticks_{0};
  mutable std::atomic<std::size_t> memory_charged_{0};
};

/// The checkpoint idiom for the nullable budget pointers every
/// instrumented API carries: free when no budget is attached.
inline void budget_checkpoint(const ExecutionBudget* budget, std::uint32_t ticks = 1) {
  if (budget != nullptr) budget->checkpoint(ticks);
}

/// check() through a nullable pointer (task entry, phase boundaries).
inline void budget_check(const ExecutionBudget* budget) {
  if (budget != nullptr) budget->check();
}

/// charge_memory() through a nullable pointer.
inline void budget_charge_memory(const ExecutionBudget* budget, std::size_t bytes) {
  if (budget != nullptr) budget->charge_memory(bytes);
}

}  // namespace lclpath
