//===- fuzz/InvariantOracle.h - Per-step invariant checking -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adversarial witness the fuzzer runs alongside every execution.
/// Where the Execution driver *asserts* its invariants (dying on breach),
/// the oracle *reports* them as Violation records, so the differential
/// harness can keep running, collect every failure, and hand the schedule
/// to the shrinker.
///
/// Checked after every step (cheap, O(1)):
///   * footprint >= live words (the heap never under-reports its size),
///   * the footprint (high-water mark) never shrinks,
///   * the c-partial ledger holds at the endpoint,
///   * overhead-ratio — cumulative moved words stay within the
///     manager's declared overheadBound() multiple of allocated words
///     (finite for c-partial managers and the reallocation family).
///
/// Checked every DeepCheckEvery steps and at the end (O(objects + new
/// events)):
///   * Heap::checkConsistency — live objects disjoint, free index the
///     exact complement, statistics match a recount,
///   * the audit of the recorded event stream reproduces the heap's
///     statistics exactly (the independent-witness property),
///   * the budget history — the c-partial constraint held on *every*
///     prefix of the execution, not merely at the end,
///   * ledger-reconcile / overhead-history — for reallocation managers,
///     the ReallocationLedger's own counters must equal the heap's
///     cumulative move/allocation statistics end-to-end, and its
///     worst-prefix ratio must respect the bound.
///
/// The audit and the budget history are one EventAuditor, bound to the
/// ledger's quota denominator, and a cursor into the log: each deep check
/// folds only the events recorded since the previous one. The fold has
/// no look-ahead and sticky failure flags, so its verdict is that of
/// auditEvents/auditBudgetHistory over the whole log, at O(new events)
/// per check instead of O(history). The log must only grow.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_FUZZ_INVARIANTORACLE_H
#define PCBOUND_FUZZ_INVARIANTORACLE_H

#include "driver/Auditors.h"
#include "driver/EventLog.h"
#include "mm/MemoryManager.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pcb {

/// One invariant breach found by the oracle.
struct Violation {
  /// Short check identifier, e.g. "audit-mismatch", "structural".
  std::string Check;
  /// Manager policy under which the breach occurred.
  std::string Policy;
  /// Step at which the breach was detected.
  uint64_t Step = 0;
  /// Human-readable diagnosis.
  std::string Detail;

  std::string describe() const;
};

/// Violations collected per policy run or per arena at most: a broken
/// substrate would otherwise report one per step.
inline constexpr size_t MaxViolationsPerRun = 16;

/// Re-checks heap/manager/event-log agreement during an execution.
class InvariantOracle {
public:
  struct Options {
    /// Run the deep (audit-replay + structural) checks every this-many
    /// steps; the final check is always deep. 0 means endpoint-only.
    uint64_t DeepCheckEvery = 64;
  };

  InvariantOracle(const Heap &H, const MemoryManager &MM,
                  const EventLog &Log);
  InvariantOracle(const Heap &H, const MemoryManager &MM,
                  const EventLog &Log, Options O);

  /// Invoked after every execution step; appends any violations to
  /// \p Out and returns how many were added. Runs the deep checks when
  /// the step count hits the DeepCheckEvery cadence.
  size_t checkStep(uint64_t Step, std::vector<Violation> &Out);

  /// The full deep check (structural + audit replay + budget history).
  size_t checkDeep(uint64_t Step, std::vector<Violation> &Out);

private:
  size_t checkCheap(uint64_t Step, std::vector<Violation> &Out);
  Violation make(const std::string &Check, uint64_t Step,
                 const std::string &Detail) const;

  const Heap &H;
  const MemoryManager &MM;
  const EventLog &Log;
  Options Opts;
  uint64_t LastHighWaterMark = 0;
  EventAuditor Audit;
  /// Events of Log already folded into Audit.
  size_t Folded = 0;
};

} // namespace pcb

#endif // PCBOUND_FUZZ_INVARIANTORACLE_H
