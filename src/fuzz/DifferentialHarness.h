//===- fuzz/DifferentialHarness.h - Cross-policy fuzz execution -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one fuzz schedule through every manager policy and cross-checks
/// the results. Per policy, an InvariantOracle re-validates the heap and
/// the recorded event stream after every step. Across policies, the
/// program behaviour must be manager-independent: every run must report
/// identical allocation totals, free counts, live and peak-live words —
/// only the footprint (and moves) may differ. Policy-relative checks:
/// non-moving managers must never move, and the designated replay-check
/// policy must reproduce byte-identical statistics when run twice
/// (placement policies are deterministic functions of the schedule).
///
/// On failure the harness shrinks the schedule with delta debugging
/// (chunked op removal at halving granularity, then per-op removal, then
/// allocation-size halving) and can serialize the minimal failing run as
/// a TraceIO reproducer that `pcbound replay` re-executes.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_FUZZ_DIFFERENTIALHARNESS_H
#define PCBOUND_FUZZ_DIFFERENTIALHARNESS_H

#include "driver/EventLog.h"
#include "fuzz/InvariantOracle.h"
#include "fuzz/WorkloadFuzzer.h"
#include "trace/BudgetController.h"

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace pcb {

class Execution;

/// Outcome of one policy's execution of a schedule.
struct PolicyRunResult {
  std::string Policy;
  /// The effective compaction quota denominator (policies such as
  /// sliding-unlimited override the harness-wide C).
  double QuotaC = 0.0;
  HeapStats Stats;
  EventLog Log;
  std::vector<Violation> Violations;

  bool clean() const { return Violations.empty(); }
};

/// Everything one differential run produced.
struct DifferentialReport {
  std::vector<PolicyRunResult> Runs;
  /// Violations of cross-policy agreement (not attributable to a single
  /// run's oracle).
  std::vector<Violation> Cross;

  bool clean() const;
  /// Per-run and cross-policy violations, concatenated.
  std::vector<Violation> allViolations() const;
  /// The first run with violations, or nullptr when only cross-policy
  /// checks failed (or none did).
  const PolicyRunResult *firstFailing() const;
  /// One line per violation, for logs and test output.
  std::string summary() const;
};

/// Cross-policy execution of fuzz schedules, with minimization.
class DifferentialHarness {
public:
  struct Options {
    /// Policies to run; defaults to the whole factory family.
    std::vector<std::string> Policies;
    /// Compaction quota denominator handed to every manager.
    double C = 50.0;
    /// Budget controller gating every run's compaction spend (each run
    /// gets a private instance built from this spec). The default fixed
    /// trigger is byte-identical to an ungated run, so existing fuzz
    /// corpora keep their meaning; the cross-policy agreement invariants
    /// must hold under every controller.
    ControllerSpec Controller;
    /// Deep-check cadence of the per-run oracle.
    uint64_t DeepCheckEvery = 64;
    /// Policy run twice per schedule to confirm replay determinism;
    /// empty (or absent from Policies) disables the check.
    std::string ReplayCheckPolicy = "first-fit";
    /// Fault-injection port for the tests: invoked for every heap event
    /// before it is logged, may mutate the event, returns false to drop
    /// it. Corrupting the log this way must be caught by the oracle's
    /// audit checks — that is the planted-bug experiment.
    std::function<bool(HeapEvent &)> LogTap;
    /// Stop collecting per-run violations beyond this many (a broken
    /// substrate would otherwise report one per step).
    size_t MaxViolationsPerRun = 16;
    /// Cross-check the live bitboard heap against the naive
    /// ReferenceHeap on every step — free blocks, placement
    /// queries, object table, statistics, and occupancy/start masks (the
    /// 14th, policy-invisible checker: the managers never see the
    /// reference heap).
    bool HeapParity = true;
    /// Observation port: invoked with each per-policy Execution right
    /// after construction, before any step runs. Lets callers attach
    /// step observers (e.g. a TimelineSampler recording the heap state
    /// of a failing schedule) without the harness depending on the
    /// observability layer.
    std::function<void(Execution &, const std::string &Policy)> OnExecution;
  };

  DifferentialHarness();
  explicit DifferentialHarness(Options O);

  const Options &options() const { return Opts; }

  /// Runs \p S through every configured policy.
  DifferentialReport run(const FuzzSchedule &S) const;

  /// Delta-debugging minimization of a failing schedule: the smallest
  /// schedule found on which \p Fails still returns true. \p Fails must
  /// hold for \p S itself (asserted).
  FuzzSchedule
  shrink(const FuzzSchedule &S,
         const std::function<bool(const FuzzSchedule &)> &Fails) const;

  /// shrink() with the default predicate !run(S).clean().
  FuzzSchedule shrink(const FuzzSchedule &S) const;

  /// Serializes \p Failing (a run produced by run() on \p S) as a
  /// replayable reproducer: a `# pcbound-fuzz-repro` header naming the
  /// policy, quota, seed and pattern, followed by the recorded event
  /// trace in TraceIO format.
  static void writeReproducer(std::ostream &OS, const FuzzSchedule &S,
                              const PolicyRunResult &Failing);

private:
  PolicyRunResult runPolicy(const std::string &Policy,
                            const std::vector<TraceOp> &Trace,
                            uint64_t M) const;

  Options Opts;
};

} // namespace pcb

#endif // PCBOUND_FUZZ_DIFFERENTIALHARNESS_H
