//===- trace/BudgetController.h - When to spend the budget ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's bound says how much compaction budget a c-partial manager
/// *has* (s/c words); a BudgetController decides *when* to spend it. The
/// controller sits between the manager's policy code and the ledger as a
/// spend gate (MemoryManager::setSpendGate): each tryMoveObject consults
/// it, and a denial makes the move fail exactly as an exhausted ledger
/// would, so every manager's budget-denied fallback path already handles
/// it. Managers whose compaction transactions pre-check the ledger and
/// then assume every move succeeds additionally consult the gate at
/// transaction start (MemoryManager::spendApproved): the gate is
/// constant within an execution step — observations happen only at step
/// boundaries — so approval there funds the whole transaction.
/// Observation is a pure function of HeapStats samples — never of
/// profiler state or the wall clock — so gated runs stay deterministic.
///
/// Three policies:
///
///   fixed        always allow — the managers' built-in triggers decide
///                alone, byte-identical to pre-controller behaviour.
///
///   periodic     allow only on every Period-th step; a time-sliced
///                "compact on schedule" baseline.
///
///   membalancer  the square-root rule of Kirisame et al., "Optimal Heap
///                Limits for Reducing Browser Memory Use": the optimal
///                heap slack of a program with live size L, live-size
///                growth rate g, and collection speed s is
///                E* = sqrt(c1 * L * g / s). Mapped to this model: slack
///                is footprint minus live words, g is a deterministic
///                EWMA of the live-size derivative, and 1/s is the mean
///                words moved per compaction transaction. While actual
///                slack is below E* the controller denies — fragmentation
///                is still within the optimal limit and moving now would
///                burn budget the growth rate says we will want later;
///                past E* it grants.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TRACE_BUDGETCONTROLLER_H
#define PCBOUND_TRACE_BUDGETCONTROLLER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pcb {

class Execution;
class Heap;
class MemoryManager;

/// One deterministic observation of the heap, fed to observe() after
/// every step (and once before the first).
struct BudgetSample {
  uint64_t Step = 0;
  uint64_t LiveWords = 0;
  uint64_t FootprintWords = 0; ///< HighWaterMark — HS so far
  uint64_t AllocatedWords = 0;
  uint64_t MovedWords = 0;
  uint64_t NumMoves = 0;
};

/// The sample describing \p H after step \p Step.
BudgetSample sampleFromHeap(const Heap &H, uint64_t Step);

/// Decides whether the manager may spend compaction budget right now.
class BudgetController {
public:
  virtual ~BudgetController();

  /// Factory name of the policy, e.g. "membalancer".
  virtual std::string name() const = 0;

  /// Feeds one heap observation; called after every execution step.
  virtual void observe(const BudgetSample &S) = 0;

  /// The decision as of the last observation. Pure.
  virtual bool allowSpend() const = 0;

  /// allowSpend() plus grant/denial accounting — what the spend gate
  /// calls, once per attempted move.
  bool consult();

  uint64_t grants() const { return NumGrants; }
  uint64_t denials() const { return NumDenials; }

private:
  uint64_t NumGrants = 0;
  uint64_t NumDenials = 0;
};

/// "fixed": always allow; the manager's own trigger is the only policy.
class FixedTriggerController : public BudgetController {
public:
  std::string name() const override { return "fixed"; }
  void observe(const BudgetSample &S) override { (void)S; }
  bool allowSpend() const override { return true; }
};

/// "periodic": allow only on steps congruent to 0 mod Period.
class PeriodicController : public BudgetController {
public:
  explicit PeriodicController(uint64_t Period)
      : Period(Period == 0 ? 1 : Period) {}

  std::string name() const override { return "periodic"; }
  void observe(const BudgetSample &S) override { Step = S.Step; }
  bool allowSpend() const override { return Step % Period == 0; }

private:
  uint64_t Period;
  uint64_t Step = 0;
};

/// "membalancer": the square-root rule; see the file comment.
class MemBalancerController : public BudgetController {
public:
  struct Options {
    /// The rule's tuning constant c1.
    double C1 = 1.0;
    /// EWMA weight of the newest live-growth sample.
    double Smoothing = 0.25;
  };

  MemBalancerController() = default;
  explicit MemBalancerController(const Options &O) : Opts(O) {}

  std::string name() const override { return "membalancer"; }
  void observe(const BudgetSample &S) override;
  bool allowSpend() const override;

  /// The current E* = max(64, sqrt(c1 * L * g / cost)).
  double slackTargetWords() const;
  double growthEwma() const { return Growth; }

private:
  Options Opts;
  bool HavePrev = false;
  uint64_t PrevLive = 0;
  uint64_t PrevStep = 0;
  double Growth = 0.0;    ///< EWMA of max(0, dLive/dStep)
  double MoveCost = 1.0;  ///< mean words per compaction transaction
  uint64_t Live = 0;
  uint64_t Slack = 0;     ///< footprint - live
};

/// Everything needed to build a controller, CLI- and config-friendly.
struct ControllerSpec {
  std::string Name = "fixed";
  uint64_t Period = 16;     ///< periodic
  double C1 = 1.0;          ///< membalancer
  double Smoothing = 0.25;  ///< membalancer
};

/// Every controller name, in the factory's canonical order.
const std::vector<std::string> &allControllerNames();

/// Builds the controller \p Spec names; asserts on an unknown name.
std::unique_ptr<BudgetController> createController(const ControllerSpec &Spec);

/// createController, but an unknown name returns nullptr and sets
/// \p Error to a message listing the valid names.
std::unique_ptr<BudgetController>
createControllerChecked(const ControllerSpec &Spec, std::string *Error);

/// Wires \p C into a run: installs the spend gate on \p MM, feeds the
/// pre-run sample, and registers a step observer on \p E so every step's
/// HeapStats reach the controller. \p C must outlive the execution.
void attachController(Execution &E, MemoryManager &MM, BudgetController &C);

} // namespace pcb

#endif // PCBOUND_TRACE_BUDGETCONTROLLER_H
