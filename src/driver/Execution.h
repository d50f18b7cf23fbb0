//===- driver/Execution.h - Program/manager execution engine ----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a Program against a MemoryManager over a shared Heap, mediating
/// the de-allocate / compact / allocate sub-interactions of Section 2.1:
/// program requests flow through the driver (which enforces the live
/// bound M), compaction notifications flow back from the manager to the
/// program, and after every step the driver validates the model's
/// invariants — the c-partial budget (the manager never moves more than
/// 1/c of the allocated space) and the program's live bound.
///
/// \par Thread compatibility
/// Execution is thread-compatible: neither it nor the Program / Memory-
/// Manager / Heap stack it drives keeps global or static mutable state,
/// so independent executions (each with a private Heap, manager, and
/// program instance) may run concurrently on distinct threads. This is
/// the contract the experiment runner (src/runner/) relies on; one
/// Execution instance is not safe to share across threads.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_DRIVER_EXECUTION_H
#define PCBOUND_DRIVER_EXECUTION_H

#include "adversary/Program.h"
#include "driver/EventLog.h"
#include "mm/MemoryManager.h"

#include <functional>
#include <vector>

namespace pcb {

/// Summary of one completed execution.
struct ExecutionResult {
  /// HS(A, P): the heap footprint the manager needed, in words.
  uint64_t HeapSize = 0;
  uint64_t PeakLiveWords = 0;
  uint64_t TotalAllocatedWords = 0;
  uint64_t MovedWords = 0;
  uint64_t Steps = 0;
  uint64_t NumAllocations = 0;
  uint64_t NumFrees = 0;
  uint64_t NumMoves = 0;

  /// HS as a multiple of the live bound \p M — the figures' y axis.
  double wasteFactor(uint64_t M) const {
    return M == 0 ? 0.0 : double(HeapSize) / double(M);
  }

  /// Moved words per allocated word — the reallocation family's cost
  /// measure (0 before anything was allocated).
  double overheadRatio() const {
    return TotalAllocatedWords == 0
               ? 0.0
               : double(MovedWords) / double(TotalAllocatedWords);
  }
};

/// The execution engine; also the MutatorContext handed to the program.
class Execution : public MutatorContext {
public:
  struct Options {
    /// Additionally run the heap's full structural self-check
    /// (Heap::checkConsistency, O(objects)) every this-many steps;
    /// 0 disables. Used by the property tests.
    uint64_t DeepCheckEvery = 0;
    /// Hard stop against runaway programs.
    uint64_t MaxSteps = uint64_t(1) << 22;
    /// When set, every heap event (and a StepEnd marker per step) is
    /// recorded there; see driver/Auditors.h for what that enables.
    EventLog *Log = nullptr;
  };

  /// Wires \p P's move notifications into \p MM's callback. \p M is the
  /// program's live-space bound (the paper's M).
  Execution(MemoryManager &MM, Program &P, uint64_t M);
  Execution(MemoryManager &MM, Program &P, uint64_t M, const Options &O);

  /// Runs the program to completion and returns the summary.
  ExecutionResult run();

  /// Runs a single step; returns false when the program has finished.
  bool runStep();

  /// Invoked after every completed step; used by tests to sample
  /// program state (e.g. the potential function).
  void addStepObserver(std::function<void(const Execution &)> Observer) {
    Observers.push_back(std::move(Observer));
  }

  /// Summary of the execution so far.
  ExecutionResult result() const;

  uint64_t stepsRun() const { return Steps; }

  /// The manager this execution drives (e.g. for budget-ledger sampling).
  const MemoryManager &manager() const { return MM; }

  // MutatorContext interface.
  ObjectId allocate(uint64_t Size) override;
  void free(ObjectId Id) override;
  const Heap &heap() const override { return MM.heap(); }
  uint64_t liveBound() const override { return M; }

private:
  void checkInvariants() const;

  MemoryManager &MM;
  Program &P;
  uint64_t M;
  Options Opts;
  uint64_t Steps = 0;
  bool Finished = false;
  std::vector<std::function<void(const Execution &)>> Observers;
};

} // namespace pcb

#endif // PCBOUND_DRIVER_EXECUTION_H
