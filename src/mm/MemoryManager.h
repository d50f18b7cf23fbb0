//===- mm/MemoryManager.h - Manager interface and move plumbing -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-manager side of the paper's program/manager interaction.
/// A manager is a placement policy over the shared Heap model: it decides
/// where each allocation goes and may move (compact) live objects within
/// its c-partial budget. Every move is reported to the program through a
/// callback, matching the paper's model in which the adversary reacts to
/// compaction (PF frees moved objects immediately).
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_MEMORYMANAGER_H
#define PCBOUND_MM_MEMORYMANAGER_H

#include "heap/Heap.h"
#include "mm/CompactionLedger.h"

#include <functional>
#include <string>

namespace pcb {

class ReallocationLedger;

/// Base class for all memory managers. Subclasses implement the placement
/// policy in placeFor() and may use tryMoveObject() to compact.
class MemoryManager {
public:
  /// Invoked after the manager moves an object. Returns true if the
  /// program de-allocates the moved object immediately (PF's behaviour);
  /// the base class then performs that free before returning control to
  /// the policy code.
  using MoveCallback = std::function<bool(ObjectId, Addr, Addr)>;

  /// \p C is the compaction quota (see CompactionLedger); pass C <= 0 for
  /// the unlimited baseline.
  MemoryManager(Heap &H, double C) : TheHeap(H), Ledger(H, C) {}
  virtual ~MemoryManager();

  MemoryManager(const MemoryManager &) = delete;
  MemoryManager &operator=(const MemoryManager &) = delete;

  /// Allocates \p Size words, returning the new object's id. The address
  /// space is unbounded, so allocation always succeeds; the interesting
  /// quantity is the footprint it produces.
  ObjectId allocate(uint64_t Size);

  /// De-allocates a live object (a program action).
  void free(ObjectId Id);

  /// Display name of the policy, e.g. "first-fit".
  virtual std::string name() const = 0;

  void setMoveCallback(MoveCallback Callback) {
    OnMove = std::move(Callback);
  }

  /// Consulted at the top of every tryMoveObject, before the ledger: a
  /// false return makes the move fail exactly as an exhausted budget
  /// would, so the policy's budget-denied fallback handles it. This is
  /// the budget controllers' port (trace/BudgetController.h); unset (or
  /// always-true, the fixed-trigger controller) leaves behaviour
  /// byte-identical to an ungated manager.
  using SpendGate = std::function<bool()>;
  void setSpendGate(SpendGate Gate) { Spend = std::move(Gate); }

  Heap &heap() { return TheHeap; }
  const Heap &heap() const { return TheHeap; }
  const CompactionLedger &ledger() const { return Ledger; }

  /// The reallocation-family ledger when this manager maintains one
  /// (realloc/ReallocManager.h); null for the compaction family. The
  /// fuzzer's oracle uses it to reconcile ledger spend against the
  /// heap's cumulative move statistics end-to-end.
  virtual const ReallocationLedger *reallocationLedger() const {
    return nullptr;
  }

  /// The manager's declared overhead bound: on every prefix of an
  /// execution, cumulative moved words stay at or below this multiple
  /// of cumulative allocated words. For c-partial managers that is 1/c
  /// (each move of s words is funded by c*s freshly allocated words);
  /// unlimited baselines return infinity; reallocation managers
  /// override this with the bound of their paper scheme.
  virtual double overheadBound() const;

protected:
  /// Policy hook: returns the address at which to place \p Size words.
  /// The returned range must be free. May perform compaction first.
  ///
  /// Placement runs one fit search. A policy that compacts only when the
  /// fit would grow the heap computes the fit once, tests it against its
  /// limit, and searches again only when the compaction attempt changed
  /// the heap (heapChangeSignature() moved, or the pass reports moves);
  /// an attempt that changed nothing leaves the first answer exact.
  virtual Addr placeFor(uint64_t Size) = 0;

  /// Policy hook: metadata update after an object was placed.
  virtual void onPlaced(ObjectId Id) { (void)Id; }

  /// Policy hook: metadata update just before an object's words are
  /// returned to the free space. The object is still live when called.
  virtual void onFreeing(ObjectId Id) { (void)Id; }

  /// Policy hook: runs after an object's words were returned to the
  /// free space, with the vacated range passed explicitly (the object
  /// is dead by now and no longer in the table). The reallocation
  /// managers react here — backfilling or repacking around the new
  /// hole — which onFreeing cannot do because the dying object still
  /// occupies its slot when that hook fires.
  virtual void onFreed(ObjectId Id, Addr From, uint64_t Size) {
    (void)Id;
    (void)From;
    (void)Size;
  }

  /// Attempts to move \p Id to \p To. Fails (returning false, no state
  /// change) when the c-partial budget does not cover the object. On
  /// success the program is notified; if it frees the object in response,
  /// the free happens before this returns.
  bool tryMoveObject(ObjectId Id, Addr To);

  /// True when a spend gate is installed (a budget controller is
  /// attached to this manager).
  bool hasSpendGate() const { return bool(Spend); }

  /// Consults the spend gate once; true when none is installed. Policies
  /// whose compaction transactions pre-check the ledger and then assume
  /// every move succeeds must call this at transaction start: the gate is
  /// constant within an execution step (controllers observe the heap only
  /// at step boundaries), so approval here funds every move of the
  /// transaction.
  bool spendApproved() const { return !Spend || Spend(); }

  /// Budget remaining right now, in words.
  uint64_t compactionBudget() const { return Ledger.remainingWords(); }

  /// Frees plus moves so far: the only events that open free space or
  /// make a chunk sparser. While it stands still, a failed compaction
  /// scan need not be repeated; within one placeFor (which places
  /// nothing) it standing still means the heap is unchanged, so a fit
  /// computed before a compaction attempt is still the answer.
  uint64_t heapChangeSignature() const {
    return TheHeap.stats().NumFrees + TheHeap.stats().NumMoves;
  }

private:
  Heap &TheHeap;
  CompactionLedger Ledger;
  MoveCallback OnMove;
  SpendGate Spend;
};

} // namespace pcb

#endif // PCBOUND_MM_MEMORYMANAGER_H
