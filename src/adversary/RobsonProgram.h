//===- adversary/RobsonProgram.h - Robson's bad program PR ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Robson's malicious program (the paper's Algorithm 2, from Robson
/// 1971/74), extended with the ghost-object bookkeeping of the paper's
/// first stage so it stays meaningful against managers that move
/// objects:
///
///   f0 = 0; allocate M objects of size 1.
///   for i = 1 .. log2(n):
///     pick fi in {f(i-1), f(i-1) + 2^(i-1)} maximizing
///         sum over live-or-ghost fi-occupying objects o of (2^i - |o|)
///     free every live or ghost object that is not fi-occupying
///     allocate floor((M - liveOrGhostWords) / 2^i) objects of size 2^i
///
/// Against a non-moving manager no ghosts arise and this is PR verbatim,
/// forcing a footprint of M * (log2(n)/2 + 1) - n + 1.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_ADVERSARY_ROBSONPROGRAM_H
#define PCBOUND_ADVERSARY_ROBSONPROGRAM_H

#include "adversary/RobsonCore.h"

namespace pcb {

/// Robson's bad program with ghost-object handling.
class RobsonProgram : public Program {
public:
  /// Runs steps 0 .. \p LastStep; the classic program uses
  /// LastStep = log2(n). \p M is the live-space bound. The parameters
  /// must pass paramsError (asserted).
  RobsonProgram(uint64_t M, unsigned LastStep);

  /// Why the program cannot run to \p LastStep under live bound \p M, or
  /// nullptr when it can: its largest allocation, 2^LastStep words, must
  /// fit M.
  static const char *paramsError(uint64_t M, unsigned LastStep);

  bool step(MutatorContext &Ctx) override;
  bool onObjectMoved(ObjectId Id, Addr From, Addr To) override;
  std::string name() const override { return "robson"; }

  /// The offset f_i chosen at the most recent completed step.
  uint64_t currentOffset() const { return Core.offset(); }

  /// Step about to be executed (0-based; LastStep + 1 once finished).
  unsigned currentStep() const { return Step; }

  /// Total words currently held by ghosts.
  uint64_t ghostWords() const { return Core.ghostWords(); }

  /// Number of live-or-ghost f-occupying objects after the last step —
  /// the quantity Claim 4.9 bounds from below.
  uint64_t occupierCount() const { return Core.occupierCount(); }

private:
  unsigned LastStep;
  unsigned Step = 0;
  RobsonCore Core;
  const Heap *TheHeap = nullptr;
};

} // namespace pcb

#endif // PCBOUND_ADVERSARY_ROBSONPROGRAM_H
