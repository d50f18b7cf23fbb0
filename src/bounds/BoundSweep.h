//===- bounds/BoundSweep.h - Figure series generators -----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameter sweeps producing exactly the series plotted in the paper's
/// evaluation figures. Each sweep returns one row per x-axis point with
/// every curve of that figure, so the benches and tests share one source
/// of truth.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_BOUNDS_BOUNDSWEEP_H
#define PCBOUND_BOUNDS_BOUNDSWEEP_H

#include "bounds/Params.h"

#include <vector>

namespace pcb {

/// One point of Figure 1: lower bounds on the waste factor versus c at
/// fixed M and n.
struct Fig1Point {
  double C;
  /// Theorem 1's h (clamped at the trivial 1).
  double NewLower;
  /// The sigma achieving it (0 when the trivial bound applies).
  unsigned Sigma;
  /// Bendersky-Petrank POPL 2011 lower bound (clamped at 1).
  double PriorLower;
  /// Robson's no-compaction lower bound, for context.
  double RobsonLower;
};

/// Figure 1: c = CMin..CMax (step 1) at fixed M, n (paper: M = 2^28,
/// n = 2^20, c = 10..100).
std::vector<Fig1Point> sweepFig1(uint64_t M, uint64_t N, unsigned CMin,
                                 unsigned CMax);

/// One point of Figure 2: lower bound versus the maximum object size n,
/// with M = LiveToMaxRatio * n and c fixed.
struct Fig2Point {
  uint64_t N;
  unsigned LogN;
  double NewLower;
  unsigned Sigma;
  double PriorLower;
};

/// sweepFig2's bound on log2(n), exclusive.
constexpr unsigned Fig2LogNLimit = 34;

/// Figure 2: n = 2^LogNMin .. 2^LogNMax, M = LiveToMaxRatio * n, fixed c
/// (paper: c = 100, M = 256 n, n = 1KB..1GB i.e. logN = 10..30).
std::vector<Fig2Point> sweepFig2(double C, unsigned LogNMin, unsigned LogNMax,
                                 uint64_t LiveToMaxRatio);

/// One point of Figure 3: upper bounds on the waste factor versus c.
struct Fig3Point {
  double C;
  /// Theorem 2's bound (NaN when c <= log2(n)/2, outside its domain).
  double NewUpper;
  /// min((c+1) M, 2 * Robson) / M — the best previously known.
  double PriorUpper;
  /// The combined best after this paper.
  double BestUpper;
};

/// Figure 3: c = CMin..CMax at fixed M, n (paper: M = 2^28, n = 2^20,
/// c = 10..100).
std::vector<Fig3Point> sweepFig3(uint64_t M, uint64_t N, unsigned CMin,
                                 unsigned CMax);

} // namespace pcb

#endif // PCBOUND_BOUNDS_BOUNDSWEEP_H
