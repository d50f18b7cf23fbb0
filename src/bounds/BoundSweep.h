//===- bounds/BoundSweep.h - Figure points ----------------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points of the paper's evaluation figures: each function returns
/// one x-axis point with every curve of its figure, so the sweep tables
/// and the tests share one source of truth.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_BOUNDS_BOUNDSWEEP_H
#define PCBOUND_BOUNDS_BOUNDSWEEP_H

#include "bounds/Params.h"

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

/// Figure 1 at one c (paper: M = 2^28, n = 2^20, c = 10..100).
Fig1Point fig1Point(uint64_t M, uint64_t N, unsigned C);

/// One point of Figure 2: lower bound versus the maximum object size n,
/// with M = LiveToMaxRatio * n and c fixed.
struct Fig2Point {
  uint64_t N;
  unsigned LogN;
  double NewLower;
  unsigned Sigma;
  double PriorLower;
};

/// fig2Point's bound on log2(n), exclusive.
constexpr unsigned Fig2LogNLimit = 34;

/// Figure 2 at n = 2^LogN, M = LiveToMaxRatio * n (paper: c = 100,
/// M = 256 n, n = 1KB..1GB i.e. LogN = 10..30).
Fig2Point fig2Point(double C, unsigned LogN, uint64_t LiveToMaxRatio);

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

/// Figure 3 at one c (paper: M = 2^28, n = 2^20, c = 10..100).
Fig3Point fig3Point(uint64_t M, uint64_t N, unsigned C);

} // namespace pcb

#endif // PCBOUND_BOUNDS_BOUNDSWEEP_H
