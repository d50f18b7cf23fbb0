//===- bounds/BoundSweep.cpp - Figure points ------------------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "bounds/BoundSweep.h"

#include "bounds/BenderskyPetrankBounds.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/RobsonBounds.h"

#include <cassert>
#include <limits>

using namespace pcb;

Fig1Point pcb::fig1Point(uint64_t M, uint64_t N, unsigned C) {
  BoundParams P{M, N, double(C)};
  return {double(C), cohenPetrankLowerWasteFactor(P),
          cohenPetrankOptimalSigma(P), benderskyPetrankLowerWasteFactor(P),
          robsonWasteFactor(P)};
}

Fig2Point pcb::fig2Point(double C, unsigned LogN, uint64_t LiveToMaxRatio) {
  assert(LogN >= 1 && LogN < Fig2LogNLimit && "bad n");
  assert(isPowerOfTwo(LiveToMaxRatio) && "ratio must be a power of two");
  uint64_t N = pow2(LogN);
  BoundParams P{LiveToMaxRatio * N, N, C};
  return {N, LogN, cohenPetrankLowerWasteFactor(P),
          cohenPetrankOptimalSigma(P), benderskyPetrankLowerWasteFactor(P)};
}

Fig3Point pcb::fig3Point(uint64_t M, uint64_t N, unsigned C) {
  BoundParams P{M, N, double(C)};
  return {double(C),
          P.C > 0.5 * double(P.logN())
              ? cohenPetrankUpperWasteFactor(P)
              : std::numeric_limits<double>::quiet_NaN(),
          priorBestUpperWasteFactor(P), newBestUpperWasteFactor(P)};
}
