//===- bounds/BoundSweep.cpp - Figure series generators ------------------===//
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

std::vector<Fig1Point> pcb::sweepFig1(uint64_t M, uint64_t N, unsigned CMin,
                                      unsigned CMax) {
  assert(CMin >= 2 && CMin <= CMax && "bad c range");
  std::vector<Fig1Point> Series;
  Series.reserve(CMax - CMin + 1);
  for (unsigned C = CMin; C <= CMax; ++C) {
    BoundParams P{M, N, double(C)};
    Fig1Point Point;
    Point.C = double(C);
    Point.NewLower = cohenPetrankLowerWasteFactor(P);
    Point.Sigma = cohenPetrankOptimalSigma(P);
    Point.PriorLower = benderskyPetrankLowerWasteFactor(P);
    Point.RobsonLower = robsonWasteFactor(P);
    Series.push_back(Point);
  }
  return Series;
}

std::vector<Fig2Point> pcb::sweepFig2(double C, unsigned LogNMin,
                                      unsigned LogNMax,
                                      uint64_t LiveToMaxRatio) {
  assert(LogNMin >= 1 && LogNMin <= LogNMax && LogNMax < Fig2LogNLimit &&
         "bad n range");
  assert(isPowerOfTwo(LiveToMaxRatio) && "ratio must be a power of two");
  std::vector<Fig2Point> Series;
  Series.reserve(LogNMax - LogNMin + 1);
  for (unsigned LogN = LogNMin; LogN <= LogNMax; ++LogN) {
    uint64_t N = pow2(LogN);
    BoundParams P{LiveToMaxRatio * N, N, C};
    Fig2Point Point;
    Point.N = N;
    Point.LogN = LogN;
    Point.NewLower = cohenPetrankLowerWasteFactor(P);
    Point.Sigma = cohenPetrankOptimalSigma(P);
    Point.PriorLower = benderskyPetrankLowerWasteFactor(P);
    Series.push_back(Point);
  }
  return Series;
}

std::vector<Fig3Point> pcb::sweepFig3(uint64_t M, uint64_t N, unsigned CMin,
                                      unsigned CMax) {
  assert(CMin >= 2 && CMin <= CMax && "bad c range");
  std::vector<Fig3Point> Series;
  Series.reserve(CMax - CMin + 1);
  for (unsigned C = CMin; C <= CMax; ++C) {
    BoundParams P{M, N, double(C)};
    Fig3Point Point;
    Point.C = double(C);
    Point.NewUpper = P.C > 0.5 * double(P.logN())
                         ? cohenPetrankUpperWasteFactor(P)
                         : std::numeric_limits<double>::quiet_NaN();
    Point.PriorUpper = priorBestUpperWasteFactor(P);
    Point.BestUpper = newBestUpperWasteFactor(P);
    Series.push_back(Point);
  }
  return Series;
}
