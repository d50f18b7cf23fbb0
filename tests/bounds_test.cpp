//===- tests/bounds_test.cpp - Unit tests for src/bounds -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// The anchor tests pin every formula to the numbers the paper states in
// prose for M = 256MB, n = 1MB (M = 2^28, n = 2^20 words).
//
//===----------------------------------------------------------------------===//

#include "bounds/BenderskyPetrankBounds.h"
#include "bounds/BoundSweep.h"
#include "bounds/CohenPetrankBounds.h"
#include "bounds/Planning.h"
#include "bounds/RobsonBounds.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace pcb;

namespace {

BoundParams paperParams(double C) { return BoundParams{pow2(28), pow2(20), C}; }

// --- Robson -----------------------------------------------------------

TEST(RobsonBounds, PaperParameters) {
  // M * (log(n)/2 + 1) - n + 1 = 11M - n + 1 for log n = 20.
  BoundParams P = paperParams(10);
  EXPECT_DOUBLE_EQ(robsonHeapWords(P),
                   11.0 * double(P.M) - double(P.N) + 1.0);
  EXPECT_NEAR(robsonWasteFactor(P), 10.996, 0.001);
  EXPECT_DOUBLE_EQ(robsonGeneralHeapWords(P), 2.0 * robsonHeapWords(P));
}

TEST(RobsonBounds, GrowsWithLogN) {
  BoundParams Small{pow2(20), pow2(8), 10};
  BoundParams Large{pow2(20), pow2(16), 10};
  EXPECT_LT(robsonWasteFactor(Small), robsonWasteFactor(Large));
}

TEST(RobsonBounds, OccupierLowerBound) {
  // Claim 4.9: at least M (i + 2) / 2^(i+1) occupiers after step i.
  EXPECT_DOUBLE_EQ(robsonOccupierLowerBound(1024, 0), 1024.0);
  EXPECT_DOUBLE_EQ(robsonOccupierLowerBound(1024, 1), 768.0);
  EXPECT_DOUBLE_EQ(robsonOccupierLowerBound(1024, 2), 512.0);
}

// --- Bendersky-Petrank --------------------------------------------------

TEST(BenderskyPetrankBounds, TrivialAtPracticalParameters) {
  // The paper's motivating observation: for M = 256MB, n = 1MB the POPL
  // 2011 lower bound gives only the trivial factor 1 throughout
  // c = 10..100.
  for (unsigned C = 10; C <= 100; ++C) {
    BoundParams P = paperParams(C);
    EXPECT_EQ(benderskyPetrankLowerWasteFactor(P), 1.0) << "c=" << C;
  }
}

TEST(BenderskyPetrankBounds, MeaningfulForHugeHeaps) {
  // ... but for huge object/heap ratios (n = 16TB scale) it exceeds M.
  BoundParams P{pow2(54), pow2(44), 10};
  EXPECT_GT(benderskyPetrankLowerWasteFactor(P), 1.0);
}

TEST(BenderskyPetrankBounds, UpperBound) {
  BoundParams P = paperParams(50);
  EXPECT_DOUBLE_EQ(benderskyPetrankUpperWasteFactor(P), 51.0);
  EXPECT_DOUBLE_EQ(benderskyPetrankUpperHeapWords(P), 51.0 * double(P.M));
}

TEST(BenderskyPetrankBounds, BranchBoundary) {
  // The two-regime formula switches at c = 4 log n; both sides stay
  // finite and positive-branch selection matches the definition.
  BoundParams Below = paperParams(79); // 4 log n = 80
  BoundParams Above = paperParams(81);
  EXPECT_GE(benderskyPetrankLowerWasteFactor(Below), 1.0);
  EXPECT_GE(benderskyPetrankLowerWasteFactor(Above), 1.0);
}

// --- Cohen-Petrank Theorem 1 --------------------------------------------

TEST(CohenPetrankLower, PaperAnchorC10) {
  // "Even with 10% of the allocated space being compacted, a heap size of
  // 2M = 512MB is unavoidable."
  EXPECT_NEAR(cohenPetrankLowerWasteFactor(paperParams(10)), 2.0, 0.01);
}

TEST(CohenPetrankLower, PaperAnchorC50) {
  // "when compaction of 2% of all allocated space is allowed (c = 50),
  // any memory manager will need ... at least 3.15 M."
  EXPECT_NEAR(cohenPetrankLowerWasteFactor(paperParams(50)), 3.15, 0.05);
}

TEST(CohenPetrankLower, PaperAnchorC100) {
  // "when the compaction is limited to 1% ... an overhead of 3.5x".
  EXPECT_NEAR(cohenPetrankLowerWasteFactor(paperParams(100)), 3.5, 0.05);
}

TEST(CohenPetrankLower, MonotoneInC) {
  // Less compaction budget can only force more waste.
  double Prev = 0.0;
  for (unsigned C = 10; C <= 100; C += 5) {
    double H = cohenPetrankLowerWasteFactor(paperParams(C));
    EXPECT_GE(H, Prev) << "c=" << C;
    Prev = H;
  }
}

TEST(CohenPetrankLower, SigmaAdmissibility) {
  EXPECT_EQ(cohenPetrankMaxSigma(10.0), 2u);  // 2^2 <= 7.5 < 2^3
  EXPECT_EQ(cohenPetrankMaxSigma(100.0), 6u); // 2^6 = 64 <= 75
  EXPECT_EQ(cohenPetrankMaxSigma(2.0), 0u);   // 3c/4 = 1.5 < 2
  EXPECT_EQ(cohenPetrankMaxSigma(8.0 / 3.0), 1u);
}

TEST(CohenPetrankLower, OptimalSigmaIsAdmissibleAndBest) {
  for (unsigned C : {10u, 25u, 50u, 100u}) {
    BoundParams P = paperParams(C);
    unsigned Best = cohenPetrankOptimalSigma(P);
    ASSERT_GE(Best, 1u);
    ASSERT_LE(Best, cohenPetrankMaxSigma(P.C));
    double HBest = cohenPetrankLowerWasteFactorForSigma(P, Best);
    for (unsigned S = 1; S <= cohenPetrankMaxSigma(P.C); ++S)
      EXPECT_LE(cohenPetrankLowerWasteFactorForSigma(P, S), HBest)
          << "c=" << C << " sigma=" << S;
  }
}

TEST(CohenPetrankLower, BeatsPriorBoundAtPracticalParameters) {
  // The headline claim: meaningful (> 1) exactly where POPL 2011 is
  // trivial.
  for (unsigned C = 10; C <= 100; C += 10) {
    BoundParams P = paperParams(C);
    EXPECT_GT(cohenPetrankLowerWasteFactor(P),
              benderskyPetrankLowerWasteFactor(P))
        << "c=" << C;
  }
}

TEST(CohenPetrankLower, BelowRobsonNoCompactionCeiling) {
  // With compaction allowed the forced waste must stay below the
  // no-compaction worst case.
  for (unsigned C = 10; C <= 100; C += 10) {
    BoundParams P = paperParams(C);
    EXPECT_LT(cohenPetrankLowerWasteFactor(P), robsonWasteFactor(P));
  }
}

TEST(CohenPetrankLower, AllocationFactorPositiveAndSane) {
  for (unsigned C : {10u, 50u, 100u}) {
    BoundParams P = paperParams(C);
    unsigned S = cohenPetrankOptimalSigma(P);
    double X = cohenPetrankAllocationFactor(P, S);
    EXPECT_GT(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(CohenPetrankLower, SelfConsistencyOfH) {
  // h(sigma) was derived by solving the paper's budget identity at
  // equality:
  //   h = (s+2)/2 - (2^s/c) S1 + A [(1 - 2^-s h) L - 2n/M']...
  // Verify the closed form satisfies the fixed-point equation it came
  // from: plugging h back into the right-hand side reproduces h.
  for (unsigned C : {10u, 25u, 50u, 100u}) {
    BoundParams P = paperParams(C);
    for (unsigned S = 1; S <= cohenPetrankMaxSigma(P.C); ++S) {
      double H = cohenPetrankLowerWasteFactorForSigma(P, S);
      double TwoS = std::pow(2.0, double(S));
      double A = 0.75 - TwoS / P.C;
      double L = (double(P.logN()) - 2.0 * S - 1.0) / (S + 1.0);
      double Series = 0.0;
      for (unsigned I = 1; I <= S; ++I)
        Series += double(I) / (std::pow(2.0, double(I)) - 1.0);
      double S1 = S + 1.0 - 0.5 * Series;
      double Rhs = (S + 2.0) / 2.0 - (TwoS / P.C) * S1 +
                   A * ((1.0 - H / TwoS) * L) -
                   2.0 * double(P.N) / double(P.M);
      EXPECT_NEAR(H, Rhs, 1e-9) << "c=" << C << " sigma=" << S;
    }
  }
}

TEST(CohenPetrankLower, InsensitiveToMWhenNIsSmall) {
  // The paper: "the lower bound as a function of M is very close to a
  // constant function" once n/M is small.
  BoundParams A{pow2(28), pow2(16), 50.0};
  BoundParams B{pow2(34), pow2(16), 50.0};
  EXPECT_NEAR(cohenPetrankLowerWasteFactor(A),
              cohenPetrankLowerWasteFactor(B), 0.01);
}

// --- Cohen-Petrank Theorem 2 --------------------------------------------

TEST(CohenPetrankUpper, SequenceShape) {
  BoundParams P = paperParams(20);
  std::vector<double> A = cohenPetrankUpperSequence(P);
  ASSERT_EQ(A.size(), 21u);
  EXPECT_DOUBLE_EQ(A[0], 1.0);
  // a_1 = (1 - 1/c)/2 and the sequence is non-increasing.
  EXPECT_DOUBLE_EQ(A[1], (1.0 - 1.0 / 20.0) / 2.0);
  for (size_t I = 1; I != A.size(); ++I)
    EXPECT_LE(A[I], A[I - 1]);
}

TEST(CohenPetrankUpper, ImprovesOnPriorForModerateC) {
  // Figure 3's qualitative content: the new bound beats
  // min((c+1) M, 2 * Robson) throughout c = 20..100.
  for (unsigned C = 20; C <= 100; C += 10) {
    BoundParams P = paperParams(C);
    EXPECT_LT(cohenPetrankUpperWasteFactor(P), priorBestUpperWasteFactor(P))
        << "c=" << C;
    EXPECT_DOUBLE_EQ(newBestUpperWasteFactor(P),
                     std::min(cohenPetrankUpperWasteFactor(P),
                              priorBestUpperWasteFactor(P)));
  }
}

TEST(CohenPetrankUpper, AboveLowerBound) {
  // Upper and lower bounds must bracket: no contradiction in the model.
  for (unsigned C = 15; C <= 100; C += 5) {
    BoundParams P = paperParams(C);
    EXPECT_GT(cohenPetrankUpperWasteFactor(P),
              cohenPetrankLowerWasteFactor(P))
        << "c=" << C;
  }
}

TEST(CohenPetrankUpper, OutsideDomainFallsBackToPrior) {
  BoundParams P = paperParams(9); // c <= log2(n)/2 = 10
  EXPECT_DOUBLE_EQ(newBestUpperWasteFactor(P), priorBestUpperWasteFactor(P));
}

// --- Planning (inverse) queries ------------------------------------------

TEST(Planning, InvertsFigureOneAnchors) {
  // At M=256MB, n=1MB, h hits 2.0 exactly at c = 10, so a 2.0x waste
  // target needs a moved fraction of at least ~1/10.
  CompactionPlan Plan = planCompactionBudget(pow2(28), pow2(20), 2.0);
  ASSERT_TRUE(Plan.Feasible);
  EXPECT_NEAR(Plan.MaxQuota, 10.0, 0.3);
  EXPECT_LE(Plan.AchievedLowerBound, 2.0 + 1e-9);
  // And the point just beyond the plan's quota must exceed the target.
  BoundParams Beyond{pow2(28), pow2(20), Plan.MaxQuota + 0.5};
  EXPECT_GT(cohenPetrankLowerWasteFactor(Beyond), 2.0);
}

TEST(Planning, InfeasibleAndTightTargets) {
  // Nothing below the trivial factor is ever guaranteed.
  EXPECT_FALSE(planCompactionBudget(pow2(28), pow2(20), 0.9).Feasible);
  // A 1.2x target is only "free" while Theorem 1 is trivial: it pins the
  // quota to the small-c regime (h(c=4) is already ~1.39 > 1.2).
  CompactionPlan Tight = planCompactionBudget(pow2(28), pow2(20), 1.2);
  ASSERT_TRUE(Tight.Feasible);
  EXPECT_LT(Tight.MaxQuota, 4.0);
  EXPECT_GT(Tight.MinMovedFraction, 0.25);
}

TEST(Planning, GenerousTargetsSaturateTheRange) {
  // A target above h at the range's top end needs no more compaction
  // than the range's weakest budget.
  CompactionPlan Plan =
      planCompactionBudget(pow2(28), pow2(20), 50.0, 2.0, 128.0);
  ASSERT_TRUE(Plan.Feasible);
  EXPECT_DOUBLE_EQ(Plan.MaxQuota, 128.0);
  EXPECT_DOUBLE_EQ(Plan.MinMovedFraction, 1.0 / 128.0);
}

TEST(Planning, MonotoneInTarget) {
  double PrevQuota = 0.0;
  for (double Target : {1.6, 2.0, 2.5, 3.0, 3.4}) {
    CompactionPlan Plan = planCompactionBudget(pow2(28), pow2(20), Target);
    ASSERT_TRUE(Plan.Feasible) << Target;
    EXPECT_GE(Plan.MaxQuota, PrevQuota) << Target;
    PrevQuota = Plan.MaxQuota;
  }
}

// --- Sweeps (the figures) -----------------------------------------------

TEST(BoundSweep, Fig1PointsMatchPointQueries) {
  for (unsigned C = 10; C <= 100; ++C) {
    Fig1Point Pt = fig1Point(pow2(28), pow2(20), C);
    EXPECT_DOUBLE_EQ(Pt.C, double(C));
    BoundParams P = paperParams(Pt.C);
    EXPECT_DOUBLE_EQ(Pt.NewLower, cohenPetrankLowerWasteFactor(P));
    EXPECT_DOUBLE_EQ(Pt.PriorLower, benderskyPetrankLowerWasteFactor(P));
    EXPECT_EQ(Pt.Sigma, cohenPetrankOptimalSigma(P));
  }
}

TEST(BoundSweep, Fig2GrowsWithN) {
  // Figure 2: c = 100, M = 256 n, n = 1KB .. 1GB. The bound grows with
  // the maximum object size.
  EXPECT_LT(fig2Point(100.0, 10, 256).NewLower,
            fig2Point(100.0, 30, 256).NewLower);
  for (unsigned LogN = 11; LogN <= 30; ++LogN)
    EXPECT_GE(fig2Point(100.0, LogN, 256).NewLower + 1e-9,
              fig2Point(100.0, LogN - 1, 256).NewLower)
        << "logn=" << LogN;
}

TEST(BoundSweep, Fig2PointsMatchPointQueries) {
  for (unsigned LogN = 12; LogN <= 16; ++LogN) {
    Fig2Point Pt = fig2Point(100.0, LogN, 256);
    BoundParams P{256 * Pt.N, Pt.N, 100.0};
    EXPECT_DOUBLE_EQ(Pt.NewLower, cohenPetrankLowerWasteFactor(P));
    EXPECT_EQ(Pt.Sigma, cohenPetrankOptimalSigma(P));
    EXPECT_EQ(Pt.N, pow2(Pt.LogN));
  }
}

TEST(CohenPetrankUpper, DomainBoundary) {
  // Theorem 2 needs c > log2(n)/2; just above the boundary it must
  // produce a finite positive bound.
  BoundParams P{pow2(28), pow2(20), 10.5}; // log n / 2 = 10
  double W = cohenPetrankUpperWasteFactor(P);
  EXPECT_GT(W, 1.0);
  EXPECT_LT(W, 1e4);
}

TEST(CohenPetrankLower, MinimalAdmissibleC) {
  // c = 8/3 is the smallest quota admitting sigma = 1; the bound exists
  // and is clamped at or above the trivial factor.
  BoundParams P{pow2(20), pow2(10), 8.0 / 3.0};
  EXPECT_EQ(cohenPetrankMaxSigma(P.C), 1u);
  EXPECT_GE(cohenPetrankLowerWasteFactor(P), 1.0);
}

TEST(RobsonBounds, GeneralDoublesP2) {
  for (unsigned C : {10u, 50u}) {
    BoundParams P = paperParams(C);
    EXPECT_DOUBLE_EQ(robsonGeneralWasteFactor(P),
                     2.0 * robsonWasteFactor(P));
  }
}

TEST(BoundSweep, Fig3PointsConsistent) {
  for (unsigned C = 10; C <= 100; ++C) {
    Fig3Point Pt = fig3Point(pow2(28), pow2(20), C);
    EXPECT_LE(Pt.BestUpper, Pt.PriorUpper + 1e-12);
    if (!std::isnan(Pt.NewUpper)) {
      EXPECT_LE(Pt.BestUpper, Pt.NewUpper + 1e-12);
    }
  }
}

// --- Parameterized cross-property sweep ----------------------------------

struct SweepCase {
  unsigned LogM;
  unsigned LogN;
  unsigned C;
};

class BoundConsistency : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BoundConsistency, LowerBelowUpperAndAboveTrivial) {
  SweepCase S = GetParam();
  BoundParams P{pow2(S.LogM), pow2(S.LogN), double(S.C)};
  ASSERT_TRUE(P.valid());
  double Lower = cohenPetrankLowerWasteFactor(P);
  EXPECT_GE(Lower, 1.0);
  // The c-partial upper bound family must dominate the lower bound.
  EXPECT_LE(Lower, benderskyPetrankUpperWasteFactor(P));
  // Robson's no-compaction program is also a c-partial worst case, so
  // the no-compaction ceiling dominates too.
  EXPECT_LE(Lower, robsonWasteFactor(P) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, BoundConsistency,
    ::testing::Values(SweepCase{20, 8, 10}, SweepCase{20, 8, 40},
                      SweepCase{24, 12, 10}, SweepCase{24, 12, 60},
                      SweepCase{28, 20, 10}, SweepCase{28, 20, 50},
                      SweepCase{28, 20, 100}, SweepCase{30, 10, 30},
                      SweepCase{32, 24, 80}, SweepCase{26, 16, 25}));

} // namespace
