//===- tests/crosscheck_test.cpp - Theory vs simulation cross-check -------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Ties the committed work golden to the bounds layer: for every cell
// of the grid recorded in BENCH_pf_sim.json (the logm/logn/cs the E5
// table last ran with), the simulated PF adversary must force at least
// the closed-form Theorem 1 heap size M * h(M, n, c) out of every
// c-partial manager. A failure convicts either the adversary
// implementation (too weak), the bounds layer (too strong), or a manager
// whose accounting breaches the c-partial contract. The grid parameters
// are parsed from the committed JSON rather than hard-coded so the test
// follows the baseline when it is regenerated.
//
//===----------------------------------------------------------------------===//

#include "adversary/CohenPetrankProgram.h"
#include "bounds/CohenPetrankBounds.h"
#include "driver/Execution.h"
#include "mm/ManagerFactory.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace pcb;

namespace {

#ifndef PCB_BENCH_BASELINE
#error "tests/CMakeLists.txt must define PCB_BENCH_BASELINE"
#endif

/// The slice of BENCH_pf_sim.json this test consumes.
struct BaselineGrid {
  unsigned LogM = 0;
  unsigned LogN = 0;
  std::vector<double> Cs;
};

/// Extracts the integer after "\"<key>\":". The baseline is written by
/// `pcbound sweep table=pf-sim` with one key per line, so a string scan
/// is enough — no JSON library in the test tree.
bool parseUIntField(const std::string &Text, const std::string &Key,
                    unsigned &Out) {
  size_t At = Text.find("\"" + Key + "\":");
  if (At == std::string::npos)
    return false;
  At = Text.find_first_of("0123456789", At);
  if (At == std::string::npos)
    return false;
  Out = unsigned(std::strtoul(Text.c_str() + At, nullptr, 10));
  return true;
}

bool parseBaseline(const std::string &Path, BaselineGrid &Grid) {
  std::ifstream IS(Path);
  if (!IS)
    return false;
  std::stringstream Buffer;
  Buffer << IS.rdbuf();
  const std::string Text = Buffer.str();
  if (!parseUIntField(Text, "logm", Grid.LogM) ||
      !parseUIntField(Text, "logn", Grid.LogN))
    return false;
  size_t At = Text.find("\"cs\":");
  if (At == std::string::npos)
    return false;
  size_t Open = Text.find('[', At);
  size_t Close = Text.find(']', At);
  if (Open == std::string::npos || Close == std::string::npos)
    return false;
  std::istringstream List(Text.substr(Open + 1, Close - Open - 1));
  std::string Item;
  while (std::getline(List, Item, ','))
    if (!Item.empty())
      Grid.Cs.push_back(std::strtod(Item.c_str(), nullptr));
  return !Grid.Cs.empty();
}

TEST(CrossCheck, BaselineParses) {
  BaselineGrid Grid;
  ASSERT_TRUE(parseBaseline(PCB_BENCH_BASELINE, Grid))
      << "cannot parse " << PCB_BENCH_BASELINE;
  // Sanity floor, not a pin: the adversary needs room to play (Theorem 1
  // wants M >> n) and at least one quota to sweep.
  EXPECT_GT(Grid.LogM, Grid.LogN);
  EXPECT_GE(Grid.Cs.size(), 1u);
}

TEST(CrossCheck, SimulatedPfClearsTheoremOneOnTheBaselineGrid) {
  BaselineGrid Grid;
  ASSERT_TRUE(parseBaseline(PCB_BENCH_BASELINE, Grid))
      << "cannot parse " << PCB_BENCH_BASELINE;
  const uint64_t M = pow2(Grid.LogM);
  const uint64_t N = pow2(Grid.LogN);

  // The E5 table's manager family minus its "sliding-unlimited" reference
  // row: that one is deliberately not c-partial and is the only row the
  // table allows below h.
  const std::vector<std::string> Policies = {
      "first-fit", "best-fit",    "segregated-fit",
      "chunked",   "meshing",     "evacuating",
      "hybrid",    "sliding",     "paged-space",
      "bump-compactor"};

  for (double C : Grid.Cs) {
    BoundParams P{M, N, C};
    ASSERT_TRUE(P.valid()) << "baseline cell outside the formula domain";
    const double TheoryWords = cohenPetrankLowerHeapWords(P);
    for (const std::string &Policy : Policies) {
      Heap H;
      std::string Error;
      auto MM = createManagerChecked(Policy, H, C, /*LiveBound=*/M, &Error);
      ASSERT_TRUE(MM) << Error;
      CohenPetrankProgram PF(M, N, C);
      Execution E(*MM, PF, M);
      ExecutionResult R = E.run();
      EXPECT_GE(double(R.HeapSize) + 1e-9, TheoryWords)
          << Policy << " at c=" << C << " beat the Theorem 1 bound: HS "
          << R.HeapSize << " < M*h " << TheoryWords
          << " — adversary too weak, bound too strong, or the manager"
          << " breached its budget";
      // And the run must have respected the c-partial contract.
      EXPECT_LE(double(R.MovedWords),
                double(R.TotalAllocatedWords) / C + 1e-9)
          << Policy << " at c=" << C;
    }
  }
}

} // namespace
