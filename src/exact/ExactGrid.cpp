//===- exact/ExactGrid.cpp - The exact certification grid -----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "exact/ExactGrid.h"

#include "support/OptionParser.h"
#include "support/Table.h"

#include <cmath>
#include <cstdlib>

using namespace pcb;

namespace {

/// Parses \p Item as a positive decimal integer.
bool parsePositive(const std::string &Item, uint64_t &Value) {
  char *End = nullptr;
  Value = std::strtoull(Item.c_str(), &End, 10);
  return End && *End == '\0' && Value != 0;
}

/// Parses option \p Opt='s list of positive integers ("2,4,8").
bool parseUIntList(const std::string &Text, const std::string &Opt,
                   std::vector<uint64_t> &Out, std::string &Error) {
  for (const std::string &Item : parseNameList(Text)) {
    uint64_t Value = 0;
    if (!parsePositive(Item, Value)) {
      Error = "invalid number '" + Item + "' in " + Opt + "=";
      return false;
    }
    Out.push_back(Value);
  }
  if (Out.empty())
    Error = Opt + "= must name at least one value";
  return !Out.empty();
}

/// One quota: its display label and the solver's integer denominator
/// (ExactParams convention: 0 is c = infinity, the non-moving manager).
struct QuotaSpec {
  std::string Label;
  uint64_t C = 0;
};

/// Parses a cs= list: positive integers plus "inf" / "infinity" (both
/// labelled "inf").
bool parseQuotaList(const std::string &Text, std::vector<QuotaSpec> &Out,
                    std::string &Error) {
  for (const std::string &Item : parseNameList(Text)) {
    uint64_t Value = 0;
    bool Inf = Item == "inf" || Item == "infinity";
    if (!Inf && !parsePositive(Item, Value)) {
      Error = "invalid quota '" + Item + "' in cs= (positive integer or inf)";
      return false;
    }
    Out.push_back({Inf ? "inf" : Item, Value});
  }
  if (Out.empty())
    Error = "cs= must name at least one quota";
  return !Out.empty();
}

} // namespace

bool pcb::parseExactGrid(const OptionParser &Opts, const ExactParams &Base,
                         std::vector<ExactCell> &Cells, unsigned &Skipped,
                         std::string &Error) {
  std::vector<uint64_t> Ms, Ns;
  std::vector<QuotaSpec> Cs;
  if (!parseUIntList(Opts.getString("Ms", "2,4,8"), "Ms", Ms, Error) ||
      !parseUIntList(Opts.getString("ns", "2,4"), "ns", Ns, Error) ||
      !parseQuotaList(Opts.getString("cs", "1,2,4,inf"), Cs, Error))
    return false;
  for (uint64_t M : Ms)
    for (uint64_t N : Ns)
      for (const QuotaSpec &Q : Cs) {
        if (N > M) {
          // Out of domain, not an error: a P2(M, n) program can never
          // allocate an object larger than its live bound.
          ++Skipped;
          continue;
        }
        ExactParams P = Base;
        P.M = M;
        P.N = N;
        P.C = Q.C;
        if (!P.valid()) {
          Error = "cell M=" + std::to_string(M) + " n=" + std::to_string(N) +
                  " c=" + Q.Label +
                  " is outside the solvable range (M <= 24, power-of-two" +
                  " n <= 16, arena <= 30)";
          return false;
        }
        Cells.push_back({P, Q.Label});
      }
  return true;
}

std::vector<std::string> pcb::certificateHeader() {
  return {"M",      "n",    "c",     "exact", "lower",
          "robson", "thm2", "upper", "nodes", "status"};
}

/// A bound column: "-" when the closed form does not apply at the cell's
/// parameters (the certificate holds NaN).
static std::string formatBound(double Words) {
  return std::isnan(Words) ? std::string("-") : formatDouble(Words, 1);
}

Row pcb::certificateRow(const ExactCell &Cell, const ExactCertificate &Cert) {
  uint64_t Nodes = 0;
  for (const ArenaOutcome &A : Cert.Result.Arenas)
    Nodes += A.Nodes;
  return Row()
      .addCell(Cell.P.M)
      .addCell(Cell.P.N)
      .addCell(Cell.CLabel)
      .addCell(Cert.Result.Solved ? std::to_string(Cert.Result.ExactWords)
                                  : std::string("-"))
      .addCell(formatBound(Cert.LowerWords))
      .addCell(formatBound(Cert.RobsonWords))
      .addCell(formatBound(Cert.Theorem2Words))
      .addCell(formatBound(Cert.UpperWords))
      .addCell(Nodes)
      .addCell(!Cert.Result.Solved ? "unsolved"
               : !Cert.ok()        ? "FAIL"
               : Cert.Strict       ? "ok-strict"
                                   : "ok");
}
