//===- mm/CompactionLedger.cpp - The c-partial budget --------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "mm/CompactionLedger.h"

#include "support/OptionParser.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

using namespace pcb;

void pcb::quotaError(const std::string &Spec) {
  std::cerr << "error: " << Spec
            << ": not a compaction quota (need c > 0, or inf for no "
               "compaction)\n";
}

double pcb::getQuota(const OptionParser &Opts, double Default) {
  if (!Opts.has("c"))
    return Default;
  std::string Text = Opts.getString("c", "");
  double C;
  if (!OptionParser::parseNumber(Text, C) || !isQuotaDenominator(C)) {
    quotaError("c=" + Text);
    std::exit(1);
  }
  return C;
}

unsigned pcb::getLog2(const OptionParser &Opts, const std::string &Key,
                      unsigned Default) {
  constexpr unsigned Limit = log2Exact(AddrLimit);
  uint64_t V = Opts.getUInt(Key, Default);
  if (V >= Limit) {
    std::cerr << "error: " << Key << "=" << V << " is out of range (need "
              << Key << " < " << Limit << ")\n";
    std::exit(1);
  }
  return unsigned(V);
}

std::vector<double> pcb::getQuotaList(const OptionParser &Opts,
                                      const std::string &Default) {
  std::string Text = Opts.getString("cs", Default);
  std::vector<double> Cs = parseNumberList(Text, "cs");
  if (Cs.empty() || !std::all_of(Cs.begin(), Cs.end(), isQuotaDenominator)) {
    quotaError("cs=" + Text);
    std::exit(1);
  }
  return Cs;
}
