//===- bench/BenchUtils.h - Shared bench plumbing ---------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers shared by the table benches: parsing comma-separated
/// number and name lists (`cs=10,25,50`, `policies=a,b`) and writing the
/// per-phase profile of a `bench-json=` regression baseline. The Runner
/// comes from runner/Runner.h's makeRunner() (`threads=` / `progress=`);
/// table emission lives in runner/ResultSink.h (`csv=` / `json=` / `out=`
/// handling included).
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_BENCH_BENCHUTILS_H
#define PCBOUND_BENCH_BENCHUTILS_H

#include "obs/Profiler.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace pcb {

/// Parses "10,25,50" into doubles; empty items are skipped.
inline std::vector<double> parseNumberList(const std::string &Text) {
  std::vector<double> Values;
  std::istringstream IS(Text);
  std::string Item;
  while (std::getline(IS, Item, ',')) {
    if (Item.empty())
      continue;
    char *End = nullptr;
    double Value = std::strtod(Item.c_str(), &End);
    if (!End || *End != '\0') {
      std::cerr << "error: invalid number '" << Item << "' in list\n";
      std::exit(1);
    }
    Values.push_back(Value);
  }
  return Values;
}

/// Splits "a,b,c" into non-empty items.
inline std::vector<std::string> parseNameList(const std::string &Text) {
  std::vector<std::string> Names;
  std::istringstream IS(Text);
  std::string Item;
  while (std::getline(IS, Item, ','))
    if (!Item.empty())
      Names.push_back(Item);
  return Names;
}

/// Writes the `"per_phase": [...]` member of a bench-json baseline: one
/// object per profiler section that ran, in section order.
/// tools/compare_bench.py reads these keys.
inline void writePerPhaseJson(std::ostream &OS, const Profiler &Prof) {
  OS << "  \"per_phase\": [";
  bool First = true;
  for (unsigned S = 0; S != Profiler::NumSections; ++S) {
    const Profiler::SectionStats &Stats = Prof.section(Profiler::Section(S));
    if (Stats.Calls == 0)
      continue;
    OS << (First ? "" : ", ") << "{\"section\": \""
       << Profiler::sectionName(Profiler::Section(S))
       << "\", \"calls\": " << Stats.Calls << ", \"total_ms\": "
       << formatDouble(double(Stats.Nanos) * 1e-6, 3)
       << ", \"ns_per_call\": "
       << formatDouble(double(Stats.Nanos) / double(Stats.Calls), 1) << "}";
    First = false;
  }
  OS << "]\n";
}

} // namespace pcb

#endif // PCBOUND_BENCH_BENCHUTILS_H
