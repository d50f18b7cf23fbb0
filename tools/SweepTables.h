//===- tools/SweepTables.h - pcbound sweep and its tables -------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pcbound sweep`: a grid of cells run in parallel into one table whose
/// stdout is byte-identical at any thread count. Without table= it sweeps
/// one program against a policy list over cs=; table=NAME picks one of
/// the evaluation's named tables (EXPERIMENTS.md), each with its own
/// banner, axes and defaults, columns and footer.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TOOLS_SWEEPTABLES_H
#define PCBOUND_TOOLS_SWEEPTABLES_H

#include "support/OptionParser.h"

#include <string>

namespace pcb {

/// Runs `pcbound sweep` with \p Opts; returns the exit status.
int cmdSweep(const OptionParser &Opts);

/// The usage lines of the named tables: each name with its options and
/// their defaults.
std::string sweepTableUsage();

} // namespace pcb

#endif // PCBOUND_TOOLS_SWEEPTABLES_H
