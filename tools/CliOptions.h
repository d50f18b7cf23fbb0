//===- tools/CliOptions.h - pcbound's shared option readers -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option readers pcbound's commands and sweep tables share, so an
/// option means one thing and is refused the same way everywhere: budget
/// controllers, policy lists, programs, bound parameters, ranges,
/// generated workloads, fleets and malloc traces. Each one prints a
/// single "error:" line and returns false (or null) on input it cannot
/// run; the caller exits with status 1.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TOOLS_CLIOPTIONS_H
#define PCBOUND_TOOLS_CLIOPTIONS_H

#include "bounds/Params.h"
#include "obs/TimelineSampler.h"
#include "service/ServiceFleet.h"
#include "support/OptionParser.h"
#include "trace/BudgetController.h"

#include <memory>
#include <string>
#include <vector>

namespace pcb {

/// Checks that a generated workload under \p LiveBound can hold its
/// largest object, 2^\p MaxLogSize words.
bool checkWorkload(uint64_t LiveBound, unsigned MaxLogSize);

/// Checks that program \p Name can run at M = \p M, n = 2^\p LogN and
/// c = \p C (createProgramChecked); the error names the cell.
bool checkProgram(const std::string &Name, uint64_t M, unsigned LogN,
                  double C);

/// Checks that \p P lies in the domain of the closed-form bounds.
bool checkBounds(const BoundParams &P);

/// Reads the inclusive range AXISmin= .. AXISmax=, whose defaults \p Lo
/// and \p Hi hold on entry: exponents through getLog2 when \p Log2,
/// counts otherwise. Refuses an empty range (min > max).
bool getRange(const OptionParser &Opts, const std::string &Axis, bool Log2,
              unsigned &Lo, unsigned &Hi);

/// The sampler options of the common stride= option.
TimelineSampler::Options samplerOptions(const OptionParser &Opts);

/// Reads the budget-controller options (controller= period= c1=
/// smoothing=) into \p Spec, whose values are the defaults, and checks
/// the name against the factory.
bool parseControllerSpec(const OptionParser &Opts, ControllerSpec &Spec);

/// Checks \p Spec's controller name against the factory.
bool checkController(const ControllerSpec &Spec);

/// Reads the family= axis ("all", "compaction", "realloc").
bool parseFamily(const OptionParser &Opts, std::string &Family);

/// Checks \p Policy against the manager factory at \p LiveBound.
bool checkPolicy(const std::string &Policy, uint64_t LiveBound);

/// Reads policies= (default \p Default; "all" means the family= axis) and
/// checks every name against the factory. Refuses an empty list.
bool parsePolicyList(const OptionParser &Opts, uint64_t LiveBound,
                     std::vector<std::string> &Policies,
                     const std::string &Default = "all");

/// Loads and materializes the malloc trace at \p Path into the
/// ordinal-free TraceOp convention, for the consumers that hold a trace
/// whole (fuzz corpora, fleet session classes). Sets \p PeakLiveWords to
/// the trace's peak live volume.
std::shared_ptr<const std::vector<TraceOp>>
loadMallocTrace(const std::string &Path, uint64_t &PeakLiveWords);

/// Reads the fleet options every fleet run shares (sessions= threads=
/// slice= policy= c= batch= resident= sample= audit= seed= ops= maxlog=
/// live= arena-rows= trace= and the controller), with \p FO's values as
/// the defaults; the arena count is the caller's.
bool readFleetOptions(const OptionParser &Opts, FleetOptions &FO);

} // namespace pcb

#endif // PCBOUND_TOOLS_CLIOPTIONS_H
