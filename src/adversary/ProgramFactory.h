//===- adversary/ProgramFactory.h - Programs by name ------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Creates programs by name so the CLI, benches and tests can sweep over
/// adversaries and ordinary workloads uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_ADVERSARY_PROGRAMFACTORY_H
#define PCBOUND_ADVERSARY_PROGRAMFACTORY_H

#include "adversary/Program.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pcb {

/// What a generated workload may be told besides (M, n, c). An unset
/// field keeps the program's own default; the paper's two constructions
/// (robson, cohen-petrank) are deterministic and ignore both.
struct WorkloadKnobs {
  /// The seed of a stochastic workload's random stream.
  std::optional<uint64_t> Seed = {};
  /// random-churn's step count.
  std::optional<uint64_t> ChurnSteps = {};
};

/// Creates the program named \p Name. \p M is the live bound, \p LogN the
/// log2 of the maximum object size, \p C the manager's compaction quota
/// (used by the PF adversary to tune sigma and x), \p Knobs the seed and
/// length overrides of the generated workloads. Returns nullptr for
/// unknown names. Known names: "robson", "cohen-petrank",
/// "random-churn", "markov-phase", "stack-lifo", "queue-fifo",
/// "sawtooth", and the reallocation family's insert/delete adversaries
/// "update-fill-drain", "update-alternating", "update-comb",
/// "update-size-profile", "update-mix".
std::unique_ptr<Program> createProgram(const std::string &Name, uint64_t M,
                                       unsigned LogN, double C,
                                       const WorkloadKnobs &Knobs = {});

/// createProgram with a diagnosable failure: on an unknown name, or on
/// parameters the named program's constructor would assert on, returns
/// nullptr and, when \p Error is non-null, sets *Error to a one-line
/// message (an unknown name lists every valid program) — the same
/// contract as createManagerChecked.
std::unique_ptr<Program> createProgramChecked(const std::string &Name,
                                              uint64_t M, unsigned LogN,
                                              double C,
                                              std::string *Error = nullptr);

/// The valid program names as one comma-separated string, for error
/// messages and usage text.
std::string programNameList();

/// All names createProgram accepts.
std::vector<std::string> allProgramNames();

/// The adversarial subset (the paper's constructions).
std::vector<std::string> adversarialProgramNames();

/// The ordinary-workload subset (the benchmarks-behave-better contrast).
std::vector<std::string> ordinaryProgramNames();

/// The reallocation family's insert/delete adversaries (realloc/
/// UpdateProgram.h) — the Bender et al. and Jin update-model shapes.
std::vector<std::string> updateProgramNames();

} // namespace pcb

#endif // PCBOUND_ADVERSARY_PROGRAMFACTORY_H
