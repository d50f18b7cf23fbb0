//===- mm/ManagerFactory.h - Managers by name -------------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Creates memory managers by policy name so benches, examples and tests
/// can sweep over the whole family uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_MANAGERFACTORY_H
#define PCBOUND_MM_MANAGERFACTORY_H

#include "mm/MemoryManager.h"

#include <memory>
#include <string>
#include <vector>

namespace pcb {

/// Creates the manager named \p Policy over \p H with compaction quota
/// \p C. Returns nullptr for unknown names. The names are those of
/// allManagerPolicies(); of them, "sliding-unlimited" ignores C (the
/// non-c-partial ideal), "bump-compactor" requires \p LiveBound (the
/// program's M — its compaction period is c * LiveBound), and the
/// reallocation family ignores C (budgeted by their ReallocationLedger
/// overhead bound instead).
std::unique_ptr<MemoryManager> createManager(const std::string &Policy,
                                             Heap &H, double C,
                                             uint64_t LiveBound = 0);

/// createManager with a diagnosable failure: on success returns the
/// manager; on failure returns nullptr and, when \p Error is non-null,
/// sets *Error to a one-line message naming every valid policy (or, for
/// "bump-compactor" without a LiveBound, what is missing) — so no caller
/// has to fall back to a silent default or an uninformative error.
std::unique_ptr<MemoryManager>
createManagerChecked(const std::string &Policy, Heap &H, double C,
                     uint64_t LiveBound = 0, std::string *Error = nullptr);

/// The valid policy names as one comma-separated string, for error
/// messages and usage text.
std::string managerPolicyList();

/// All policy names createManager accepts, in registry order (the order
/// the harness runs them in).
std::vector<std::string> allManagerPolicies();

/// The non-moving subset (the managers Robson's bounds apply to).
std::vector<std::string> nonMovingManagerPolicies();

/// The Cohen–Petrank compaction family: every policy scored by peak
/// footprint under a c-partial move budget (allManagerPolicies minus
/// the reallocation family).
std::vector<std::string> compactionFamilyPolicies();

/// The reallocation family (realloc/): policies scored by the overhead
/// ratio — cumulative moved words per allocated word. They ignore the
/// factory's C parameter.
std::vector<std::string> reallocManagerPolicies();

/// True when \p Policy belongs to the reallocation family.
bool isReallocPolicy(const std::string &Policy);

/// True when \p Policy names a non-moving manager — one that must never
/// emit a Move event. The fuzzing harness uses this for policy-relative
/// invariants.
bool isNonMovingPolicy(const std::string &Policy);

} // namespace pcb

#endif // PCBOUND_MM_MANAGERFACTORY_H
