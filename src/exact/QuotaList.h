//===- exact/QuotaList.h - Parsing the exact grid's axes --------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validating parsers for the exact solver's grid axes as they are given
/// on the command line: `Ms=2,4,8`, `ns=2,4` and `cs=1,2,4,inf`. Shared
/// by `pcbound exact` and bench_exact, so a malformed list is rejected
/// the same way by both rather than silently read as 0 or truncated.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_EXACT_QUOTALIST_H
#define PCBOUND_EXACT_QUOTALIST_H

#include <cstdint>
#include <string>
#include <vector>

namespace pcb {

/// One quota of an exact grid: its display label and the solver's
/// integer denominator (ExactParams convention: 0 is c = infinity, the
/// non-moving manager).
struct QuotaSpec {
  std::string Label;
  uint64_t C = 0;
};

/// Parses a comma-separated list of positive integers given as option
/// \p Opt= ("2,4,8"); empty items are skipped. Returns false and sets
/// \p Error on a malformed or zero item, or when no value is named.
bool parseUIntList(const std::string &Text, const std::string &Opt,
                   std::vector<uint64_t> &Out, std::string &Error);

/// Parses a cs= list: positive integers plus "inf" / "infinity" (both
/// labelled "inf"). Returns false and sets \p Error on a malformed or
/// zero quota, or when no quota is named.
bool parseQuotaList(const std::string &Text, std::vector<QuotaSpec> &Out,
                    std::string &Error);

} // namespace pcb

#endif // PCBOUND_EXACT_QUOTALIST_H
