//===- heap/IntervalSet.h - Disjoint half-open interval set -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set of disjoint half-open intervals [start, end) over the word
/// address space, with coalescing insertion. Backing store is an ordered
/// map keyed by interval start, so all operations are logarithmic in the
/// number of maximal intervals. It holds the live ranges the event
/// auditor checks.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_INTERVALSET_H
#define PCBOUND_HEAP_INTERVALSET_H

#include "heap/HeapTypes.h"

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>

namespace pcb {

/// Disjoint, coalesced half-open intervals over Addr.
class IntervalSet {
public:
  using MapType = std::map<Addr, Addr>; // start -> end
  using const_iterator = MapType::const_iterator;

  /// Inserts [Start, End). The range must be disjoint from the current
  /// contents (asserted); adjacent intervals are coalesced.
  void insert(Addr Start, Addr End);

  /// Removes [Start, End), which must be fully contained in the set
  /// (asserted). May split an interval in two.
  void erase(Addr Start, Addr End);

  /// True if every word of [Start, End) is in the set.
  bool containsRange(Addr Start, Addr End) const;

  /// True if some word of [Start, End) is in the set.
  bool overlaps(Addr Start, Addr End) const;

  /// True if address \p A is in the set.
  bool contains(Addr A) const { return overlaps(A, A + 1); }

  /// Number of words covered by [Start, End) that are in the set.
  uint64_t coveredWords(Addr Start, Addr End) const;

  /// Total words in the set.
  uint64_t totalWords() const { return Total; }

  /// Number of maximal intervals.
  size_t numIntervals() const { return Map.size(); }

  bool empty() const { return Map.empty(); }
  void clear();

  const_iterator begin() const { return Map.begin(); }
  const_iterator end() const { return Map.end(); }

  /// The first interval ending after \p A: the one containing A if there
  /// is one, else the first starting above it (or end()). Inline: the
  /// free-space index's tail walks start here on every fit query, almost
  /// always on an empty set.
  const_iterator firstEndingAfter(Addr A) const {
    // Only the last interval starting at or below A can contain it.
    auto It = Map.upper_bound(A);
    if (It != Map.begin() && std::prev(It)->second > A)
      --It;
    return It;
  }

  /// The maximal interval containing \p A, or {InvalidAddr, InvalidAddr}.
  std::pair<Addr, Addr> intervalContaining(Addr A) const;

private:
  MapType Map;
  uint64_t Total = 0;
};

} // namespace pcb

#endif // PCBOUND_HEAP_INTERVALSET_H
