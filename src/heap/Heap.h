//===- heap/Heap.h - The simulated word-addressed heap ----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for heap state: the object table, the free
/// space, and the footprint accounting. Memory managers are policies on
/// top of this model; they decide *where* to place or move objects, the
/// Heap validates and records it.
///
/// Address-ordered lookups run on an object-start bitboard (bit i set iff
/// a live object starts at address i) whose pages also carry an
/// address -> id table. It is a PagedBoard like the occupancy board: it
/// covers the whole address space, and pages exist only where objects
/// have started. Occupancy itself is not duplicated: the FreeSpaceIndex's
/// occupancy board is the one copy, and Heap's mask/bitboard queries read
/// it directly, so the object table and the free space cannot disagree
/// about which words are used.
///
/// Footprint semantics follow the paper: the heap is the smallest
/// consecutive address prefix the manager ever touches, so the heap size
/// HS(A, P) is the historical maximum of (highest used address + 1). Once
/// a word has been used it counts forever (Section 4: "the chunk that it
/// did occupy will remain part of the heap forever").
///
/// \par Thread compatibility
/// Heap is thread-compatible: it has no global or static mutable state,
/// so distinct instances may be used concurrently from distinct threads
/// with no synchronization (the experiment runner in src/runner/ gives
/// every grid cell its own Heap). A single instance must not be shared
/// across threads without external locking.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_HEAP_HEAP_H
#define PCBOUND_HEAP_HEAP_H

#include "heap/FreeSpaceIndex.h"
#include "heap/HeapEvent.h"
#include "heap/HeapTypes.h"
#include "heap/PagedBoard.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace pcb {

/// Aggregate statistics the heap maintains as the execution proceeds.
struct HeapStats {
  /// Historical maximum of (highest used address + 1) — HS(A, P).
  uint64_t HighWaterMark = 0;
  /// Total words ever allocated (the paper's "s", which funds the
  /// compaction budget s/c).
  uint64_t TotalAllocatedWords = 0;
  /// Total words moved by compaction so far (the paper's "q").
  uint64_t MovedWords = 0;
  /// Currently live words.
  uint64_t LiveWords = 0;
  /// Maximum of LiveWords over time.
  uint64_t PeakLiveWords = 0;
  /// Counts of events.
  uint64_t NumAllocations = 0;
  uint64_t NumFrees = 0;
  uint64_t NumMoves = 0;

  bool operator==(const HeapStats &) const = default;
};

/// One HeapStats field: its name and its member.
struct HeapStatsField {
  const char *Name;
  uint64_t HeapStats::*Member;
};

/// Every HeapStats field, in the one order the diagnoses that compare two
/// statistics records report them.
inline constexpr HeapStatsField HeapStatsFields[] = {
    {"HighWaterMark", &HeapStats::HighWaterMark},
    {"LiveWords", &HeapStats::LiveWords},
    {"PeakLiveWords", &HeapStats::PeakLiveWords},
    {"TotalAllocatedWords", &HeapStats::TotalAllocatedWords},
    {"MovedWords", &HeapStats::MovedWords},
    {"NumAllocations", &HeapStats::NumAllocations},
    {"NumFrees", &HeapStats::NumFrees},
    {"NumMoves", &HeapStats::NumMoves},
};

/// The simulated heap: object table + free-space index + statistics.
class Heap {
public:
  Heap() = default;
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Places a new object of \p Size words at \p Address. The target range
  /// must be free (asserted). Returns the new object's id.
  ObjectId place(Addr Address, uint64_t Size);

  /// Frees a live object.
  void free(ObjectId Id);

  /// Moves a live object to \p NewAddress (target must be free and must
  /// not overlap the object's current placement). Counts toward
  /// MovedWords. The caller (memory manager) is responsible for having
  /// charged its compaction budget.
  void move(ObjectId Id, Addr NewAddress);

  /// The object with id \p Id (live or freed).
  const Object &object(ObjectId Id) const {
    assert(Id < Objects.size() && "object id out of range");
    return Objects[Id];
  }

  /// True if \p Id denotes a live object.
  bool isLive(ObjectId Id) const {
    return Id < Objects.size() && Objects[Id].isLive();
  }

  /// Number of object slots ever created (ids are dense in [0, size)).
  size_t numObjects() const { return Objects.size(); }

  /// The object table: entry Id is object(Id), live or freed.
  std::span<const Object> objects() const { return Objects; }

  /// Placement queries over the free space.
  const FreeSpaceIndex &freeSpace() const { return Free; }

  /// Live words occupying [Start, Start + Size). Inline: the compactors
  /// call this once per candidate chunk scan.
  uint64_t usedWordsIn(Addr Start, uint64_t Size) const {
    assert(Size != 0 && "empty query range");
    return Size - Free.freeWordsIn(Start, Start + Size);
  }

  /// True if [Start, Start + Size) contains no live object words.
  bool isFree(Addr Start, uint64_t Size) const {
    return Free.isFree(Start, Size);
  }

  const HeapStats &stats() const { return Stats; }

  /// Installs an observer invoked after every place/free/move. Pass an
  /// empty function to detach. The observer must not mutate the heap.
  void setEventCallback(std::function<void(const HeapEvent &)> Callback) {
    OnEvent = std::move(Callback);
  }

  /// Full structural self-check: live objects are disjoint, the free
  /// index is exactly their complement and its super digests keep their
  /// contract (FreeSpaceIndex::checkDigests), the start-bit index agrees,
  /// and the statistics match a recount. O(objects + free blocks + words
  /// of the stored pages); meant
  /// for tests and the fuzzing oracle. When \p Why is non-null and the
  /// check fails, it receives a one-line diagnosis of the first
  /// inconsistency found.
  bool checkConsistency(std::string *Why = nullptr) const;

  /// Ids of all live objects, in address order. O(live objects).
  std::vector<ObjectId> liveObjects() const;

  /// Occupancy bitboard of the first \p Count (<= 64) words: bit i is set
  /// iff address i is covered by a live object. Canonicalization hook for
  /// the exact game solver (src/exact/), whose states are exactly such
  /// boards. For wider prefixes use occupancyWords.
  uint64_t occupancyMask(unsigned Count) const;

  /// Companion bitboard: bit i is set iff a live object starts at
  /// address i. Together with occupancyMask this determines the heap
  /// prefix's layout up to object identity.
  uint64_t objectStartMask(unsigned Count) const;

  /// Span generalization of occupancyMask: copies the occupancy of
  /// [Start, Start + 64 * Count) into \p Out as packed words (Out[i]
  /// bit j = address Start + 64 * i + j). O(Count + log objects); the
  /// exact solver's witness replays cross-check arbitrary arena widths
  /// through this.
  void occupancyWords(Addr Start, size_t Count, uint64_t *Out) const;

  /// Span generalization of objectStartMask, same layout as
  /// occupancyWords.
  void objectStartWords(Addr Start, size_t Count, uint64_t *Out) const;

  /// True if the occupancy of [A, A + Size) and [B, B + Size) never uses
  /// the same offset: for every i < Size, at most one of A + i and B + i
  /// is covered by a live object. This is the meshing probe — for
  /// 64-aligned ranges it is a word-AND per 64 addresses straight off the
  /// occupancy board, no per-cell work.
  bool occupancyDisjoint(Addr A, Addr B, uint64_t Size) const;

  /// Ids of live objects intersecting [Start, Start + Size), in address
  /// order. O(pages + matches).
  std::vector<ObjectId> liveObjectsIn(Addr Start, uint64_t Size) const;

  /// Id of the lowest-addressed live object starting at or above \p A, or
  /// InvalidObjectId when none exists. O(words scanned); lets compactors
  /// walk the heap in address order without snapshotting the whole live
  /// set.
  ObjectId firstLiveAt(Addr A) const;

private:
  /// One page of the start board: bit A set iff a live object starts at
  /// A, with IdAt naming it. IdAt is meaningful only under set bits, so
  /// it is left uninitialized and costs memory only where it is written.
  struct StartPage {
    uint64_t W[PageWords] = {};
    ObjectId IdAt[PageBits];
  };

  /// Id of the live object starting at \p Address (which must carry a
  /// start bit).
  ObjectId idStartingAt(Addr Address) const;

  std::vector<Object> Objects;
  FreeSpaceIndex Free;
  PagedBoard<StartPage> Starts;
  HeapStats Stats;
  std::function<void(const HeapEvent &)> OnEvent;
};

} // namespace pcb

#endif // PCBOUND_HEAP_HEAP_H
