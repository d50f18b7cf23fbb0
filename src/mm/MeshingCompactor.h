//===- mm/MeshingCompactor.h - Bitboard chunk meshing -----------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compacting manager in the style of Mesh (Powers et al., see
/// PAPERS.md): when allocation would grow the heap, scan pairs of
/// fixed-size chunks below the high-water mark for *disjoint occupancy*
/// and mesh them — move every live object of the sparser chunk to the
/// same offset in the other, which is guaranteed free by disjointness.
/// The source chunk empties wholesale and its span becomes a reusable
/// hole.
///
/// On the bitboard substrate the disjointness probe is
/// Heap::occupancyDisjoint — a word-AND per 64 addresses (with the
/// default chunk of 64 words, literally a single AND per pair). The
/// popcount of the source chunk is the exact number of words a merge
/// moves, so the c-partial ledger can be consulted before any object is
/// touched; moves are charged through tryMoveObject like every other
/// manager.
///
/// Unlike ChunkedManager the policy keeps no per-chunk metadata at all:
/// candidates, probes and merge plans are all derived from the occupancy
/// board, so the policy state cannot drift from the heap.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_MM_MESHINGCOMPACTOR_H
#define PCBOUND_MM_MESHINGCOMPACTOR_H

#include "mm/MemoryManager.h"

namespace pcb {

/// First fit plus budgeted meshing of occupancy-disjoint chunk pairs.
class MeshingCompactor : public MemoryManager {
public:
  struct Options {
    /// log2 of the mesh chunk size in words. At the default 6 one chunk
    /// is one occupancy word and a pair probe is a single AND.
    unsigned ChunkLog = 6;
  };

  MeshingCompactor(Heap &H, double C) : MemoryManager(H, C) { checkOpts(); }
  MeshingCompactor(Heap &H, double C, const Options &O)
      : MemoryManager(H, C), Opts(O) {
    checkOpts();
  }

  std::string name() const override { return "meshing"; }

  uint64_t chunkSize() const { return uint64_t(1) << Opts.ChunkLog; }
  uint64_t numMerges() const { return NumMerges; }
  uint64_t numProbes() const { return NumProbes; }

  /// Meshes chunk \p Src into chunk \p Dst: every live object of Src
  /// moves to the same offset in Dst. Requires (asserted) a non-empty,
  /// self-contained source, disjoint occupancy, and enough budget —
  /// meshPass() only calls it with all four established. False when a
  /// spend gate closed mid-merge: the partial merge is still a valid
  /// heap, but the pass must stop probing. Public so the edge-case tests
  /// (merge target at AddrLimit, double-merge death test) can drive a
  /// merge directly.
  bool mergeChunks(uint64_t Src, uint64_t Dst);

  /// Runs one mesh pass (normally triggered by allocation pressure);
  /// true when at least one pair merged. Public for tests.
  bool meshPass();

protected:
  Addr placeFor(uint64_t Size) override;

private:
  void checkOpts() const;

  Addr startOf(uint64_t Index) const { return Index << Opts.ChunkLog; }

  /// True when no live object straddles the chunk's start or end
  /// boundary — only such chunks may be mesh sources (a straddler cannot
  /// move to "the same offset" of another chunk).
  bool chunkSelfContained(uint64_t Index) const;

  Options Opts;
  uint64_t NumMerges = 0;
  uint64_t NumProbes = 0;
  /// heapChangeSignature() at the last merge-less pass.
  uint64_t FailedPassSignature = UINT64_MAX;
};

} // namespace pcb

#endif // PCBOUND_MM_MESHINGCOMPACTOR_H
