//===- adversary/CohenPetrankProgram.h - The bad program PF -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's main construction: the malicious program PF (Algorithm 1)
/// that forces every c-partial memory manager to use a heap of at least
/// M * h words (Theorem 1).
///
/// Stage one (steps 0..sigma) runs Robson's program with ghost-object
/// bookkeeping; steps sigma+1..2*sigma-1 are null steps. At the stage
/// boundary (line 9) every f_sigma-occupying object is associated with
/// the size-2^(2*sigma-1) aligned chunk containing its occupying word.
///
/// Stage two (steps i = 2*sigma..log2(n)-2) maintains, per aligned
/// 2^i-chunk, the association set OD: it frees as many associated objects
/// as possible while keeping each chunk's associated words at least
/// 2^(i-sigma) (density 2^-sigma, chosen > 1/c so evacuating a chunk
/// costs the manager more budget than the allocation recharges), then
/// allocates floor(x*M/2^(i+2)) objects of size 2^(i+2), associating the
/// two halves of each with the first and third chunk it fully covers (the
/// middle chunk enters the E-set of Definition 4.12).
///
/// Compacted objects are freed immediately: in stage one they become
/// ghosts at their original address; in stage two their association
/// entries remain (as phantoms) until a new object overwrites the chunk,
/// exactly as Definition 4.14's accounting requires.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_ADVERSARY_COHENPETRANKPROGRAM_H
#define PCBOUND_ADVERSARY_COHENPETRANKPROGRAM_H

#include "adversary/RobsonCore.h"

#include <array>
#include <vector>

namespace pcb {

/// The Cohen-Petrank adversary PF.
class CohenPetrankProgram : public Program {
public:
  /// Knobs for the ablation study (bench E7). Defaults reproduce the
  /// paper's Algorithm 1.
  struct Options {
    /// Density exponent sigma; 0 selects the h-maximizing admissible
    /// value automatically.
    unsigned SigmaOverride = 0;
    /// Stage-one ghost bookkeeping (the reduction to Robson's analysis).
    bool TrackGhosts = true;
    /// Run Robson's program as stage one (the paper's first improvement
    /// over POPL 2011). When false, stage one only fills the heap with
    /// unit objects and stage two starts from a flat association — the
    /// prior work's style of adversary.
    bool RobsonBootstrap = true;
    /// Keep chunk density at 2^-sigma; when false the program frees
    /// everything it can (density 1 word), as a naive adversary would.
    bool MaintainDensity = true;
    /// Allocate the fixed x*M words per stage-two step (the paper's
    /// second improvement over POPL 2011); when false, allocate as much
    /// as the live bound allows.
    bool FixedAllocation = true;
  };

  /// \p M and \p N are the live bound and maximum object size in words
  /// (N a power of two); \p C the manager's compaction quota.
  /// The parameters must pass paramsError (asserted).
  CohenPetrankProgram(uint64_t M, uint64_t N, double C);
  CohenPetrankProgram(uint64_t M, uint64_t N, double C, const Options &O);

  /// Why the construction cannot run at (\p M, \p N, \p C), or nullptr
  /// when it can: N a power of two of at least 16 words (stage two needs
  /// log2(n) >= 4), M >= N a power of two (the bound formulas' domain),
  /// and c large enough for sigma = 1 (2 <= 3c/4).
  static const char *paramsError(uint64_t M, uint64_t N, double C);

  bool step(MutatorContext &Ctx) override;
  bool onObjectMoved(ObjectId Id, Addr From, Addr To) override;
  std::string name() const override { return "cohen-petrank"; }

  /// The density exponent in use.
  unsigned sigma() const { return Sigma; }
  /// The per-step allocation factor x = (1 - 2^-sigma * h) / (sigma + 1).
  double allocationFactor() const { return X; }
  /// The waste factor h Theorem 1 predicts for these parameters.
  double targetWasteFactor() const { return TargetH; }
  unsigned currentStep() const { return Step; }
  bool inStageTwo() const { return Phase == PhaseKind::StageTwo; }
  uint64_t numTrackedChunks() const { return Chunks.size(); }

  /// The potential function u(t) of Definition 4.4, in words. Defined
  /// once stage two has started (returns 0 before). Claim 4.16 asserts it
  /// never decreases; the property tests verify that.
  double potential() const;

  /// Claim 4.15: association sets are disjoint, every live object is
  /// associated whole with one chunk or half-and-half with two, and live
  /// associated objects intersect their chunk.
  bool checkAssociationInvariants() const;

  /// Proposition 4.17-style bound: every tracked chunk holds at most one
  /// live associated object, or at most 2 * 2^(step - sigma) live
  /// associated words. Holds after each completed stage-two step (the
  /// proposition speaks about allocation time, i.e. after the free
  /// pass); trivially true before then or without MaintainDensity.
  bool checkDensityInvariant() const;

private:
  enum class PhaseKind { StageOne, NullSteps, StageTwo, Done };

  /// One association record: \p Words of object \p Id are associated with
  /// the containing chunk (half objects carry half their size). Phantom
  /// entries denote compacted-then-freed objects whose association
  /// persists until the chunk is overwritten.
  struct Entry {
    ObjectId Id;
    uint64_t Words;
    bool Phantom;
  };

  struct ChunkState {
    std::vector<Entry> Entries;
    uint64_t AssocWords = 0;
    bool InE = false;
  };

  static constexpr uint64_t NoChunk = UINT64_MAX;

  void advancePhase(MutatorContext &Ctx);
  void buildInitialAssociation(MutatorContext &Ctx); // Algorithm 1 line 9
  void mergeChunksTo(unsigned NewLog);               // line 12
  void normalizeChunk(ChunkState &CS);
  void rebuildWhere();
  void freeForDensity(MutatorContext &Ctx, unsigned I); // line 13
  void reevaluateChunk(MutatorContext &Ctx, uint64_t Index, uint64_t T,
                       std::vector<uint64_t> &Worklist);
  void allocateStageTwo(MutatorContext &Ctx, unsigned I); // line 14
  void clearChunkForOverwrite(uint64_t Index);

  uint64_t M;
  uint64_t N;
  double C;
  Options Opts;
  unsigned LogN;
  unsigned Sigma = 0;
  double TargetH = 1.0;
  double X = 0.0;
  unsigned Step = 0;
  PhaseKind Phase = PhaseKind::StageOne;
  RobsonCore Core;
  unsigned CurLog = 0;
  bool RanStageTwoStep = false;
  /// Chunk index -> its association set, for the aligned 2^CurLog-chunks
  /// that tile [0, HS). A flat table grown on demand: a chunk never
  /// associated keeps its default state (no entries, not in E), which
  /// adds nothing to the potential, the invariants or the density pass.
  std::vector<ChunkState> Chunks;
  /// Object id -> the one or two chunk indices it is associated with,
  /// indexed by id ({NoChunk, NoChunk} = not associated; slot 0 always
  /// names a real chunk otherwise). A flat table: ids are dense and the
  /// lookups (every move, every density free) are pure keyed access.
  std::vector<std::array<uint64_t, 2>> Where;
  const Heap *TheHeap = nullptr;

  /// Chunks[Index], growing the table as needed.
  ChunkState &chunkSlot(uint64_t Index) {
    if (Index >= Chunks.size())
      Chunks.resize(size_t(Index) + 1);
    return Chunks[Index];
  }
  /// Where[Id], growing the table as needed.
  std::array<uint64_t, 2> &whereSlot(ObjectId Id) {
    if (Id >= Where.size())
      Where.resize(size_t(Id) + 1, {NoChunk, NoChunk});
    return Where[Id];
  }
  bool isAssociated(ObjectId Id) const {
    return Id < Where.size() && Where[Id][0] != NoChunk;
  }
};

} // namespace pcb

#endif // PCBOUND_ADVERSARY_COHENPETRANKPROGRAM_H
