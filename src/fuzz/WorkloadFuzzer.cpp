//===- fuzz/WorkloadFuzzer.cpp - Random schedule generation --------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "fuzz/WorkloadFuzzer.h"

#include "driver/Execution.h"
#include "mm/SequentialFitManagers.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>

using namespace pcb;

std::vector<TraceOp>
FuzzSchedule::materialize(const std::vector<bool> *Keep) const {
  assert((!Keep || Keep->size() == Ops.size()) && "keep mask size mismatch");
  std::vector<TraceOp> Trace;
  Trace.reserve(Ops.size());
  // Ordinal the Pos-th schedule op's allocation got, if kept.
  std::vector<uint64_t> Ordinal(Ops.size(), UINT64_MAX);
  uint64_t Next = 0;
  for (size_t Pos = 0; Pos != Ops.size(); ++Pos) {
    if (Keep && !(*Keep)[Pos])
      continue;
    const FuzzOp &Op = Ops[Pos];
    switch (Op.Op) {
    case FuzzOp::Kind::Alloc:
      Ordinal[Pos] = Next++;
      Trace.push_back(TraceOp::alloc(Op.Size));
      break;
    case FuzzOp::Kind::Free:
      assert(Op.AllocPos < Pos && "free precedes its allocation");
      if (Ordinal[Op.AllocPos] != UINT64_MAX)
        Trace.push_back(TraceOp::release(Ordinal[Op.AllocPos]));
      break;
    }
  }
  return Trace;
}

FuzzSchedule FuzzSchedule::subset(const std::vector<bool> &Keep) const {
  assert(Keep.size() == Ops.size() && "keep mask size mismatch");
  FuzzSchedule Out;
  Out.Seed = Seed;
  Out.Pattern = Pattern;
  std::vector<size_t> NewPos(Ops.size(), SIZE_MAX);
  for (size_t Pos = 0; Pos != Ops.size(); ++Pos) {
    if (!Keep[Pos])
      continue;
    const FuzzOp &Op = Ops[Pos];
    switch (Op.Op) {
    case FuzzOp::Kind::Alloc:
      NewPos[Pos] = Out.Ops.size();
      Out.Ops.push_back(Op);
      break;
    case FuzzOp::Kind::Free:
      if (NewPos[Op.AllocPos] != SIZE_MAX)
        Out.Ops.push_back(FuzzOp::release(NewPos[Op.AllocPos]));
      break;
    }
  }
  return Out;
}

FuzzSchedule pcb::scheduleFromTrace(const std::vector<TraceOp> &Trace,
                                    uint64_t Seed,
                                    const std::string &Pattern) {
  assert(validateTrace(Trace) && "schedule source trace is invalid");
  FuzzSchedule S;
  S.Seed = Seed;
  S.Pattern = Pattern;
  S.Ops.reserve(Trace.size());
  std::vector<size_t> PosOfOrdinal;
  for (const TraceOp &Op : Trace) {
    switch (Op.Op) {
    case TraceOp::Kind::Alloc:
      PosOfOrdinal.push_back(S.Ops.size());
      S.Ops.push_back(FuzzOp::alloc(Op.Value));
      break;
    case TraceOp::Kind::Free:
      S.Ops.push_back(FuzzOp::release(PosOfOrdinal[size_t(Op.Value)]));
      break;
    }
  }
  return S;
}

namespace {

/// Incrementally builds a schedule while tracking the live set, so every
/// pattern respects the live bound and never double-frees.
class ScheduleBuilder {
public:
  explicit ScheduleBuilder(uint64_t LiveBound) : LiveBound(LiveBound) {}

  size_t numOps() const { return Ops.size(); }
  size_t numLive() const { return Live.size(); }
  uint64_t liveWords() const { return LiveWords; }
  bool canAlloc(uint64_t Size) const {
    return LiveWords + Size <= LiveBound;
  }

  void alloc(uint64_t Size) {
    assert(Size != 0 && canAlloc(Size) && "builder breaks the live bound");
    Live.push_back({Ops.size(), Size});
    LiveWords += Size;
    Ops.push_back(FuzzOp::alloc(Size));
  }

  /// Frees the \p LiveIndex-th oldest live object.
  void freeAt(size_t LiveIndex) {
    assert(LiveIndex < Live.size() && "free of a dead object");
    auto [Pos, Size] = Live[LiveIndex];
    Live.erase(Live.begin() + ptrdiff_t(LiveIndex));
    LiveWords -= Size;
    Ops.push_back(FuzzOp::release(Pos));
  }

  void freeNewest() { freeAt(Live.size() - 1); }
  void freeOldest() { freeAt(0); }

  std::vector<FuzzOp> take() { return std::move(Ops); }

private:
  uint64_t LiveBound;
  uint64_t LiveWords = 0;
  std::vector<FuzzOp> Ops;
  /// (schedule position, size) of live allocations, oldest first.
  std::vector<std::pair<size_t, uint64_t>> Live;
};

using Opt = WorkloadFuzzer::Options;

/// Frees one random live object if any; returns false when none is live.
bool freeRandom(ScheduleBuilder &B, Rng &R) {
  if (B.numLive() == 0)
    return false;
  B.freeAt(size_t(R.nextBelow(B.numLive())));
  return true;
}

void genUniform(ScheduleBuilder &B, Rng &R, const Opt &O, size_t N) {
  uint64_t MaxSize = pow2(O.MaxLogSize);
  for (size_t End = B.numOps() + N; B.numOps() < End;) {
    if (B.numLive() != 0 && R.nextBool(0.45)) {
      freeRandom(B, R);
      continue;
    }
    uint64_t Size = R.nextInRange(1, MaxSize);
    if (B.canAlloc(Size))
      B.alloc(Size);
    else if (!freeRandom(B, R))
      B.alloc(1);
  }
}

void genBimodal(ScheduleBuilder &B, Rng &R, const Opt &O, size_t N) {
  uint64_t Huge = pow2(O.MaxLogSize);
  // At maxlog=0 half of Huge is 0, and objects are at least one word.
  uint64_t HugeMin = std::max<uint64_t>(1, Huge / 2);
  for (size_t End = B.numOps() + N; B.numOps() < End;) {
    if (B.numLive() != 0 && R.nextBool(0.4)) {
      freeRandom(B, R);
      continue;
    }
    uint64_t Size =
        R.nextBool(0.9) ? R.nextInRange(1, 16) : R.nextInRange(HugeMin, Huge);
    if (B.canAlloc(Size))
      B.alloc(Size);
    else if (!freeRandom(B, R))
      B.alloc(1);
  }
}

void genStackLifo(ScheduleBuilder &B, Rng &R, const Opt &O, size_t N) {
  uint64_t MaxSize = pow2(O.MaxLogSize);
  for (size_t End = B.numOps() + N; B.numOps() < End;) {
    // Ramp up a stack frame worth of objects...
    uint64_t Frame = R.nextInRange(2, 24);
    for (uint64_t I = 0; I != Frame && B.numOps() < End; ++I) {
      uint64_t Size = R.nextInRange(1, MaxSize);
      if (!B.canAlloc(Size))
        break;
      B.alloc(Size);
    }
    // ...then pop most of it, newest first.
    uint64_t Pop = B.numLive() == 0 ? 0 : R.nextBelow(B.numLive()) + 1;
    for (uint64_t I = 0; I != Pop && B.numOps() < End; ++I)
      B.freeNewest();
  }
}

void genQueueFifo(ScheduleBuilder &B, Rng &R, const Opt &O, size_t N) {
  uint64_t MaxSize = pow2(O.MaxLogSize);
  uint64_t Window = R.nextInRange(4, 64);
  for (size_t End = B.numOps() + N; B.numOps() < End;) {
    uint64_t Size = R.nextInRange(1, MaxSize);
    while (B.numOps() < End &&
           (B.numLive() >= Window || !B.canAlloc(Size))) {
      if (B.numLive() == 0) {
        Size = 1;
        break;
      }
      B.freeOldest();
    }
    if (B.numOps() < End)
      B.alloc(Size);
  }
}

void genComb(ScheduleBuilder &B, Rng &R, const Opt &O, size_t N) {
  for (size_t End = B.numOps() + N; B.numOps() < End;) {
    size_t Before = B.numOps();
    // A run of equal small teeth...
    uint64_t Tooth = R.nextInRange(1, std::min<uint64_t>(8, pow2(O.MaxLogSize)));
    size_t RunStart = B.numLive();
    uint64_t Teeth = R.nextInRange(4, 32);
    for (uint64_t I = 0; I != Teeth && B.numOps() < End; ++I) {
      if (!B.canAlloc(Tooth))
        break;
      B.alloc(Tooth);
    }
    // ...then knock out every other tooth, leaving a comb of holes...
    size_t Placed = B.numLive() - RunStart;
    for (size_t I = Placed; I > 1 && B.numOps() < End; I -= 2)
      B.freeAt(RunStart + I - 2);
    // ...that objects two sizes up cannot reuse without compaction.
    uint64_t Big = Tooth * R.nextInRange(2, 4);
    for (uint64_t I = R.nextInRange(1, 4); I != 0 && B.numOps() < End; --I) {
      if (!B.canAlloc(Big) && !freeRandom(B, R))
        break;
      if (B.canAlloc(Big))
        B.alloc(Big);
    }
    if (B.numOps() == Before)
      break; // nothing fits at this live bound; give up on the pattern
  }
}

/// Records \p P running against a first-fit manager until roughly
/// \p TargetOps alloc/free events were captured, then converts the log
/// into a schedule.
std::vector<FuzzOp> recordProgram(Program &P, uint64_t LiveBound,
                                  uint64_t TargetOps) {
  Heap H;
  FirstFitManager MM(H, /*C=*/0.0);
  EventLog Log;
  H.setEventCallback([&Log](const HeapEvent &E) { Log.record(E); });
  Execution E(MM, P, LiveBound);
  while (E.runStep() && Log.size() < TargetOps)
    ;
  FuzzSchedule S = scheduleFromTrace(Log.toTrace(), 0, "");
  return std::move(S.Ops);
}

std::vector<FuzzOp> genChurn(Rng &R, const Opt &O) {
  RandomChurnProgram::Options CO;
  CO.Steps = O.NumOps; // stopped by the op-count cap, not the step count
  CO.TargetOccupancy = 0.85;
  CO.FreeProbability = 0.3;
  CO.MaxLogSize = O.MaxLogSize;
  CO.Seed = R.next();
  RandomChurnProgram P(O.LiveBound, CO);
  return recordProgram(P, O.LiveBound, O.NumOps);
}

std::vector<FuzzOp> genPhase(Rng &R, const Opt &O) {
  MarkovPhaseProgram::Options PO;
  PO.Phases = O.NumOps;
  PO.StepsPerPhase = 6;
  PO.SurvivorFraction = 0.15;
  PO.TargetOccupancy = 0.8;
  PO.MinLogSize = 0;
  PO.MaxLogSize = O.MaxLogSize;
  PO.Seed = R.next();
  MarkovPhaseProgram P(O.LiveBound, PO);
  return recordProgram(P, O.LiveBound, O.NumOps);
}

} // namespace

const std::vector<WorkloadFuzzer::Pattern> &WorkloadFuzzer::allPatterns() {
  static const std::vector<Pattern> Patterns = {
      Pattern::Uniform, Pattern::Bimodal, Pattern::StackLifo,
      Pattern::QueueFifo, Pattern::Comb, Pattern::Churn,
      Pattern::Phase, Pattern::Mixed};
  return Patterns;
}

std::string WorkloadFuzzer::patternName(Pattern P) {
  switch (P) {
  case Pattern::Uniform:
    return "uniform";
  case Pattern::Bimodal:
    return "bimodal";
  case Pattern::StackLifo:
    return "stack-lifo";
  case Pattern::QueueFifo:
    return "queue-fifo";
  case Pattern::Comb:
    return "comb";
  case Pattern::Churn:
    return "churn";
  case Pattern::Phase:
    return "phase";
  case Pattern::Mixed:
    return "mixed";
  case Pattern::Trace:
    return "trace";
  }
  return "unknown";
}

const char *WorkloadFuzzer::optionsError(const Options &O) {
  if (O.MaxLogSize >= 64 || O.LiveBound < pow2(O.MaxLogSize))
    return "live bound below the largest object 2^maxlog";
  return nullptr;
}

FuzzSchedule WorkloadFuzzer::generate() const {
  assert(!optionsError(Opts) && "live bound below the largest object");
  Rng R(Opts.Seed);
  FuzzSchedule S;
  S.Seed = Opts.Seed;
  S.Pattern = patternName(Opts.P);

  if (Opts.P == Pattern::Trace) {
    assert(Opts.TraceOps && "Pattern::Trace needs Options::TraceOps");
    FuzzSchedule Full =
        scheduleFromTrace(*Opts.TraceOps, Opts.Seed, S.Pattern);
    size_t N = Full.Ops.size();
    size_t Window = std::min<size_t>(size_t(Opts.NumOps), N);
    if (Window == N)
      return Full;
    // A seeded contiguous window; subset() re-points frees and drops
    // those whose allocation fell outside, so the window is well-formed.
    size_t Start = size_t(R.nextBelow(N - Window + 1));
    std::vector<bool> Keep(N, false);
    for (size_t I = Start; I != Start + Window; ++I)
      Keep[I] = true;
    return Full.subset(Keep);
  }

  switch (Opts.P) {
  case Pattern::Churn:
    S.Ops = genChurn(R, Opts);
    return S;
  case Pattern::Phase:
    S.Ops = genPhase(R, Opts);
    return S;
  default:
    break;
  }

  ScheduleBuilder B(Opts.LiveBound);
  size_t N = size_t(Opts.NumOps);
  if (Opts.P == Pattern::Mixed) {
    while (B.numOps() < N) {
      size_t Segment = size_t(R.nextInRange(N / 8 + 1, N / 3 + 1));
      Segment = std::min(Segment, N - B.numOps());
      switch (R.nextBelow(5)) {
      case 0:
        genUniform(B, R, Opts, Segment);
        break;
      case 1:
        genBimodal(B, R, Opts, Segment);
        break;
      case 2:
        genStackLifo(B, R, Opts, Segment);
        break;
      case 3:
        genQueueFifo(B, R, Opts, Segment);
        break;
      default:
        genComb(B, R, Opts, Segment);
        break;
      }
    }
  } else if (Opts.P == Pattern::Uniform) {
    genUniform(B, R, Opts, N);
  } else if (Opts.P == Pattern::Bimodal) {
    genBimodal(B, R, Opts, N);
  } else if (Opts.P == Pattern::StackLifo) {
    genStackLifo(B, R, Opts, N);
  } else if (Opts.P == Pattern::QueueFifo) {
    genQueueFifo(B, R, Opts, N);
  } else {
    genComb(B, R, Opts, N);
  }
  S.Ops = B.take();
  return S;
}
