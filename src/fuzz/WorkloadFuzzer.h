//===- fuzz/WorkloadFuzzer.h - Random schedule generation -------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates seeded random allocate/free schedules for differential
/// fuzzing. A schedule is a list of FuzzOps: unlike TraceOp (which frees
/// by allocation ordinal), a FuzzOp free names its partner allocation by
/// *schedule position*, so any subset of a schedule remains well-formed —
/// frees whose partner was dropped simply vanish. That closure property
/// is what makes delta-debugging minimization straightforward.
///
/// Patterns cover the size and lifetime distributions that historically
/// break allocators: uniform churn with arbitrary (non-power-of-two)
/// sizes, bimodal small/large mixes, LIFO and FIFO lifetimes, a
/// fragmentation-adversarial comb (free every other small object, then
/// demand large ones), and schedules recorded from the SyntheticWorkloads
/// programs (RandomChurnProgram, MarkovPhaseProgram) so the fuzzer also
/// replays realistic phased behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_FUZZ_WORKLOADFUZZER_H
#define PCBOUND_FUZZ_WORKLOADFUZZER_H

#include "adversary/SyntheticWorkloads.h"
#include "support/Random.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pcb {

/// One operation of a fuzz schedule.
struct FuzzOp {
  enum class Kind : uint8_t { Alloc, Free };
  Kind Op = Kind::Alloc;
  uint64_t Size = 0;   ///< Alloc: words requested.
  size_t AllocPos = 0; ///< Free: schedule index of the partner Alloc.

  static FuzzOp alloc(uint64_t Size) {
    return FuzzOp{Kind::Alloc, Size, 0};
  }
  static FuzzOp release(size_t AllocPos) {
    return FuzzOp{Kind::Free, 0, AllocPos};
  }
};

/// A generated schedule plus the parameters it was generated under.
struct FuzzSchedule {
  uint64_t Seed = 0;
  std::string Pattern;
  std::vector<FuzzOp> Ops;

  size_t size() const { return Ops.size(); }

  /// Lowers the schedule — optionally restricted to the \p Keep subset of
  /// its operations — to the TraceOp list TraceReplayProgram consumes.
  /// Allocation ordinals are re-numbered densely; frees whose partner
  /// allocation is not kept are dropped.
  std::vector<TraceOp>
  materialize(const std::vector<bool> *Keep = nullptr) const;

  /// The compacted sub-schedule selected by \p Keep, with free partners
  /// re-pointed at the new positions (frees of dropped allocations are
  /// dropped too).
  FuzzSchedule subset(const std::vector<bool> &Keep) const;
};

/// Converts a plain trace into a schedule (the inverse of materialize),
/// so recorded executions can enter the shrinking pipeline. The trace
/// must be valid (validateTrace).
FuzzSchedule scheduleFromTrace(const std::vector<TraceOp> &Trace,
                               uint64_t Seed, const std::string &Pattern);

/// Seeded random schedule generator.
class WorkloadFuzzer {
public:
  enum class Pattern : uint8_t {
    Uniform,   ///< arbitrary sizes, memoryless frees
    Bimodal,   ///< many small objects, occasional huge ones
    StackLifo, ///< ramps allocated then freed newest-first
    QueueFifo, ///< sliding window freed oldest-first
    Comb,      ///< free every other small object, then demand large ones
    Churn,     ///< recorded RandomChurnProgram behaviour
    Phase,     ///< recorded MarkovPhaseProgram behaviour
    Mixed,     ///< random segments of the direct patterns above
    Trace,     ///< seeded windows of a recorded malloc trace
  };

  struct Options {
    uint64_t Seed = 1;
    /// Target schedule length (recorded patterns approximate it).
    uint64_t NumOps = 512;
    /// Cap on simultaneous live words the schedule may reach.
    uint64_t LiveBound = uint64_t(1) << 12;
    /// Largest object: 2^MaxLogSize words.
    unsigned MaxLogSize = 8;
    Pattern P = Pattern::Mixed;
    /// Pattern::Trace's source (required for it): a recorded trace in
    /// the ordinal-free TraceOp convention, shared so a corpus-sized
    /// trace is not copied per iteration. Each seed selects a different
    /// contiguous window of roughly NumOps operations; subset() closure
    /// keeps every window well-formed, and windows enter ddmin shrinking
    /// like any generated schedule.
    std::shared_ptr<const std::vector<TraceOp>> TraceOps;
  };

  explicit WorkloadFuzzer(const Options &O) : Opts(O) {}

  /// Generates the schedule determined by the options (pure function of
  /// them; calling twice yields the same schedule). The options must pass
  /// optionsError (asserted).
  FuzzSchedule generate() const;

  /// Why \p O cannot generate a schedule, or nullptr when it can: the
  /// largest object, 2^MaxLogSize words, must fit the live bound.
  static const char *optionsError(const Options &O);

  /// Every self-contained pattern, in a fixed order (used by `pcbound
  /// fuzz` to cycle patterns across iterations). Excludes Pattern::Trace,
  /// which needs an external trace to draw from.
  static const std::vector<Pattern> &allPatterns();
  static std::string patternName(Pattern P);
  /// Resolves a name from allPatterns() ("uniform", "comb", ...). On an
  /// unknown name returns false and sets \p Error to a message listing
  /// the valid ones. Pattern::Trace is not addressable by name.
  static bool patternByName(const std::string &Name, Pattern &P,
                            std::string *Error) {
    for (Pattern Cand : allPatterns())
      if (patternName(Cand) == Name) {
        P = Cand;
        return true;
      }
    if (Error) {
      *Error = "unknown pattern '" + Name + "' (one of:";
      for (Pattern Cand : allPatterns())
        Error->append(" ").append(patternName(Cand));
      *Error += ")";
    }
    return false;
  }

private:
  Options Opts;
};

} // namespace pcb

#endif // PCBOUND_FUZZ_WORKLOADFUZZER_H
