//===- perfbench/Measure.h - Spans, latency histograms, digests -*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's measuring tools. Everything here times calls *into*
/// the pcbound layers from the benchmark's own code; nothing is added to
/// the libraries.
///
///  - LatencyHistogram: per-call latencies at 1/64-octave resolution
///    (about 1.6%), so percentiles are resolved far finer than the
///    benchmark's regression bounds.
///  - CallLog: every timed call's latency, cut into fixed segments of
///    calls, so each call's and each segment's fastest pass can be picked
///    on its own.
///  - TimedProgram: wraps the real Program and hands it a MutatorContext
///    that forwards to the real Execution, so every check Execution runs
///    stays in place while the wrapper times Program::step, each
///    MemoryManager::allocate/free (into a CallLog) and
///    Program::onObjectMoved. Traced, it also splits each allocate/free
///    span into its manager, compaction and heap parts from the installed
///    Profiler's section totals.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include "adversary/Program.h"
#include "obs/Profiler.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Log-linear histogram of nanosecond latencies: exact below 64 ns, then
/// 64 buckets per power of two.
class LatencyHistogram {
public:
  LatencyHistogram();
  void add(uint64_t Ns);
  void merge(const LatencyHistogram &Other);
  uint64_t count() const { return Total; }
  /// Nearest-rank percentile (\p P in (0, 1]) as the midpoint of the
  /// bucket holding it; 0 when empty.
  double percentile(double P) const;

private:
  std::vector<uint64_t> Counts;
  uint64_t Total = 0;
};

/// 64-bit FNV-1a, for the deterministic-result digests.
class Digest {
public:
  Digest &add(const std::string &Text);
  Digest &add(uint64_t Value) { return add(std::to_string(Value)); }
  /// Doubles enter at full precision.
  Digest &add(double Value);
  std::string hex() const;

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// Every allocate/free call the wrapper timed for one unit, in call order,
/// cut into segments of SegmentCalls calls. A unit's calls are the same on
/// every pass, so call I and segment K are the same work on every pass and
/// their fastest instances can be picked on their own (see main.cpp).
struct CallLog {
  static constexpr uint32_t SegmentCalls = 4096;
  static constexpr uint32_t FreeBit = 1u << 31;
  /// Per call: nanoseconds (saturated below FreeBit), FreeBit set on free.
  std::vector<uint32_t> CallNs;
  /// Per segment: its calls and its nanoseconds, from the start of its
  /// first call (or the end of the segment before) to the end of its last.
  std::vector<uint32_t> SegCalls;
  std::vector<uint64_t> SegNs;
};

/// What the wrapper measured over one execution.
struct CallStats {
  uint64_t Steps = 0, StepNs = 0;
  uint64_t Allocs = 0, AllocNs = 0;
  uint64_t Frees = 0, FreeNs = 0;
  uint64_t MovedCalls = 0, MovedNs = 0; ///< onObjectMoved
  // Traced only: each allocate/free span split by the Profiler sections
  // that ran inside it (see TimedProgram::closeSpan).
  int64_t PlaceSelfNs = 0;   ///< allocate minus heap.place and compaction
  int64_t MmSelfNs = 0;      ///< allocate+free minus heap and compaction
  int64_t CompactSelfNs = 0; ///< compaction minus its heap ops and callbacks
  uint64_t CompactNs = 0;    ///< outermost compaction/realloc sections
  uint64_t NestedFrees = 0;  ///< free spans whose heap.free count was > 1

  void merge(const CallStats &O);
};

/// The Program wrapper; see the file comment. Latencies always go to the
/// call log; \p Traced additionally records step and callback spans and
/// the per-call section split (a Profiler must then be installed).
class TimedProgram final : public pcb::Program {
public:
  TimedProgram(pcb::Program &Inner, bool Traced, CallLog &Log)
      : Inner(Inner), Traced(Traced), Log(Log), Ctx(*this) {}

  bool step(pcb::MutatorContext &Outer) override;
  bool onObjectMoved(pcb::ObjectId Id, pcb::Addr From, pcb::Addr To) override;
  std::string name() const override { return Inner.name(); }

  /// Closes the open segment; call once the execution has ended.
  void finish();

  const CallStats &stats() const { return Stats; }

private:
  /// The context handed to the wrapped program: forwards to the real
  /// Execution, timing each allocate/free.
  class Context final : public pcb::MutatorContext {
  public:
    explicit Context(TimedProgram &Owner) : Owner(Owner) {}
    pcb::ObjectId allocate(uint64_t Size) override;
    void free(pcb::ObjectId Id) override;
    const pcb::Heap &heap() const override { return Owner.Outer->heap(); }
    uint64_t liveBound() const override { return Owner.Outer->liveBound(); }

  private:
    TimedProgram &Owner;
  };

  /// Section totals read at a span boundary.
  struct Snapshot {
    uint64_t Place = 0, Free = 0, FreeCalls = 0, Move = 0;
    uint64_t Compact = 0, Trigger = 0, TriggerCalls = 0, Realloc = 0;
    uint64_t MovedNs = 0;
  };
  Snapshot snapshot() const;
  void closeSpan(bool IsAlloc, uint64_t SpanNs, const Snapshot &Before);
  void logCall(uint64_t Start, uint64_t End, bool IsFree);

  pcb::Program &Inner;
  bool Traced;
  CallLog &Log;
  uint32_t SegOpenCalls = 0;
  uint64_t SegStart = 0, LastEnd = 0;
  Context Ctx;
  pcb::MutatorContext *Outer = nullptr;
  CallStats Stats;
};

/// Machine and build description printed with every result.
std::string machineDescription();

/// Peak resident set of this process, in MiB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
