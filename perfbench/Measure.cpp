//===- perfbench/Measure.cpp - Spans, latency histograms, digests ---------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "support/BitOps.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace perfbench;
using pcb::Profiler;

namespace {

constexpr unsigned SubBits = 6;
constexpr uint64_t SubBuckets = uint64_t(1) << SubBits;
// Exact buckets below 64 ns, then 64 per octave up to 2^64 ns.
constexpr size_t NumBuckets = size_t((64 - SubBits + 1) * SubBuckets);

size_t bucketOf(uint64_t Ns) {
  if (Ns < SubBuckets)
    return size_t(Ns);
  unsigned Exp = 63u - unsigned(__builtin_clzll(Ns));
  unsigned Shift = Exp - SubBits;
  uint64_t Mantissa = (Ns >> Shift) & (SubBuckets - 1);
  return size_t(Exp - SubBits + 1) * SubBuckets + size_t(Mantissa);
}

double bucketMidpoint(size_t Index) {
  if (Index < SubBuckets)
    return double(Index);
  unsigned Shift = unsigned(Index / SubBuckets) - 1;
  uint64_t Mantissa = Index % SubBuckets;
  double Low = std::ldexp(double(SubBuckets + Mantissa), int(Shift));
  return Low + std::ldexp(0.5, int(Shift));
}

} // namespace

LatencyHistogram::LatencyHistogram() : Counts(NumBuckets, 0) {}

void LatencyHistogram::add(uint64_t Ns) {
  ++Counts[bucketOf(Ns)];
  ++Total;
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  for (size_t I = 0; I != NumBuckets; ++I)
    Counts[I] += Other.Counts[I];
  Total += Other.Total;
}

double LatencyHistogram::percentile(double P) const {
  if (Total == 0)
    return 0.0;
  uint64_t Rank = uint64_t(std::ceil(P * double(Total)));
  Rank = std::max<uint64_t>(1, std::min(Rank, Total));
  uint64_t Seen = 0;
  for (size_t I = 0; I != NumBuckets; ++I) {
    Seen += Counts[I];
    if (Seen >= Rank)
      return bucketMidpoint(I);
  }
  return bucketMidpoint(NumBuckets - 1);
}

Digest &Digest::add(const std::string &Text) {
  for (unsigned char Ch : Text) {
    H ^= Ch;
    H *= 0x100000001b3ULL;
  }
  H ^= 0xff; // field separator
  H *= 0x100000001b3ULL;
  return *this;
}

Digest &Digest::add(double Value) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return add(std::string(Buf));
}

std::string Digest::hex() const {
  char Buf[20];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

void CallStats::merge(const CallStats &O) {
  Steps += O.Steps;
  StepNs += O.StepNs;
  Allocs += O.Allocs;
  AllocNs += O.AllocNs;
  Frees += O.Frees;
  FreeNs += O.FreeNs;
  MovedCalls += O.MovedCalls;
  MovedNs += O.MovedNs;
  PlaceSelfNs += O.PlaceSelfNs;
  MmSelfNs += O.MmSelfNs;
  CompactSelfNs += O.CompactSelfNs;
  CompactNs += O.CompactNs;
  NestedFrees += O.NestedFrees;
}

bool TimedProgram::step(pcb::MutatorContext &OuterCtx) {
  Outer = &OuterCtx;
  if (!Traced)
    return Inner.step(Ctx);
  uint64_t Start = nowNs();
  bool More = Inner.step(Ctx);
  Stats.StepNs += nowNs() - Start;
  ++Stats.Steps;
  return More;
}

bool TimedProgram::onObjectMoved(pcb::ObjectId Id, pcb::Addr From,
                                 pcb::Addr To) {
  if (!Traced)
    return Inner.onObjectMoved(Id, From, To);
  uint64_t Start = nowNs();
  bool FreeIt = Inner.onObjectMoved(Id, From, To);
  Stats.MovedNs += nowNs() - Start;
  ++Stats.MovedCalls;
  return FreeIt;
}

TimedProgram::Snapshot TimedProgram::snapshot() const {
  Snapshot S;
  const Profiler *P = Profiler::current();
  if (!P)
    return S;
  S.Place = P->section(Profiler::SecHeapPlace).Nanos;
  S.Free = P->section(Profiler::SecHeapFree).Nanos;
  S.FreeCalls = P->section(Profiler::SecHeapFree).Calls;
  S.Move = P->section(Profiler::SecHeapMove).Nanos;
  S.Compact = P->section(Profiler::SecCompaction).Nanos;
  S.Trigger = P->section(Profiler::SecChunkTrigger).Nanos;
  S.TriggerCalls = P->section(Profiler::SecChunkTrigger).Calls;
  S.Realloc = P->section(Profiler::SecRealloc).Nanos;
  S.MovedNs = Stats.MovedNs;
  return S;
}

// Nesting as the code has it: an allocate span holds the manager's
// placement search, at most one outermost compaction section
// (mm.chunk_trigger encloses mm.compact for the chunked manager) and the
// final heap.place; a free span holds heap.free and, for reallocation
// managers, the outermost mm.realloc. Moves, the adversary's
// onObjectMoved and the frees it requests all run inside a compaction or
// realloc section.
void TimedProgram::closeSpan(bool IsAlloc, uint64_t SpanNs,
                             const Snapshot &Before) {
  Snapshot After = snapshot();
  int64_t Place = int64_t(After.Place - Before.Place);
  int64_t Free = int64_t(After.Free - Before.Free);
  int64_t Move = int64_t(After.Move - Before.Move);
  int64_t Compaction =
      int64_t(After.TriggerCalls != Before.TriggerCalls
                  ? After.Trigger - Before.Trigger
                  : After.Compact - Before.Compact) +
      int64_t(After.Realloc - Before.Realloc);
  int64_t Moved = int64_t(After.MovedNs - Before.MovedNs);
  int64_t OwnHeap = IsAlloc ? Place : Free;
  int64_t NestedHeap = IsAlloc ? Free + Move : Move;
  if (!IsAlloc && After.FreeCalls - Before.FreeCalls > 1)
    ++Stats.NestedFrees;
  int64_t Self = int64_t(SpanNs) - OwnHeap - Compaction;
  Stats.MmSelfNs += Self;
  if (IsAlloc)
    Stats.PlaceSelfNs += Self;
  Stats.CompactSelfNs += Compaction - NestedHeap - Moved;
  Stats.CompactNs += uint64_t(Compaction);
}

void TimedProgram::logCall(uint64_t Start, uint64_t End, bool IsFree) {
  if (SegOpenCalls == 0)
    SegStart = Start;
  uint64_t Ns = std::min<uint64_t>(End - Start, CallLog::FreeBit - 1);
  Log.CallNs.push_back(uint32_t(Ns) | (IsFree ? CallLog::FreeBit : 0));
  LastEnd = End;
  if (++SegOpenCalls == CallLog::SegmentCalls) {
    finish();
    SegStart = End;
  }
}

void TimedProgram::finish() {
  if (SegOpenCalls == 0)
    return;
  Log.SegCalls.push_back(SegOpenCalls);
  Log.SegNs.push_back(LastEnd - SegStart);
  SegOpenCalls = 0;
}

pcb::ObjectId TimedProgram::Context::allocate(uint64_t Size) {
  TimedProgram &O = Owner;
  Snapshot Before;
  if (O.Traced)
    Before = O.snapshot();
  uint64_t Start = nowNs();
  pcb::ObjectId Id = O.Outer->allocate(Size);
  uint64_t End = nowNs();
  uint64_t Span = End - Start;
  O.logCall(Start, End, /*IsFree=*/false);
  ++O.Stats.Allocs;
  O.Stats.AllocNs += Span;
  if (O.Traced)
    O.closeSpan(/*IsAlloc=*/true, Span, Before);
  return Id;
}

void TimedProgram::Context::free(pcb::ObjectId Id) {
  TimedProgram &O = Owner;
  Snapshot Before;
  if (O.Traced)
    Before = O.snapshot();
  uint64_t Start = nowNs();
  O.Outer->free(Id);
  uint64_t End = nowNs();
  uint64_t Span = End - Start;
  O.logCall(Start, End, /*IsFree=*/true);
  ++O.Stats.Frees;
  O.Stats.FreeNs += Span;
  if (O.Traced)
    O.closeSpan(/*IsAlloc=*/false, Span, Before);
}

std::string perfbench::machineDescription() {
  std::string Cpu = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  unsigned MaxExt = __get_cpuid_max(0x80000000u, nullptr);
  if (MaxExt >= 0x80000004u) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002u + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    Cpu = Brand;
    size_t First = Cpu.find_first_not_of(' ');
    Cpu = First == std::string::npos ? "unknown" : Cpu.substr(First);
  }
  bool CpuAvx2 = __builtin_cpu_supports("avx2");
#else
  bool CpuAvx2 = false;
#endif
#ifdef NDEBUG
  const char *Asserts = "off";
#else
  const char *Asserts = "on";
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + Cpu + "\" avx2_cpu=" + (CpuAvx2 ? "on" : "off") +
         " avx2_kernels=" + (pcb::avx2ScanActive() ? "on" : "off") +
         " build=" + PERFBENCH_BUILD_TYPE + " assertions=" + Asserts +
         " compiler=\"" + __VERSION__ + "\"";
}

double perfbench::peakRssMb() {
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}
