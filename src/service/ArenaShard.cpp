//===- service/ArenaShard.cpp - One shared-nothing fleet shard -----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "service/ArenaShard.h"

#include "heap/Metrics.h"
#include "mm/ManagerFactory.h"
#include "obs/Profiler.h"
#include "obs/TimelineSampler.h"

#include <algorithm>
#include <stdexcept>

using namespace pcb;

ArenaShard::ArenaShard(unsigned ArenaId, uint64_t NumSessions,
                       uint64_t FirstGlobalId, uint64_t GlobalStride,
                       const ShardConfig &Cfg, EventTap Tap)
    : Id(ArenaId), NumSessions(NumSessions), FirstGlobalId(FirstGlobalId),
      GlobalStride(GlobalStride == 0 ? 1 : GlobalStride), Cfg(Cfg),
      Tap(std::move(Tap)) {
  // The arena's live bound: resident sessions each respect their own.
  uint64_t LiveBound =
      std::max<uint64_t>(1, Cfg.MaxResident) * Cfg.Session.LiveBound;
  std::string Error;
  MM = createManagerChecked(Cfg.Policy, H, Cfg.C, LiveBound, &Error);
  if (!MM)
    throw std::runtime_error(Error);
  Ctrl = createControllerChecked(Cfg.Controller, &Error);
  if (!Ctrl)
    throw std::runtime_error(Error);
  MM->setSpendGate([this] { return Ctrl->consult(); });
  Ctrl->observe(sampleFromHeap(H, 0));
  if (Cfg.Audit) {
    H.setEventCallback([this](const HeapEvent &E) {
      HeapEvent Copy = E;
      if (this->Tap && !this->Tap(Copy))
        return;
      Log.record(Copy);
    });
    InvariantOracle::Options OO;
    OO.DeepCheckEvery = Cfg.DeepCheckEvery;
    Oracle = std::make_unique<InvariantOracle>(H, *MM, Log, OO);
  }
  Slots.resize(size_t(std::max<uint64_t>(1, Cfg.MaxResident)));
}

void ArenaShard::admit() {
  for (size_t S = 0; S != Slots.size() && NextToAdmit != NumSessions; ++S) {
    Resident &R = Slots[S];
    if (R.Active)
      continue;
    uint64_t GlobalId = FirstGlobalId + NextToAdmit * GlobalStride;
    ++NextToAdmit;
    R.Ops = generateSessionTrace(Cfg.Session, GlobalId);
    if (R.Ops.empty()) {
      // Degenerate empty session: retires at admission. Re-examine this
      // slot for the next pending session.
      ++Retired;
      Profiler::bump(Profiler::CtrServeSessions);
      sampleTimeline();
      --S;
      continue;
    }
    R.Active = true;
    R.GlobalId = GlobalId;
    R.Enqueued = 0;
    R.Applied = 0;
    R.AllocIds.clear();
    ++NumResident;
  }
}

void ArenaShard::fillBatch() {
  admit();
  while (Pending.size() < size_t(std::max<uint64_t>(1, Cfg.BatchSize))) {
    // Round-robin: the next resident session with an unqueued op submits
    // exactly one request per turn.
    bool Found = false;
    for (size_t Probe = 0; Probe != Slots.size(); ++Probe) {
      size_t S = (Cursor + Probe) % Slots.size();
      Resident &R = Slots[S];
      if (!R.Active || R.Enqueued == R.Ops.size())
        continue;
      Pending.push_back(Request{uint32_t(S), R.Ops[R.Enqueued]});
      ++R.Enqueued;
      Cursor = (S + 1) % Slots.size();
      Found = true;
      break;
    }
    if (!Found)
      break; // starved: every resident op is already queued
  }
}

void ArenaShard::flush() {
  ScopedTimer Timer(Profiler::SecServeFlush);
  for (const Request &Q : Pending) {
    Resident &R = Slots[Q.Slot];
    if (Q.Op.Op == TraceOp::Kind::Alloc) {
      R.AllocIds.push_back(MM->allocate(Q.Op.Value));
    } else {
      MM->free(R.AllocIds[size_t(Q.Op.Value)]);
    }
    ++R.Applied;
    ++OpsApplied;
    if (R.Applied == R.Ops.size()) {
      // The queue holds no further requests for this slot (requests
      // apply in submission order), so the slot is safely reusable at
      // the next admission.
      R.Active = false;
      R.Ops.clear();
      R.AllocIds.clear();
      --NumResident;
      ++Retired;
      Profiler::bump(Profiler::CtrServeSessions);
      sampleTimeline();
    }
  }
  Pending.clear();
  ++NumFlushes;
  Profiler::bump(Profiler::CtrServeFlushes);
  // The controller observes at flush granularity: a pure function of the
  // shard's fixed schedule, never of slicing or stealing.
  Ctrl->observe(sampleFromHeap(H, NumFlushes));
  // Flush-boundary fragmentation telemetry. The drained endpoint has no
  // live words, so percentile reporting uses these peaks/means instead.
  // Utilization is O(1); the peak costs one firstFit query, and a walk
  // for the largest block only when this flush could raise it.
  PeakFrag = maxExternalFragmentation(H, PeakFrag);
  UtilSum += utilization(H.stats().LiveWords, H.stats().HighWaterMark);
  if (Oracle && Violations.size() < MaxViolationsPerRun) {
    Oracle->checkStep(NumFlushes, Violations);
    if (Violations.size() > MaxViolationsPerRun)
      Violations.resize(MaxViolationsPerRun);
  }
}

void ArenaShard::sampleTimeline() {
  if (Cfg.SampleEverySessions == 0 || Retired % Cfg.SampleEverySessions != 0)
    return;
  recordTimelinePoint();
}

void ArenaShard::recordTimelinePoint() {
  recordHeapState(TL, Retired, H, MM->ledger());
}

bool ArenaShard::runSlice(uint64_t MaxFlushes) {
  for (uint64_t F = 0; F != MaxFlushes; ++F) {
    if (drained())
      break;
    fillBatch();
    if (Pending.empty())
      break; // nothing left to apply: drained (or all sessions empty)
    flush();
  }
  if (!drained())
    return false;
  if (!FinalCheckDone) {
    FinalCheckDone = true;
    // Endpoint timeline sample (unless the retirement cadence already
    // recorded this exact state).
    if (Cfg.SampleEverySessions != 0 &&
        (TL.empty() || TL.points().back().Step != Retired))
      recordTimelinePoint();
    // Closing deep check: the audit replay and budget history over the
    // whole recorded stream.
    if (Oracle && Violations.size() < MaxViolationsPerRun) {
      Oracle->checkDeep(NumFlushes, Violations);
      if (Violations.size() > MaxViolationsPerRun)
        Violations.resize(MaxViolationsPerRun);
    }
  }
  return true;
}
