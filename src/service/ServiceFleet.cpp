//===- service/ServiceFleet.cpp - Work-stealing fleet scheduler ----------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "service/ServiceFleet.h"

#include "heap/Metrics.h"
#include "obs/Profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

using namespace pcb;

ServiceFleet::ServiceFleet(const FleetOptions &Opts) : Opts(Opts) {
  Shards.reserve(Opts.NumArenas);
  for (unsigned A = 0; A != Opts.NumArenas; ++A) {
    // Round-robin striping: arena A serves global ids A + k * NumArenas,
    // i.e. NumSessions / NumArenas sessions plus one for the first
    // NumSessions % NumArenas arenas.
    uint64_t Count = Opts.NumSessions / Opts.NumArenas +
                     (A < Opts.NumSessions % Opts.NumArenas ? 1 : 0);
    ArenaShard::EventTap Tap;
    if (Opts.ArenaTap) {
      auto Fleet = Opts.ArenaTap;
      Tap = [Fleet, A](HeapEvent &E) { return Fleet(A, E); };
    }
    Shards.push_back(std::make_unique<ArenaShard>(
        A, Count, /*FirstGlobalId=*/A, /*GlobalStride=*/Opts.NumArenas,
        Opts.Shard, std::move(Tap)));
  }
}

void ServiceFleet::run() {
  auto WallStart = std::chrono::steady_clock::now();
  uint64_t Quantum = std::max<uint64_t>(1, Opts.SliceFlushes);

  unsigned W = Opts.Threads != 0 ? Opts.Threads
                                 : std::max(1u, std::thread::hardware_concurrency());
  W = std::min(W, std::max(1u, unsigned(Shards.size())));
  UsedThreads = W;

  // One deque per worker; an arena is in exactly one deque or held by
  // exactly one worker, so shard state itself is never shared.
  struct WorkerState {
    std::mutex Mu;
    std::deque<ArenaShard *> Deque;
  };
  std::vector<std::unique_ptr<WorkerState>> Workers;
  Workers.reserve(W);
  for (unsigned I = 0; I != W; ++I)
    Workers.push_back(std::make_unique<WorkerState>());
  for (size_t A = 0; A != Shards.size(); ++A)
    Workers[A % W]->Deque.push_back(Shards[A].get());

  std::atomic<uint64_t> Remaining{Shards.size()};
  std::atomic<uint64_t> StealCount{0};
  std::atomic<uint64_t> SliceCount{0};
  std::atomic<bool> Abort{false};
  std::exception_ptr FirstExc;
  std::mutex ExcMu;

  auto worker = [&](unsigned Me) {
    Profiler LocalProf;
    ProfilerScope Scope(Opts.Prof ? &LocalProf : nullptr);
    WorkerState &Own = *Workers[Me];
    while (!Abort.load(std::memory_order_relaxed) &&
           Remaining.load(std::memory_order_relaxed) != 0) {
      ArenaShard *S = nullptr;
      {
        std::lock_guard<std::mutex> Lock(Own.Mu);
        if (!Own.Deque.empty()) {
          S = Own.Deque.front();
          Own.Deque.pop_front();
        }
      }
      if (!S) {
        // Steal from a victim's back (coldest work first).
        for (unsigned D = 1; D != W && !S; ++D) {
          WorkerState &Victim = *Workers[(Me + D) % W];
          std::lock_guard<std::mutex> Lock(Victim.Mu);
          if (!Victim.Deque.empty()) {
            S = Victim.Deque.back();
            Victim.Deque.pop_back();
          }
        }
        if (S) {
          StealCount.fetch_add(1, std::memory_order_relaxed);
          Profiler::bump(Profiler::CtrServeSteals);
        }
      }
      if (!S) {
        // Nothing runnable here, but undrained arenas are held by other
        // workers; spin politely until one re-queues or all drain.
        std::this_thread::yield();
        continue;
      }
      try {
        bool Drained = S->runSlice(Quantum);
        SliceCount.fetch_add(1, std::memory_order_relaxed);
        if (Drained) {
          Remaining.fetch_sub(1, std::memory_order_acq_rel);
        } else {
          std::lock_guard<std::mutex> Lock(Own.Mu);
          Own.Deque.push_back(S);
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> Lock(ExcMu);
          if (!FirstExc)
            FirstExc = std::current_exception();
        }
        Abort.store(true, std::memory_order_relaxed);
      }
    }
    if (Opts.Prof) {
      std::lock_guard<std::mutex> Lock(ExcMu);
      Opts.Prof->merge(LocalProf);
    }
  };

  if (W == 1) {
    worker(0);
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(W);
    for (unsigned I = 0; I != W; ++I)
      Pool.emplace_back(worker, I);
    for (std::thread &T : Pool)
      T.join();
  }

  NumSteals = StealCount.load();
  NumSlices = SliceCount.load();
  WallSecs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           WallStart)
                 .count();
  if (FirstExc)
    std::rethrow_exception(FirstExc);
}

FleetReport ServiceFleet::report() const {
  FleetReport R;
  R.NumArenas = unsigned(Shards.size());
  R.NumSessions = Opts.NumSessions;
  R.Policy = Opts.Shard.Policy;
  R.C = Opts.Shard.C;
  R.BatchSize = Opts.Shard.BatchSize;
  R.MaxResident = Opts.Shard.MaxResident;
  R.SessionOps = Opts.Shard.Session.TargetOps;
  R.Seed = Opts.Shard.Session.FleetSeed;
  R.ArenaRowLimit = Opts.ArenaRowLimit;

  std::vector<double> Frags, Utils, Footprints;
  Frags.reserve(Shards.size());
  Utils.reserve(Shards.size());
  Footprints.reserve(Shards.size());

  for (const std::unique_ptr<ArenaShard> &SP : Shards) {
    const ArenaShard &S = *SP;
    ArenaSummary A;
    A.ArenaId = S.arenaId();
    A.Sessions = S.sessionsRetired();
    A.Flushes = S.flushes();
    A.OpsApplied = S.opsApplied();
    A.Stats = S.heap().stats();
    A.Frag = measureFragmentation(S.heap());
    A.PeakFragmentation = S.peakFragmentation();
    A.MeanUtilization = S.meanUtilization();
    const CompactionLedger &L = S.manager().ledger();
    A.BudgetAllowedWords = L.isUnlimited() ? 0 : L.budgetWords();
    A.BudgetBurn = A.BudgetAllowedWords != 0
                       ? double(A.Stats.MovedWords) /
                             double(A.BudgetAllowedWords)
                       : 0.0;
    A.NumViolations = S.violations().size();
    R.Arenas.push_back(A);

    R.TotalFootprintWords += A.Stats.HighWaterMark;
    R.TotalLiveWords += A.Stats.LiveWords;
    R.TotalAllocatedWords += A.Stats.TotalAllocatedWords;
    R.TotalMovedWords += A.Stats.MovedWords;
    R.TotalAllocations += A.Stats.NumAllocations;
    R.TotalFrees += A.Stats.NumFrees;
    R.TotalMoves += A.Stats.NumMoves;
    R.TotalSessions += A.Sessions;
    R.TotalFlushes += A.Flushes;
    R.TotalOpsApplied += A.OpsApplied;
    R.BudgetAllowedWords += A.BudgetAllowedWords;

    Frags.push_back(A.PeakFragmentation);
    Utils.push_back(A.MeanUtilization);
    Footprints.push_back(double(A.Stats.HighWaterMark));

    for (const Violation &V : S.violations())
      R.Violations.push_back(FleetViolation{S.arenaId(), V});
  }

  R.P50Fragmentation = percentileNearestRank(Frags, 0.50);
  R.P99Fragmentation = percentileNearestRank(Frags, 0.99);
  R.P99FootprintWords = uint64_t(percentileNearestRank(Footprints, 0.99));
  if (!Utils.empty()) {
    double Sum = 0.0;
    for (double U : Utils)
      Sum += U;
    R.MeanUtilization = Sum / double(Utils.size());
  }
  R.BudgetBurn = R.BudgetAllowedWords != 0
                     ? double(R.TotalMovedWords) / double(R.BudgetAllowedWords)
                     : 0.0;

  // Epoch-aligned fleet timeline: epoch k sums every arena's point at
  // min(k, last). Arenas sample on the same retired-sessions cadence, so
  // epochs line up; a shorter arena contributes its drained endpoint to
  // later epochs.
  size_t Epochs = 0;
  for (const std::unique_ptr<ArenaShard> &SP : Shards)
    Epochs = std::max(Epochs, SP->timeline().size());
  for (size_t K = 0; K != Epochs; ++K) {
    TimelinePoint P;
    for (const std::unique_ptr<ArenaShard> &SP : Shards) {
      const std::vector<TimelinePoint> &Pts = SP->timeline().points();
      if (Pts.empty())
        continue;
      const TimelinePoint &Q = Pts[std::min(K, Pts.size() - 1)];
      P.Step += Q.Step;
      P.FootprintWords += Q.FootprintWords;
      P.LiveWords += Q.LiveWords;
      P.FreeWords += Q.FreeWords;
      P.FreeBlocks += Q.FreeBlocks;
      P.LargestFreeBlock = std::max(P.LargestFreeBlock, Q.LargestFreeBlock);
      P.AllocatedWords += Q.AllocatedWords;
      P.MovedWords += Q.MovedWords;
      P.BudgetWords += Q.BudgetWords;
    }
    P.Utilization = utilization(P.LiveWords, P.FootprintWords);
    P.ExternalFragmentation =
        externalFragmentation(P.LargestFreeBlock, P.FreeWords);
    R.FleetTimeline.addPoint(P);
  }

  return R;
}
