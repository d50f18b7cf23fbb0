//===- bench/bench_fleet.cpp - E14: fleet service-mode throughput --------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Drives the service layer end to end: for each arena count in arenas=,
// a ServiceFleet drains sessions= lightweight mutator sessions through
// the work-stealing scheduler and reports the fleet's footprint and
// fragmentation percentiles. The table shows how sharding one workload
// over more arenas trades total footprint against per-arena
// fragmentation (the Compact-fit per-thread-arena question) under a
// fixed c-partial budget.
//
// Usage: bench_fleet [arenas=1,4,8] [sessions=100000] [policy=evacuating]
//                    [c=50] [batch=16] [resident=8] [ops=48] [maxlog=6]
//                    [seed=1] [threads=0] [csv=0] [json=0] [out=]
//                    [bench-json=FILE]
//
// The results table on stdout is byte-identical across thread counts
// (the determinism test diffs it).
// bench-json=FILE writes the fleets' work golden: the applied-op total,
// the section call counts (serve.flush included) and the work counters
// but the schedule-dependent serve.steals (bench/BenchUtils.h).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/CompactionLedger.h"
#include "runner/ResultSink.h"
#include "service/ServiceFleet.h"
#include "support/OptionParser.h"
#include "support/Table.h"

#include <iostream>

using namespace pcb;

int main(int argc, char **argv) {
  OptionParser Opts(argc, argv);
  std::vector<double> ArenaCounts =
      parseNumberList(Opts.getString("arenas", "1,4,8"), "arenas");
  uint64_t Sessions = Opts.getUInt("sessions", 100000);
  std::string BenchJsonPath = Opts.getString("bench-json", "");

  FleetOptions Base;
  Base.NumSessions = Sessions;
  Base.Threads = Opts.getUnsigned("threads", 0);
  Base.SliceFlushes = std::max<uint64_t>(1, Opts.getUInt("slice", 32));
  Base.Shard.Policy = Opts.getString("policy", "evacuating");
  Base.Shard.C = getQuota(Opts, 50.0);
  Base.Shard.BatchSize = std::max<uint64_t>(1, Opts.getUInt("batch", 16));
  Base.Shard.MaxResident =
      std::max<uint64_t>(1, Opts.getUInt("resident", 8));
  Base.Shard.SampleEverySessions = 0; // throughput run: no timelines
  Base.Shard.Session.FleetSeed = Opts.getUInt("seed", 1);
  Base.Shard.Session.TargetOps = Opts.getUInt("ops", 48);
  Base.Shard.Session.MaxLogSize = getLog2(Opts, "maxlog", 6);
  WorkloadFuzzer::Options Generated;
  Generated.LiveBound = Base.Shard.Session.LiveBound;
  Generated.MaxLogSize = Base.Shard.Session.MaxLogSize;
  if (!paramsOk(WorkloadFuzzer::optionsError(Generated), "maxlog=",
                Generated.MaxLogSize, ", live=", Generated.LiveBound))
    return 1;

  std::cout << "# E14: fleet service mode: " << ArenaCounts.size()
            << " arena counts x " << Sessions << " sessions (policy="
            << Base.Shard.Policy << ", c=" << formatDouble(Base.Shard.C, 0)
            << ", batch=" << Base.Shard.BatchSize << ", resident="
            << Base.Shard.MaxResident << ", ops="
            << Base.Shard.Session.TargetOps << ")\n"
            << "# Sharding one workload over more arenas: total footprint"
            << " vs per-arena fragmentation percentiles.\n";

  ResultSink Sink({"arenas", "sessions", "footprint_words", "p99_footprint",
                   "frag_p50", "frag_p99", "mean_util", "moved_words",
                   "burn_%", "flushes"});

  // The fleets run profiled (serve.flush plus the substrate sections) so
  // the work golden counts the real scheduler path; the ScopedTimer
  // overhead at flush granularity is noise.
  BenchReport Report("fleet");
  uint64_t TotalOps = 0;

  for (double ArenasD : ArenaCounts) {
    FleetOptions FO = Base;
    FO.NumArenas = unsigned(ArenasD);
    if (FO.NumArenas == 0) {
      std::cerr << "error: arenas= entries must be positive\n";
      return 1;
    }
    FO.Prof = &Report.profiler();
    try {
      ServiceFleet Fleet(FO);
      Fleet.run();
      FleetReport R = Fleet.report();
      TotalOps += R.TotalOpsApplied;
      Sink.append(Row()
                      .addCell(uint64_t(FO.NumArenas))
                      .addCell(R.TotalSessions)
                      .addCell(R.TotalFootprintWords)
                      .addCell(R.P99FootprintWords)
                      .addCell(R.P50Fragmentation, 3)
                      .addCell(R.P99Fragmentation, 3)
                      .addCell(R.MeanUtilization, 3)
                      .addCell(R.TotalMovedWords)
                      .addCell(100.0 * R.BudgetBurn, 1)
                      .addCell(R.TotalFlushes));
    } catch (const std::exception &Ex) {
      std::cerr << "error: " << Ex.what() << "\n";
      return 1;
    }
  }
  if (!Sink.emit(Opts))
    return 1;

  if (!BenchJsonPath.empty() &&
      !Report.add("arenas", ArenaCounts, 0)
           .add("sessions", Sessions)
           .add("policy", Base.Shard.Policy)
           .add("batch", Base.Shard.BatchSize)
           .add("resident", Base.Shard.MaxResident)
           .add("ops", Base.Shard.Session.TargetOps)
           .add("total_steps", TotalOps)
           .write(BenchJsonPath))
    return 1;
  return 0;
}
