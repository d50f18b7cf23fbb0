//===- tools/CliOptions.cpp - pcbound's shared option readers -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "CliOptions.h"

#include "adversary/ProgramFactory.h"
#include "fuzz/WorkloadFuzzer.h"
#include "mm/CompactionLedger.h"
#include "mm/ManagerFactory.h"
#include "support/Table.h"
#include "trace/TraceRun.h"

#include <algorithm>
#include <fstream>
#include <iostream>

using namespace pcb;

bool pcb::checkWorkload(uint64_t LiveBound, unsigned MaxLogSize) {
  WorkloadFuzzer::Options O;
  O.LiveBound = LiveBound;
  O.MaxLogSize = MaxLogSize;
  const char *Why = WorkloadFuzzer::optionsError(O);
  if (Why)
    std::cerr << "error: " << Why << " (maxlog=" << MaxLogSize
              << ", live=" << LiveBound << ")\n";
  return !Why;
}

bool pcb::checkProgram(const std::string &Name, uint64_t M, unsigned LogN,
                       double C) {
  std::string Error;
  if (createProgramChecked(Name, M, LogN, C, &Error))
    return true;
  std::cerr << "error: " << Error << " (M=" << formatWords(M)
            << ", n=" << formatWords(pow2(LogN)) << ", c=" << C << ")\n";
  return false;
}

bool pcb::checkBounds(const BoundParams &P) {
  if (P.valid())
    return true;
  std::cerr << "error: need power-of-two M >= n >= 2 and c > 1 (M=" << P.M
            << ", n=" << P.N << ", c=" << P.C << ")\n";
  return false;
}

bool pcb::getRange(const OptionParser &Opts, const std::string &Axis,
                   bool Log2, unsigned &Lo, unsigned &Hi) {
  std::string LoKey = Axis + "min", HiKey = Axis + "max";
  Lo = Log2 ? getLog2(Opts, LoKey, Lo) : Opts.getUnsigned(LoKey, Lo);
  Hi = Log2 ? getLog2(Opts, HiKey, Hi) : Opts.getUnsigned(HiKey, Hi);
  if (Lo > Hi)
    std::cerr << "error: empty range " << LoKey << "=" << Lo << " > "
              << HiKey << "=" << Hi << "\n";
  return Lo <= Hi;
}

TimelineSampler::Options pcb::samplerOptions(const OptionParser &Opts) {
  TimelineSampler::Options SO;
  SO.Stride = std::max<uint64_t>(1, Opts.getUInt("stride", 1));
  return SO;
}

bool pcb::checkController(const ControllerSpec &Spec) {
  std::string Error;
  if (!createControllerChecked(Spec, &Error)) {
    std::cerr << "error: " << Error << "\n";
    return false;
  }
  return true;
}

bool pcb::parseControllerSpec(const OptionParser &Opts, ControllerSpec &Spec) {
  Spec.Name = Opts.getString("controller", Spec.Name);
  Spec.Period = std::max<uint64_t>(1, Opts.getUInt("period", Spec.Period));
  Spec.C1 = Opts.getDouble("c1", Spec.C1);
  Spec.Smoothing = Opts.getDouble("smoothing", Spec.Smoothing);
  return checkController(Spec);
}

bool pcb::parseFamily(const OptionParser &Opts, std::string &Family) {
  Family = Opts.getString("family", "all");
  if (Family == "all" || Family == "compaction" || Family == "realloc")
    return true;
  std::cerr << "error: unknown family '" << Family
            << "'; valid families: all, compaction, realloc\n";
  return false;
}

bool pcb::parsePolicyList(const OptionParser &Opts, uint64_t LiveBound,
                          std::vector<std::string> &Policies,
                          const std::string &Default) {
  std::string PolicyList = Opts.getString("policies", Default);
  std::string Family;
  if (PolicyList != "all")
    Policies = parseNameList(PolicyList);
  else if (!parseFamily(Opts, Family))
    return false;
  else
    Policies = Family == "compaction" ? compactionFamilyPolicies()
               : Family == "realloc"  ? reallocManagerPolicies()
                                      : allManagerPolicies();
  if (Policies.empty()) {
    std::cerr << "error: policies= names no policy\n";
    return false;
  }
  return std::all_of(Policies.begin(), Policies.end(),
                     [&](const std::string &P) {
                       return checkPolicy(P, LiveBound);
                     });
}

bool pcb::checkPolicy(const std::string &Policy, uint64_t LiveBound) {
  Heap Probe;
  std::string Error;
  if (createManagerChecked(Policy, Probe, 50.0, LiveBound, &Error))
    return true;
  std::cerr << "error: " << Error << "\n";
  return false;
}

std::shared_ptr<const std::vector<TraceOp>>
pcb::loadMallocTrace(const std::string &Path, uint64_t &PeakLiveWords) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    std::cerr << "error: cannot read '" << Path << "'\n";
    return nullptr;
  }
  TraceReader R(IS);
  std::string Error;
  std::vector<TraceOp> Ops = materializeTrace(R, &Error);
  if (!Error.empty()) {
    std::cerr << "error: " << Path << ": " << Error << "\n";
    return nullptr;
  }
  PeakLiveWords = R.peakLiveWords();
  return std::make_shared<const std::vector<TraceOp>>(std::move(Ops));
}

bool pcb::readFleetOptions(const OptionParser &Opts, FleetOptions &FO) {
  FO.NumSessions = Opts.getUInt("sessions", FO.NumSessions);
  FO.Threads = Opts.getUnsigned("threads", FO.Threads);
  FO.SliceFlushes =
      std::max<uint64_t>(1, Opts.getUInt("slice", FO.SliceFlushes));
  FO.ArenaRowLimit = Opts.getUnsigned("arena-rows", FO.ArenaRowLimit);
  ShardConfig &S = FO.Shard;
  S.Policy = Opts.getString("policy", S.Policy);
  S.C = getQuota(Opts, S.C);
  S.BatchSize = std::max<uint64_t>(1, Opts.getUInt("batch", S.BatchSize));
  S.MaxResident =
      std::max<uint64_t>(1, Opts.getUInt("resident", S.MaxResident));
  S.SampleEverySessions = Opts.getUInt("sample", S.SampleEverySessions);
  S.Audit = Opts.getBool("audit", S.Audit);
  SessionParams &SP = S.Session;
  SP.FleetSeed = Opts.getUInt("seed", SP.FleetSeed);
  SP.TargetOps = Opts.getUInt("ops", SP.TargetOps);
  SP.MaxLogSize = getLog2(Opts, "maxlog", SP.MaxLogSize);
  SP.LiveBound = std::max<uint64_t>(1, Opts.getUInt("live", SP.LiveBound));
  if (SP.MaxLogSize > 24) {
    std::cerr << "error: need maxlog <= 24\n";
    return false;
  }
  if (!parseControllerSpec(Opts, S.Controller))
    return false;
  std::string TracePath = Opts.getString("trace", "");
  if (TracePath.empty())
    return checkWorkload(SP.LiveBound, SP.MaxLogSize);
  // Trace-backed fleet: every session replays this recorded schedule. The
  // session live bound must cover the trace's own peak, or the arena
  // bound would under-provision the managers that rely on it.
  uint64_t TracePeak = 0;
  SP.Trace = loadMallocTrace(TracePath, TracePeak);
  SP.LiveBound = std::max(SP.LiveBound, std::max<uint64_t>(1, TracePeak));
  return SP.Trace != nullptr;
}
