//===- perfbench/main.cpp - The repository benchmark ----------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --threads T --digests FILE
//   perfbench --record-digests FILE --threads T
//   perfbench --list-metrics
//
// A run sets its workload up several times (set-up time is the median),
// then repeats fixed-size passes for about S seconds. Untraced (--trace 0)
// it reports the end-to-end metrics: ops/s and words/s with every fixed
// piece of work at its fastest pass, pooled per-call latency percentiles,
// set-up time and peak RSS. Traced (--trace 1) it alternates untraced and
// traced passes and reports the per-layer metrics from the traced ones,
// including the exclusive-time breakdown and the tracing overhead. Every
// pass checks the simulated outputs; any failed unit makes the run exit 1.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sched.h>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
  const char *Better;
};

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"ops_per_s", "1/s", "higher"},
      {"words_per_s", "words/s", "higher"},
      {"alloc_p50_ns", "ns", "lower"},
      {"alloc_p999_ns", "ns", "lower"},
      {"free_p50_ns", "ns", "lower"},
      {"free_p99_ns", "ns", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
  };
  return Specs;
}

/// Every per-layer metric; a layer a workload does not exercise reads 0.
const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"trace.wall_ms", "ms", "lower"},
      {"trace.thread_ms", "ms", "lower"},
      {"trace.self_sum_ms", "ms", "lower"},
      {"self.adversary_ms", "ms", "lower"},
      {"self.driver_ms", "ms", "lower"},
      {"self.mm_ms", "ms", "lower"},
      {"self.compact_ms", "ms", "lower"},
      {"self.heap_ms", "ms", "lower"},
      {"self.fsi_ms", "ms", "lower"},
      {"self.service_ms", "ms", "lower"},
      {"self.oracle_ms", "ms", "lower"},
      {"self.exec_ms", "ms", "lower"},
      {"self.other_ms", "ms", "lower"},
      {"self.runner_idle_ms", "ms", "lower"},
      {"adversary.self_ms", "ms", "lower"},
      {"adversary.steps", "count", "lower"},
      {"adversary.session_gen_ms", "ms", "lower"},
      {"driver.check_ms", "ms", "lower"},
      {"driver.steps", "count", "lower"},
      {"mm.alloc_calls", "count", "lower"},
      {"mm.alloc_ms", "ms", "lower"},
      {"mm.free_calls", "count", "lower"},
      {"mm.free_ms", "ms", "lower"},
      {"mm.place_ms", "ms", "lower"},
      {"mm.fit_probes", "count", "lower"},
      {"mm.fit_probes_per_alloc", "ratio", "lower"},
      {"mm.compact_ms", "ms", "lower"},
      {"mm.compaction_passes", "count", "lower"},
      {"mm.moves_per_pass", "ratio", "lower"},
      {"mm.mesh_probes", "count", "lower"},
      {"mm.mesh_merges", "count", "higher"},
      {"mm.mesh_merge_ratio", "ratio", "higher"},
      {"mm.chunk_evacuations", "count", "lower"},
      {"mm.controller_denials", "count", "lower"},
      {"mm.nested_free_spans", "count", "lower"},
      {"heap.place_ms", "ms", "lower"},
      {"heap.place_calls", "count", "lower"},
      {"heap.free_ms", "ms", "lower"},
      {"heap.free_calls", "count", "lower"},
      {"heap.move_ms", "ms", "lower"},
      {"heap.move_calls", "count", "lower"},
      {"heap.moves", "count", "lower"},
      {"heap.moved_words", "words", "lower"},
      {"heap.fsi_reserve_ms", "ms", "lower"},
      {"heap.fsi_release_ms", "ms", "lower"},
      {"realloc.pass_ms", "ms", "lower"},
      {"realloc.passes", "count", "lower"},
      {"realloc.moved_words", "words", "lower"},
      {"realloc.overhead_ratio", "ratio", "lower"},
      {"realloc.worst_prefix", "ratio", "lower"},
      {"service.flush_ms", "ms", "lower"},
      {"service.flushes", "count", "lower"},
      {"service.flush_self_ms", "ms", "lower"},
      {"service.idle_ms", "ms", "lower"},
      {"service.steals", "count", "lower"},
      {"service.slices", "count", "lower"},
      {"service.sessions", "count", "lower"},
      {"fuzz.generate_ms", "ms", "lower"},
      {"fuzz.harness_ms", "ms", "lower"},
      {"fuzz.exec_ms", "ms", "lower"},
      {"fuzz.oracle_ms", "ms", "lower"},
      {"fuzz.schedules", "count", "lower"},
      {"fuzz.policy_runs", "count", "lower"},
      {"runner.cell_p50_ms", "ms", "lower"},
      {"runner.idle_ms", "ms", "lower"},
      {"obs.tracing_overhead", "ratio", "lower"},
  };
  return Specs;
}

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "perfbench: " << Why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --threads T --digests FILE\n"
            << "       perfbench --record-digests FILE --threads T\n"
            << "       perfbench --list-metrics\n";
  std::exit(2);
}

uint64_t parseUInt(const std::string &Flag, const std::string &Text) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (Text.empty() || !End || *End != '\0' || Text[0] == '-')
    usage("invalid value '" + Text + "' for " + Flag);
  return uint64_t(V);
}

bool loadDigests(const std::string &Path, DigestTable &Out) {
  std::ifstream IS(Path);
  if (!IS)
    return false;
  Out.clear();
  std::string Key, Hex;
  while (IS >> Key >> Hex)
    Out[Key] = Hex;
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printMetricList(std::ostream &OS, const std::vector<MetricSpec> &Specs,
                     bool WithBound) {
  OS << "[\n";
  for (size_t I = 0; I != Specs.size(); ++I) {
    OS << "    {\"name\": \"" << Specs[I].Name << "\", \"unit\": \""
       << Specs[I].Unit << "\", \"better\": \"" << Specs[I].Better << "\"";
    if (WithBound)
      OS << ", \"bound\": 0.1";
    OS << "}" << (I + 1 == Specs.size() ? "\n" : ",\n");
  }
  OS << "  ]";
}

int recordDigests(const std::string &Path, unsigned Threads) {
  DigestTable Table;
  for (const std::string &Name : workloadNames()) {
    std::cerr << "# recording " << Name << "\n";
    makeWorkload(Name, Threads, nullptr)->recordDigests(Table);
  }
  std::ofstream OS(Path);
  size_t Failed = 0;
  for (const auto &[Key, Hex] : Table) {
    OS << Key << " " << Hex << "\n";
    Failed += Hex == "failed";
  }
  if (!OS) {
    std::cerr << "perfbench: cannot write '" << Path << "'\n";
    return 1;
  }
  std::cerr << "# " << Table.size() << " unit digests written to " << Path
            << (Failed ? ", " + std::to_string(Failed) + " units FAILED" : "")
            << "\n";
  return Failed ? 1 : 0;
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Pins the calling thread, and the threads it starts from now on, to
/// \p Width of \p Cpus starting at index \p First (wrapping around).
void pinWindow(const std::vector<int> &Cpus, size_t First, size_t Width) {
  if (Cpus.empty() || Width >= Cpus.size())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (size_t K = 0; K != Width; ++K)
    CPU_SET(Cpus[(First + K) % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, DigestsPath, RecordPath;
  uint64_t Seed = 0, Seconds = 0, Trace = 0, Threads = 0;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--list-metrics") {
      std::cout << "{\n  \"end_to_end\": ";
      printMetricList(std::cout, endToEndMetrics(), true);
      std::cout << ",\n  \"per_layer\": ";
      printMetricList(std::cout, perLayerMetrics(), false);
      std::cout << "\n}\n";
      return 0;
    }
    if (I + 1 == argc)
      usage("missing value for " + Flag);
    std::string Value = argv[++I];
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = parseUInt(Flag, Value), HaveSeed = true;
    else if (Flag == "--seconds")
      Seconds = parseUInt(Flag, Value), HaveSeconds = true;
    else if (Flag == "--trace")
      Trace = parseUInt(Flag, Value), HaveTrace = true;
    else if (Flag == "--threads")
      Threads = parseUInt(Flag, Value);
    else if (Flag == "--digests")
      DigestsPath = Value;
    else if (Flag == "--record-digests")
      RecordPath = Value;
    else
      usage("unknown option " + Flag);
  }
  if (Threads == 0 || Threads > 64)
    usage("--threads must be in [1, 64]");
  if (!RecordPath.empty())
    return recordDigests(RecordPath, unsigned(Threads));
  if (WorkloadName.empty() || !HaveSeed || !HaveSeconds || !HaveTrace ||
      DigestsPath.empty())
    usage("--workload, --seed, --seconds, --trace and --digests are required");
  if (Trace > 1 || Seconds == 0)
    usage("--trace must be 0 or 1 and --seconds positive");
  if (std::find(workloadNames().begin(), workloadNames().end(),
                WorkloadName) == workloadNames().end())
    usage("unknown workload '" + WorkloadName + "'");

  std::cout << "# perfbench: workload=" << WorkloadName << " seed=" << Seed
            << " seconds=" << Seconds << " trace=" << Trace
            << " threads=" << Threads << " load=closed-loop\n"
            << "# machine: " << machineDescription() << "\n";

  // Set-up: the recorded digests and every input of the run's passes,
  // built five times before the first pass and once more after each
  // untraced pass that ends a second or more after the last build, so the
  // median set-up time samples the whole run rather than one moment of it.
  DigestTable Expected;
  std::unique_ptr<Workload> W;
  std::vector<double> SetupSec;
  uint64_t LastSetup = 0;
  auto SetUp = [&]() {
    uint64_t Start = nowNs();
    W.reset();
    if (!loadDigests(DigestsPath, Expected)) {
      std::cerr << "perfbench: cannot read digests '" << DigestsPath << "'\n";
      return false;
    }
    W = makeWorkload(WorkloadName, unsigned(Threads), &Expected);
    W->setup(Seed);
    LastSetup = nowNs();
    SetupSec.push_back(double(LastSetup - Start) * 1e-9);
    return true;
  };
  for (int K = 0; K != 5; ++K)
    if (!SetUp())
      return 1;

  // Machine noise only ever slows a run down, and on a shared host it
  // comes in stretches longer than a unit, so each unit counts at its
  // fastest instance of every fixed piece of its work: each segment of
  // its logged calls (the same calls on every untraced pass) at the pass
  // where that segment ran fastest, and the rest of the unit at the pass
  // where the rest ran fastest. The percentiles pool every logged call at
  // its fastest pass: the calls repeat exactly too, and a segment's time
  // says little about the few slow calls in its tail. Folding each pass
  // in as it ends keeps the process's memory independent of the number of
  // passes.
  struct UnitBest {
    double OtherSec = 0.0;
    uint64_t Ops = 0, Words = 0;
    std::vector<uint64_t> SegNs; ///< each timed piece's fastest instance
    CallLog Calls;               ///< each call at its fastest instance
  };
  std::vector<UnitBest> Best;
  uint64_t Mismatched = 0;
  auto Fold = [&Best, &Mismatched](PassResult &P) {
    bool First = Best.empty();
    if (First)
      Best.resize(P.UnitSec.size());
    for (size_t U = 0; U != P.UnitSec.size(); ++U) {
      UnitBest &B = Best[U];
      CallLog &Log = P.UnitCalls[U];
      std::vector<uint64_t> &Seg = P.UnitSegNs[U];
      double Other = P.UnitSec[U];
      for (uint64_t Ns : Seg)
        Other -= double(Ns) * 1e-9;
      if (First) {
        B.OtherSec = Other;
        B.Ops = P.UnitOps[U];
        B.Words = P.UnitWords[U];
        B.SegNs = std::move(Seg);
        B.Calls = std::move(Log);
        continue;
      }
      B.OtherSec = std::min(B.OtherSec, Other);
      if (Seg.size() != B.SegNs.size() ||
          Log.SegCalls != B.Calls.SegCalls ||
          Log.CallNs.size() != B.Calls.CallNs.size()) {
        ++Mismatched;
        continue;
      }
      for (size_t K = 0; K != Seg.size(); ++K)
        B.SegNs[K] = std::min(B.SegNs[K], Seg[K]);
      for (size_t I = 0; I != Log.CallNs.size(); ++I) {
        uint32_t &Fastest = B.Calls.CallNs[I];
        if ((Fastest ^ Log.CallNs[I]) & CallLog::FreeBit) {
          ++Mismatched;
          break;
        }
        Fastest = std::min(Fastest, Log.CallNs[I]);
      }
    }
    P.UnitCalls.clear();
    P.UnitSegNs.clear();
  };

  // Passes repeat until the next one would end nearer past the budget
  // than this one ended before it, so a run lasts about S seconds. On a
  // shared host one CPU can run at half speed for minutes while another
  // runs at full speed, and the scheduler leaves a busy thread where it
  // is, so successive passes are pinned to successive CPUs (a window of
  // --threads of them): every piece of work then has a fastest pass on
  // each CPU this process may use.
  std::vector<int> Cpus = allowedCpus();
  std::cout << "# cpus: passes rotate over " << Cpus.size() << "\n";
  std::vector<PassResult> Plain, Traced;
  uint64_t Budget = Seconds * 1000000000ULL;
  uint64_t Begin = nowNs(), Last = 0;
  do {
    uint64_t Start = nowNs();
    pinWindow(Cpus, Plain.size(), Threads);
    Plain.push_back(W->runPass(false));
    Fold(Plain.back());
    if (nowNs() - LastSetup >= 1000000000ULL && !SetUp())
      return 1;
    if (Trace) {
      Traced.push_back(W->runPass(true));
      Traced.back().UnitCalls.clear();
      Traced.back().UnitSegNs.clear();
    }
    Last = nowNs() - Start;
  } while (nowNs() - Begin + Last / 2 < Budget);

  // Output checks.
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  for (const std::vector<PassResult> *Set : {&Plain, &Traced})
    for (const PassResult &P : *Set) {
      Attempted += P.Units;
      Failed += P.Failures.size();
      for (const std::string &F : P.Failures)
        if (Failures.size() < 20)
          Failures.push_back(F);
    }
  // Deterministic work counts and call sequences must repeat exactly
  // from pass to pass.
  if (Mismatched) {
    Failed += Mismatched;
    Failures.push_back("a unit's calls differ between untraced passes");
  }
  for (const PassResult &P : Traced)
    if (P.Counts != Traced.front().Counts) {
      ++Failed;
      Failures.push_back("work counts differ between traced passes");
      break;
    }

  double UnitSecSum = 0.0;
  uint64_t UnitOps = 0, UnitWords = 0;
  LatencyHistogram Alloc, Free;
  for (const UnitBest &B : Best) {
    UnitSecSum += B.OtherSec;
    for (uint64_t Ns : B.SegNs)
      UnitSecSum += double(Ns) * 1e-9;
    UnitOps += B.Ops;
    UnitWords += B.Words;
    for (uint32_t C : B.Calls.CallNs)
      (C & CallLog::FreeBit ? Free : Alloc).add(C & ~CallLog::FreeBit);
  }
  std::vector<double> Wall;
  for (const PassResult &P : Plain) {
    std::cout << "# pass: " << P.Units << " units, " << P.Ops << " ops in "
              << P.WallSec << " s, " << double(P.Ops) / P.WallSec
              << " ops/s\n";
    Wall.push_back(P.WallSec);
  }
  std::cout << "# set-up: " << SetupSec.size() << " repetitions\n"
            << "# passes: " << Plain.size() << " untraced, " << Traced.size()
            << " traced; " << Attempted << " units, " << Failed
            << " failed (failed_frac "
            << double(Failed) / double(std::max<uint64_t>(Attempted, 1))
            << ")\n"
            << "# latency samples: " << Alloc.count() << " allocate, "
            << Free.count() << " free\n";
  for (const std::string &F : Failures)
    std::cout << "# FAILED: " << F << "\n";

  std::vector<std::pair<std::string, double>> Metrics;
  if (!Trace) {
    Metrics = {{"ops_per_s", double(UnitOps) / UnitSecSum},
               {"words_per_s", double(UnitWords) / UnitSecSum},
               {"alloc_p50_ns", Alloc.percentile(0.50)},
               {"alloc_p999_ns", Alloc.percentile(0.999)},
               {"free_p50_ns", Free.percentile(0.50)},
               {"free_p99_ns", Free.percentile(0.99)},
               {"setup_s", median(SetupSec)},
               {"peak_rss_mb", peakRssMb()}};
  } else {
    // Every per-layer figure comes from one traced pass, the one with the
    // median wall, so its self rows sum exactly to its thread time.
    std::vector<const PassResult *> ByWall;
    for (const PassResult &P : Traced)
      ByWall.push_back(&P);
    std::sort(ByWall.begin(), ByWall.end(),
              [](const PassResult *A, const PassResult *B) {
                return A->WallSec < B->WallSec;
              });
    const PassResult &Shown = *ByWall[(ByWall.size() - 1) / 2];
    std::cout << "# self time (exclusive, ms; rows sum to trace.thread_ms):"
              << " nesting: " << Shown.Nesting << "\n";
    for (const SelfRow &R : Shown.Self)
      std::cout << "#   " << R.Name << " " << R.Ms << "\n";
    std::cout << "#   sum " << Shown.Layer.at("trace.self_sum_ms")
              << " of trace.thread_ms " << Shown.Layer.at("trace.thread_ms")
              << "\n";
    std::cout << "# work counts (identical across runs and thread counts):\n";
    Digest CountDigest;
    for (const auto &[Name, Value] : Shown.Counts) {
      std::cout << "#   " << Name << " = " << Value << "\n";
      CountDigest.add(Name).add(Value);
    }
    std::cout << "# work-count digest: " << CountDigest.hex() << "\n";
    std::map<std::string, double> Layer = Shown.Layer;
    Layer["obs.tracing_overhead"] = Shown.WallSec / median(Wall) - 1.0;
    for (const MetricSpec &S : perLayerMetrics())
      Metrics.emplace_back(S.Name, Layer[S.Name]);
  }

  bool Correct = Failed == 0;
  std::map<std::string, std::string> UnitOf;
  for (const MetricSpec &S : endToEndMetrics())
    UnitOf[S.Name] = S.Unit;
  for (const MetricSpec &S : perLayerMetrics())
    UnitOf[S.Name] = S.Unit;
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Metrics[I].first
       << "\": {\"value\": " << jsonNumber(Metrics[I].second)
       << ", \"unit\": \"" << UnitOf[Metrics[I].first] << "\"}";
  OS << "}}";
  std::cout << OS.str() << std::endl;
  return Correct ? 0 : 1;
}
