//===- service/FleetReport.cpp - Aggregate fleet telemetry ---------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "service/FleetReport.h"

#include "support/ReportFile.h"
#include "support/Table.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

using namespace pcb;

double pcb::percentileNearestRank(std::vector<double> Values, double Pct) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(Pct * double(Values.size()));
  size_t Index = Rank < 1.0 ? 0 : size_t(Rank) - 1;
  if (Index >= Values.size())
    Index = Values.size() - 1;
  return Values[Index];
}

void FleetReport::printText(std::ostream &OS) const {
  OS << "# fleet: " << NumArenas << " arenas x " << NumSessions
     << " sessions (policy=" << Policy << ", c=" << formatDouble(C, 0)
     << ", batch=" << BatchSize << ", resident=" << MaxResident
     << ", ops=" << SessionOps << ", seed=" << Seed << ")\n";

  Table T({"arena", "sessions", "flushes", "ops", "HS_words", "live",
           "allocated", "moved", "peak_frag", "mean_util", "burn_%",
           "viol"});
  size_t Shown = std::min<size_t>(Arenas.size(), ArenaRowLimit);
  for (size_t I = 0; I != Shown; ++I) {
    const ArenaSummary &A = Arenas[I];
    T.beginRow();
    T.addCell(uint64_t(A.ArenaId));
    T.addCell(A.Sessions);
    T.addCell(A.Flushes);
    T.addCell(A.OpsApplied);
    T.addCell(A.Stats.HighWaterMark);
    T.addCell(A.Stats.LiveWords);
    T.addCell(A.Stats.TotalAllocatedWords);
    T.addCell(A.Stats.MovedWords);
    T.addCell(A.PeakFragmentation, 3);
    T.addCell(A.MeanUtilization, 3);
    T.addCell(100.0 * A.BudgetBurn, 1);
    T.addCell(uint64_t(A.NumViolations));
  }
  T.printAligned(OS);
  if (Arenas.size() > Shown)
    OS << "# ... " << (Arenas.size() - Shown) << " more arenas elided"
       << " (totals below cover all " << Arenas.size() << ")\n";

  OS << "# totals: footprint=" << TotalFootprintWords
     << " live=" << TotalLiveWords << " allocated=" << TotalAllocatedWords
     << " moved=" << TotalMovedWords << " words\n"
     << "# sessions retired " << TotalSessions << "/" << NumSessions
     << ", flushes " << TotalFlushes << ", ops " << TotalOpsApplied << " ("
     << TotalAllocations << " allocs, " << TotalFrees << " frees, "
     << TotalMoves << " moves)\n"
     << "# fragmentation p50=" << formatDouble(P50Fragmentation, 3)
     << " p99=" << formatDouble(P99Fragmentation, 3)
     << ", p99 footprint=" << P99FootprintWords
     << " words, mean utilization=" << formatDouble(MeanUtilization, 3)
     << "\n"
     << "# compaction budget: allowed=" << BudgetAllowedWords
     << " words, spent=" << TotalMovedWords << " (burn "
     << formatDouble(100.0 * BudgetBurn, 1) << "%)\n"
     << "# violations: " << Violations.size() << "\n";
  for (const FleetViolation &FV : Violations)
    OS << "# violation[arena " << FV.ArenaId << "]: " << FV.V.describe()
       << "\n";
}

void FleetReport::printJson(std::ostream &OS) const {
  OS << "{\n"
     << "  \"fleet\": {\"arenas\": " << NumArenas << ", \"sessions\": "
     << NumSessions << ", \"policy\": " << jsonString(Policy) << ", \"c\": "
     << formatDouble(C, 1) << ", \"batch\": " << BatchSize
     << ", \"resident\": " << MaxResident << ", \"ops\": " << SessionOps
     << ", \"seed\": " << Seed << "},\n"
     << "  \"arenas\": [";
  for (size_t I = 0; I != Arenas.size(); ++I) {
    const ArenaSummary &A = Arenas[I];
    OS << (I ? ", " : "") << "{\"arena\": " << A.ArenaId
       << ", \"sessions\": " << A.Sessions << ", \"flushes\": " << A.Flushes
       << ", \"ops\": " << A.OpsApplied << ", \"hs_words\": "
       << A.Stats.HighWaterMark << ", \"live_words\": " << A.Stats.LiveWords
       << ", \"allocated_words\": " << A.Stats.TotalAllocatedWords
       << ", \"moved_words\": " << A.Stats.MovedWords
       << ", \"peak_fragmentation\": " << formatDouble(A.PeakFragmentation, 3)
       << ", \"mean_utilization\": " << formatDouble(A.MeanUtilization, 3)
       << ", \"budget_burn\": " << formatDouble(A.BudgetBurn, 3)
       << ", \"violations\": " << A.NumViolations << "}";
  }
  OS << "],\n"
     << "  \"totals\": {\"footprint_words\": " << TotalFootprintWords
     << ", \"live_words\": " << TotalLiveWords << ", \"allocated_words\": "
     << TotalAllocatedWords << ", \"moved_words\": " << TotalMovedWords
     << ", \"sessions\": " << TotalSessions << ", \"flushes\": "
     << TotalFlushes << ", \"ops\": " << TotalOpsApplied
     << ", \"allocations\": " << TotalAllocations << ", \"frees\": "
     << TotalFrees << ", \"moves\": " << TotalMoves << "},\n"
     << "  \"fragmentation\": {\"p50\": " << formatDouble(P50Fragmentation, 3)
     << ", \"p99\": " << formatDouble(P99Fragmentation, 3)
     << ", \"p99_footprint_words\": " << P99FootprintWords
     << ", \"mean_utilization\": " << formatDouble(MeanUtilization, 3)
     << "},\n"
     << "  \"budget\": {\"allowed_words\": " << BudgetAllowedWords
     << ", \"spent_words\": " << TotalMovedWords << ", \"burn\": "
     << formatDouble(BudgetBurn, 3) << "},\n"
     << "  \"violations\": [";
  for (size_t I = 0; I != Violations.size(); ++I) {
    const FleetViolation &FV = Violations[I];
    OS << (I ? ", " : "") << "{\"arena\": " << FV.ArenaId
       << ", \"check\": " << jsonString(FV.V.Check)
       << ", \"step\": " << FV.V.Step
       << ", \"detail\": " << jsonString(FV.V.describe()) << "}";
  }
  OS << "]\n}\n";
}

bool FleetReport::writeFile(const std::string &Path,
                            std::string *Error) const {
  return writeReportFile(
      Path,
      [this](std::ostream &OS, bool Json) {
        Json ? printJson(OS) : printText(OS);
      },
      Error);
}
