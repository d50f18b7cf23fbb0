//===- obs/Profiler.cpp - Section timers and counters ---------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"

#include "support/Table.h"

#include <ostream>

using namespace pcb;

const char *Profiler::sectionName(Section S) {
  switch (S) {
  case SecHeapPlace:
    return "heap.place";
  case SecHeapFree:
    return "heap.free";
  case SecHeapMove:
    return "heap.move";
  case SecFreeReserve:
    return "fsi.reserve";
  case SecFreeRelease:
    return "fsi.release";
  case SecCompaction:
    return "mm.compact";
  case SecMeshProbe:
    return "mm.mesh_probe";
  case SecChunkTrigger:
    return "mm.chunk_trigger";
  case SecRealloc:
    return "mm.realloc";
  case SecStep:
    return "exec.step";
  case SecServeFlush:
    return "serve.flush";
  case SecTraceRead:
    return "trace.read";
  case NumSections:
    break;
  }
  return "?";
}

const char *Profiler::counterName(Counter C) {
  switch (C) {
  case CtrFitProbes:
    return "fit.probes";
  case CtrCompactionPasses:
    return "compaction.passes";
  case CtrMeshProbes:
    return "mesh.probes";
  case CtrMeshMerges:
    return "mesh.merges";
  case CtrChunkEvacuations:
    return "chunk.evacuations";
  case CtrReallocPasses:
    return "realloc.passes";
  case CtrTimelineSamples:
    return "timeline.samples";
  case CtrServeFlushes:
    return "serve.flushes";
  case CtrServeSteals:
    return "serve.steals";
  case CtrServeSessions:
    return "serve.sessions";
  case CtrTraceOps:
    return "trace.ops";
  case CtrControllerDenials:
    return "controller.denials";
  case CtrFitQueries:
    return "fit.queries";
  case CtrTelemetryFitQueries:
    return "telemetry.fit_queries";
  case CtrTelemetryFitProbes:
    return "telemetry.fit_probes";
  case NumCounters:
    break;
  }
  return "?";
}

void Profiler::printReport(std::ostream &OS, double WallSeconds) const {
  Table T({"section", "calls", "total_ms", "ns_per_call", "%wall"});
  for (unsigned I = 0; I != NumSections; ++I) {
    const SectionStats &S = Sections[I];
    if (S.Calls == 0)
      continue;
    T.beginRow();
    T.addCell(std::string(sectionName(Section(I))));
    T.addCell(S.Calls);
    T.addCell(double(S.Nanos) * 1e-6, 2);
    T.addCell(double(S.Nanos) / double(S.Calls), 0);
    T.addCell(WallSeconds > 0.0 ? 100.0 * double(S.Nanos) * 1e-9 / WallSeconds
                                : 0.0,
              1);
  }
  OS << "# per-phase timing (times are inclusive: fsi.* nests in heap.*,"
     << " all nest in exec.step)\n";
  T.printAligned(OS);
  for (unsigned I = 0; I != NumCounters; ++I)
    if (Counters[I] != 0)
      OS << "# " << counterName(Counter(I)) << " = " << Counters[I] << "\n";
}
