//===- trace/TraceRun.h - Streaming trace replay ----------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a streamed malloc trace through a manager under a budget
/// controller. StreamingTraceProgram is a Program that pulls one MallocOp
/// per step straight from a TraceReader — the trace is never
/// materialized, so memory use is bounded by the live-id window, not the
/// op count. runTrace() assembles the whole stack (heap, manager,
/// controller, execution) and returns a TraceRunReport whose text and
/// JSON renderings are deterministic: pure functions of the trace and
/// configuration, no wall-clock, suitable for golden files and the
/// byte-identity determinism gate.
///
//======---------------------------------------------------------------===//

#ifndef PCBOUND_TRACE_TRACERUN_H
#define PCBOUND_TRACE_TRACERUN_H

#include "adversary/Program.h"
#include "adversary/SyntheticWorkloads.h"
#include "driver/Execution.h"
#include "trace/BudgetController.h"
#include "trace/TraceReader.h"

#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace pcb {

/// A Program that replays a TraceReader's stream, one op per step.
class StreamingTraceProgram : public Program {
public:
  explicit StreamingTraceProgram(TraceReader &R) : Reader(R) {}

  bool step(MutatorContext &Ctx) override;
  std::string name() const override { return "trace-stream"; }

  /// High-water mark of the trace-id -> ObjectId window — the program's
  /// only trace-size-dependent state.
  size_t maxLiveWindow() const { return MaxLiveWindow; }

private:
  bool readAhead();

  TraceReader &Reader;
  std::unordered_map<uint64_t, ObjectId> LiveIds;
  size_t MaxLiveWindow = 0;
  /// One-op lookahead, so the last operation's step reports end-of-trace
  /// the way TraceReplayProgram's does and a streamed run is
  /// step-for-step identical to a materialized one.
  MallocOp Pending;
  bool HavePending = false;
  bool Primed = false;
};

/// Configuration of one trace replay.
struct TraceRunOptions {
  std::string Policy = "first-fit";
  double C = 50.0;
  ControllerSpec Controller;
  /// The program's live bound M. 0 means "unknown" (streaming traces):
  /// the driver runs against an effectively unbounded M and the report's
  /// waste factor is taken against the trace's measured peak live volume.
  /// Policies that need M up front (bump-compactor) require it nonzero.
  uint64_t LiveBound = 0;
  /// Deep heap self-check cadence (0 disables).
  uint64_t DeepCheckEvery = 0;
  /// Observation port: invoked with the Execution before any step runs,
  /// so callers can attach samplers without this layer knowing them.
  std::function<void(Execution &)> OnExecution;
  /// Invoked after the run completes, while the Execution is still
  /// alive — the place to finish samplers attached via OnExecution.
  std::function<void(Execution &)> OnFinished;
};

/// What one trace replay produced; rendering is deterministic.
struct TraceRunReport {
  std::string Trace; ///< display name of the trace source
  std::string Policy;
  std::string Controller;
  double C = 0.0;
  ExecutionResult Exec;
  uint64_t OpsStreamed = 0;
  uint64_t PeakLiveWindow = 0; ///< max simultaneously live trace ids
  uint64_t BudgetWords = 0;
  /// MovedWords / BudgetWords, as a percentage (0 when unlimited).
  double BudgetBurnPct = 0.0;
  /// HS / peak live words (the waste factor against the trace's own M).
  double WasteFactor = 0.0;
  uint64_t ControllerGrants = 0;
  uint64_t ControllerDenials = 0;

  void printText(std::ostream &OS) const;
  void printJson(std::ostream &OS) const;
  /// Writes JSON to a `.json` path, text otherwise, via writeReportFile.
  /// Returns false and fills \p Error on failure.
  bool writeFile(const std::string &Path, std::string *Error) const;
};

/// Streams \p R through the configured stack. Throws std::runtime_error
/// on an unknown policy or controller, or when the trace fails
/// validation mid-stream (the reader's line/record diagnostic).
TraceRunReport runTrace(TraceReader &R, const TraceRunOptions &Opts,
                        const std::string &TraceName = "<stream>");

/// Materializes \p R into the ordinal-free TraceOp convention (frees name
/// the k-th allocation) used by fuzz schedules and fleet sessions.
/// Returns an empty vector and sets \p Error on a validation failure.
/// This is the non-streaming path — only for traces meant to be held
/// whole (fuzz corpora, session classes), never for `pcbound replay`,
/// which streams.
std::vector<TraceOp> materializeTrace(TraceReader &R, std::string *Error);

} // namespace pcb

#endif // PCBOUND_TRACE_TRACERUN_H
