//===- bench/BenchUtils.h - Shared bench plumbing ---------------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `bench-json=` regression baseline shared by the table benches: a
/// BenchReport holds the bench's own grid fields, the common throughput
/// block and a Profiler, and writes them with the per-phase profile as
/// one JSON object that tools/compare_bench.py reads. Table emission
/// (`csv=` / `json=` / `out=`) lives in runner/ResultSink.h.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_BENCH_BENCHUTILS_H
#define PCBOUND_BENCH_BENCHUTILS_H

#include "obs/Profiler.h"
#include "runner/Runner.h"
#include "support/OptionParser.h"
#include "support/ReportFile.h"
#include "support/Table.h"

#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace pcb {

/// A JSON object built member by member, in order; each value is
/// rendered (and each string escaped) as it is added.
class JsonObject {
public:
  JsonObject &add(const std::string &Key, uint64_t Value) {
    return raw(Key, std::to_string(Value));
  }
  JsonObject &add(const std::string &Key, double Value, int Precision) {
    return raw(Key, formatDouble(Value, Precision));
  }
  JsonObject &add(const std::string &Key, const std::string &Text) {
    return raw(Key, jsonString(Text));
  }
  JsonObject &add(const std::string &Key, const JsonObject &Object) {
    return raw(Key, Object.str());
  }
  /// Arrays: strings and objects render as above, numbers to
  /// \p Precision decimals.
  JsonObject &add(const std::string &Key, const std::vector<double> &Values,
                  int Precision) {
    return array(Key, Values, [&](double V) {
      return formatDouble(V, Precision);
    });
  }
  JsonObject &add(const std::string &Key,
                  const std::vector<std::string> &Texts) {
    return array(Key, Texts, jsonString);
  }
  JsonObject &add(const std::string &Key,
                  const std::vector<JsonObject> &Objects) {
    return array(Key, Objects, [](const JsonObject &O) { return O.str(); });
  }
  /// Appends every member of \p Other, in its order.
  JsonObject &append(const JsonObject &Other) {
    Members.insert(Members.end(), Other.Members.begin(), Other.Members.end());
    return *this;
  }

  /// One line: `{"key": value, ...}`.
  std::string str() const { return join("{", ", ", "}"); }
  /// One member per line, indented two spaces, ending in a newline.
  std::string block() const { return join("{\n  ", ",\n  ", "\n}\n"); }

private:
  JsonObject &raw(const std::string &Key, std::string Json) {
    Members.emplace_back(jsonString(Key) + ": " + Json);
    return *this;
  }
  template <typename T, typename Fn>
  JsonObject &array(const std::string &Key, const std::vector<T> &Items,
                    Fn Render) {
    std::string Out = "[";
    for (size_t I = 0; I != Items.size(); ++I)
      Out += (I ? ", " : "") + Render(Items[I]);
    return raw(Key, Out + "]");
  }
  std::string join(const char *Open, const char *Sep,
                    const char *Close) const {
    std::string Out = Open;
    for (size_t I = 0; I != Members.size(); ++I)
      Out += (I ? Sep : "") + Members[I];
    return Out + Close;
  }

  std::vector<std::string> Members; ///< rendered `"key": value` pairs
};

/// One `bench-json=` baseline. A bench adds its grid fields, then the
/// throughput block, then whatever describes its profiled run; write()
/// appends the per-phase profile. tools/compare_bench.py reads the keys.
class BenchReport {
public:
  explicit BenchReport(const std::string &Bench) { Fields.add("bench", Bench); }

  /// Appends one top-level field; the arguments are JsonObject::add's.
  template <typename... Args>
  BenchReport &add(const std::string &Key, Args &&...Value) {
    Fields.add(Key, std::forward<Args>(Value)...);
    return *this;
  }

  /// The block every baseline shares: `threads`, `wall_seconds`,
  /// `total_steps`, then \p Extra's members, then `steps_per_second`.
  BenchReport &throughput(unsigned Threads, double WallSeconds,
                          uint64_t Steps, const JsonObject &Extra = {}) {
    Fields.add("threads", uint64_t(Threads))
        .add("wall_seconds", WallSeconds, 3)
        .add("total_steps", Steps)
        .append(Extra)
        .add("steps_per_second", perSecond(Steps, WallSeconds), 1);
    return *this;
  }

  /// The profiler whose sections become `per_phase`; time a run under it
  /// with timeRun(&Report.profiler(), ...).
  Profiler &profiler() { return Prof; }

  /// Writes the report to \p Path with `per_phase` last: one object per
  /// profiler section that ran, in section order. Prints the outcome to
  /// stderr; returns false when the file cannot be written.
  bool write(const std::string &Path) const {
    std::vector<JsonObject> Phases;
    for (unsigned S = 0; S != Profiler::NumSections; ++S) {
      const Profiler::SectionStats &Stats = Prof.section(Profiler::Section(S));
      if (Stats.Calls == 0)
        continue;
      Phases.push_back(
          JsonObject()
              .add("section", Profiler::sectionName(Profiler::Section(S)))
              .add("calls", Stats.Calls)
              .add("total_ms", double(Stats.Nanos) * 1e-6, 3)
              .add("ns_per_call", double(Stats.Nanos) / double(Stats.Calls),
                   1));
    }
    std::string Json = JsonObject(Fields).add("per_phase", Phases).block();
    std::string Error;
    if (!writeReportFile(Path, [&](std::ostream &OS, bool) { OS << Json; },
                         &Error)) {
      std::cerr << "error: " << Error << "\n";
      return false;
    }
    std::cerr << "# bench baseline written to " << Path << "\n";
    return true;
  }

private:
  JsonObject Fields;
  Profiler Prof;
};

} // namespace pcb

#endif // PCBOUND_BENCH_BENCHUTILS_H
