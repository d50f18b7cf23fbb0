//===- tools/WorkGolden.h - The bench-json= work golden ---------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `bench-json=` work golden of the pf-sim, fleet, trace and realloc
/// tables of `pcbound sweep`. A BenchReport holds the table's grid and
/// result fields and the Profiler its grid ran under, and writes them with
/// the section call counts and the work counters as one JSON object. It
/// holds no timing, so the committed BENCH_<name>.json is reproduced byte
/// for byte on any machine, and ctest (`bench_<table>_baseline_golden`)
/// checks that it is.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_TOOLS_WORKGOLDEN_H
#define PCBOUND_TOOLS_WORKGOLDEN_H

#include "obs/Profiler.h"
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

/// One `bench-json=` work golden. A table adds its grid and result
/// fields and runs its grid under profiler(); write() appends what the
/// profiler counted. Every value is the same on every machine, at any
/// thread count and in either bit-scan build, so ctest compares the file
/// with the committed one byte for byte.
class BenchReport {
public:
  explicit BenchReport(const std::string &Bench) { Fields.add("bench", Bench); }

  /// Appends one top-level field; the arguments are JsonObject::add's.
  template <typename... Args>
  BenchReport &add(const std::string &Key, Args &&...Value) {
    Fields.add(Key, std::forward<Args>(Value)...);
    return *this;
  }

  /// The profiler whose sections become `per_phase` and whose counters
  /// become `work`.
  Profiler &profiler() { return Prof; }

  /// Writes the fields to \p Path, followed by `per_phase` (the call count
  /// of each profiler section that ran, in section order) and `work`
  /// (every nonzero counter but serve.steals, which follows the schedule).
  /// Prints the outcome to stderr; returns false when the file cannot be
  /// written.
  bool write(const std::string &Path) const {
    std::vector<JsonObject> Phases;
    for (unsigned S = 0; S != Profiler::NumSections; ++S) {
      uint64_t Calls = Prof.section(Profiler::Section(S)).Calls;
      if (Calls != 0)
        Phases.push_back(
            JsonObject()
                .add("section", Profiler::sectionName(Profiler::Section(S)))
                .add("calls", Calls));
    }
    JsonObject Work;
    for (unsigned C = 0; C != Profiler::NumCounters; ++C) {
      uint64_t N = Prof.counter(Profiler::Counter(C));
      if (N != 0 && C != Profiler::CtrServeSteals)
        Work.add(Profiler::counterName(Profiler::Counter(C)), N);
    }
    std::string Json =
        JsonObject(Fields).add("per_phase", Phases).add("work", Work).block();
    std::string Error;
    if (!writeReportFile(Path, [&](std::ostream &OS, bool) { OS << Json; },
                         &Error)) {
      std::cerr << "error: " << Error << "\n";
      return false;
    }
    std::cerr << "# bench work golden written to " << Path << "\n";
    return true;
  }

private:
  JsonObject Fields;
  Profiler Prof;
};

} // namespace pcb

#endif // PCBOUND_TOOLS_WORKGOLDEN_H
