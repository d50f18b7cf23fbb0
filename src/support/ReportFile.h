//===- support/ReportFile.h - JSON strings and report files -----*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two format decisions every report shares: how a string becomes a
/// JSON string, and how a report reaches a file. Timelines, the replay
/// and fleet reports, result tables (`out=`) and the `bench-json=`
/// baselines all use them, so a `.json` path means JSON everywhere and a
/// failed write is diagnosed the same way everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SUPPORT_REPORTFILE_H
#define PCBOUND_SUPPORT_REPORTFILE_H

#include <functional>
#include <iosfwd>
#include <string>

namespace pcb {

/// \p S as a quoted JSON string. `"` and `\` are escaped, newline and tab
/// by name, every other control character as `\u00XX`.
std::string jsonString(const std::string &S);

/// True when \p Path names a JSON report (ends in `.json`).
bool isJsonPath(const std::string &Path);

/// Writes one report to \p Path: opens it, calls \p Render with the
/// stream and whether to render JSON (isJsonPath), and flushes. Returns
/// false and sets \p Error to "cannot write 'PATH'" when the file cannot
/// be opened or any write failed.
bool writeReportFile(
    const std::string &Path,
    const std::function<void(std::ostream &OS, bool Json)> &Render,
    std::string *Error);

} // namespace pcb

#endif // PCBOUND_SUPPORT_REPORTFILE_H
