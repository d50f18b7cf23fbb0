//===- support/ReportFile.cpp - JSON strings and report files -------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "support/ReportFile.h"

#include <cstdio>
#include <fstream>
#include <string_view>

using namespace pcb;

std::string pcb::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += {'\\', Ch};
    } else if (Ch == '\n') {
      Out += "\\n";
    } else if (Ch == '\t') {
      Out += "\\t";
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      char Code[8];
      std::snprintf(Code, sizeof(Code), "\\u%04x", unsigned(Ch));
      Out += Code;
    } else {
      Out += Ch;
    }
  }
  return Out + '"';
}

bool pcb::isJsonPath(const std::string &Path) {
  return std::string_view(Path).ends_with(".json");
}

bool pcb::writeReportFile(
    const std::string &Path,
    const std::function<void(std::ostream &OS, bool Json)> &Render,
    std::string *Error) {
  std::ofstream OS(Path);
  if (OS) {
    Render(OS, isJsonPath(Path));
    OS.flush();
  }
  // One check covers open failure and mid-write failure (disk full, path
  // removed): any failed state means part of the report was dropped.
  if (OS)
    return true;
  if (Error)
    *Error = "cannot write '" + Path + "'";
  return false;
}
