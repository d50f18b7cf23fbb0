//===- exact/QuotaList.cpp - Parsing the exact grid's axes ----------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "exact/QuotaList.h"

#include <cstdlib>
#include <sstream>

using namespace pcb;

/// Parses \p Item as a positive decimal integer.
static bool parsePositive(const std::string &Item, uint64_t &Value) {
  char *End = nullptr;
  Value = std::strtoull(Item.c_str(), &End, 10);
  return End && *End == '\0' && Value != 0;
}

bool pcb::parseUIntList(const std::string &Text, const std::string &Opt,
                        std::vector<uint64_t> &Out, std::string &Error) {
  std::istringstream IS(Text);
  std::string Item;
  while (std::getline(IS, Item, ',')) {
    if (Item.empty())
      continue;
    uint64_t Value = 0;
    if (!parsePositive(Item, Value)) {
      Error = "invalid number '" + Item + "' in " + Opt + "=";
      return false;
    }
    Out.push_back(Value);
  }
  if (Out.empty())
    Error = Opt + "= must name at least one value";
  return !Out.empty();
}

bool pcb::parseQuotaList(const std::string &Text,
                         std::vector<QuotaSpec> &Out, std::string &Error) {
  std::istringstream IS(Text);
  std::string Item;
  while (std::getline(IS, Item, ',')) {
    if (Item.empty())
      continue;
    if (Item == "inf" || Item == "infinity") {
      Out.push_back({"inf", 0});
      continue;
    }
    uint64_t Value = 0;
    if (!parsePositive(Item, Value)) {
      Error = "invalid quota '" + Item + "' in cs= (positive integer or inf)";
      return false;
    }
    Out.push_back({Item, Value});
  }
  if (Out.empty())
    Error = "cs= must name at least one quota";
  return !Out.empty();
}
