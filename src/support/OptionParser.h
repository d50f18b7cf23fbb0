//===- support/OptionParser.h - Tiny key=value CLI parsing ------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal option parser for the example and bench executables. Options
/// take the form `name=value` or `--name=value`; anything else is kept as a
/// positional argument. Numeric getters accept suffixes K/M/G (powers of
/// 1024) so parameters can be written the way the paper writes them
/// ("M=256M", "n=1M"). List values (`cs=10,25,50`, `policies=a,b`) are
/// split by parseNumberList / parseNameList. A malformed value is bad CLI
/// input, not a bug: the typed getters print one "error: invalid ... in
/// NAME=" line and exit with status 1 rather than fall back to the
/// default.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_SUPPORT_OPTIONPARSER_H
#define PCBOUND_SUPPORT_OPTIONPARSER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcb {

/// Parsed command line: `name=value` pairs plus positional arguments.
class OptionParser {
public:
  OptionParser(int Argc, const char *const *Argv);

  /// Returns true if \p Name was supplied.
  bool has(const std::string &Name) const { return Options.count(Name) != 0; }

  /// String option, or \p Default when absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;

  /// Unsigned option with optional K/M/G suffix, or \p Default when
  /// absent; exits with an error when malformed.
  uint64_t getUInt(const std::string &Name, uint64_t Default) const;

  /// Count option that must fit an unsigned, or \p Default when absent:
  /// a value above UINT_MAX, which a narrowing cast would wrap, exits with
  /// the same error as a malformed one.
  unsigned getUnsigned(const std::string &Name, unsigned Default) const;

  /// Double option, or \p Default when absent; exits with an error when
  /// malformed.
  double getDouble(const std::string &Name, double Default) const;

  /// Boolean option: "1", "true", "yes" are true and "0", "false", "no"
  /// false; anything else exits with an error.
  bool getBool(const std::string &Name, bool Default) const;

  const std::vector<std::string> &positional() const { return Positional; }

  /// Parses "256M" style word counts; returns false on malformed input.
  static bool parseWordCount(const std::string &Text, uint64_t &Out);

  /// Parses \p Text as one number ("50", "2.5e3", "inf"); returns false
  /// when it is empty, has trailing characters, or overflows a double
  /// (so "1e999" is refused, not read as inf).
  static bool parseNumber(const std::string &Text, double &Out);

private:
  std::map<std::string, std::string> Options;
  std::vector<std::string> Positional;
};

/// Splits "a,b,c" into its non-empty items.
std::vector<std::string> parseNameList(const std::string &Text);

/// Parses the value of option \p Name= ("10,25,50") into doubles; empty
/// items are skipped. A malformed item is bad CLI input, not a bug: it
/// prints "error: invalid number 'X' in NAME=" and exits with status 1.
std::vector<double> parseNumberList(const std::string &Text,
                                    const std::string &Name);

} // namespace pcb

#endif // PCBOUND_SUPPORT_OPTIONPARSER_H
