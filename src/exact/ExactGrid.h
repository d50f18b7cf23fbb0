//===- exact/ExactGrid.h - The exact certification grid ---------*- C++ -*-===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grid `pcbound exact` certifies (experiment E12): its axes as given
/// on the command line, the cells they cross into, and the certificate
/// table's row.
///
//===----------------------------------------------------------------------===//

#ifndef PCBOUND_EXACT_EXACTGRID_H
#define PCBOUND_EXACT_EXACTGRID_H

#include "exact/Certifier.h"
#include "runner/ResultSink.h"

#include <string>
#include <vector>

namespace pcb {

class OptionParser;

/// One cell of the grid: the solver's parameters and the quota's label.
struct ExactCell {
  ExactParams P;
  std::string CLabel;
};

/// Reads the Ms= ns= cs= axes of \p Opts (defaults 2,4,8 / 2,4 /
/// 1,2,4,inf; positive integers, and "inf" or "infinity" for c) and
/// crosses them, M outermost, into \p Cells; every cell inherits \p
/// Base's solver limits. Cells with n > M lie outside the P2(M, n) domain
/// and are only counted in \p Skipped. Returns false and sets \p Error on
/// a malformed, zero or empty axis, or a cell outside the solvable range.
bool parseExactGrid(const OptionParser &Opts, const ExactParams &Base,
                    std::vector<ExactCell> &Cells, unsigned &Skipped,
                    std::string &Error);

/// The certificate table's columns, the solver's state count before the
/// status.
std::vector<std::string> certificateHeader();

/// \p Cert's row under certificateHeader(): the exact value, or "-" when
/// unsolved; each bound to one decimal, or "-" where its closed form does
/// not apply; the state count; then the status ladder.
Row certificateRow(const ExactCell &Cell, const ExactCertificate &Cert);

} // namespace pcb

#endif // PCBOUND_EXACT_EXACTGRID_H
