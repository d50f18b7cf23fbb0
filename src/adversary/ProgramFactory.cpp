//===- adversary/ProgramFactory.cpp - Programs by name --------------------===//
//
// Part of pcbound, a reproduction of Cohen & Petrank, "Limitations of
// Partial Compaction: Towards Practical Bounds" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "adversary/ProgramFactory.h"

#include "adversary/CohenPetrankProgram.h"
#include "adversary/PatternWorkloads.h"
#include "adversary/RobsonProgram.h"
#include "adversary/SyntheticWorkloads.h"
#include "realloc/UpdateProgram.h"
#include "support/MathUtils.h"

using namespace pcb;

namespace {

/// A workload of type \p T built from its default options, with the
/// maximum object size and the knobs that apply to every generated
/// workload.
template <typename T>
std::unique_ptr<Program> makeWorkload(uint64_t M, unsigned LogN,
                                      const WorkloadKnobs &Knobs,
                                      typename T::Options O = {}) {
  O.MaxLogSize = LogN;
  O.Seed = Knobs.Seed.value_or(O.Seed);
  return std::make_unique<T>(M, O);
}

} // namespace

std::unique_ptr<Program> pcb::createProgram(const std::string &Name,
                                            uint64_t M, unsigned LogN,
                                            double C,
                                            const WorkloadKnobs &Knobs) {
  if (Name == "robson")
    return std::make_unique<RobsonProgram>(M, LogN);
  // "pf" is the paper's name for the adversarial program of Section 4.
  if (Name == "cohen-petrank" || Name == "pf")
    return std::make_unique<CohenPetrankProgram>(M, pow2(LogN), C);
  if (Name == "random-churn") {
    RandomChurnProgram::Options O;
    O.Steps = Knobs.ChurnSteps.value_or(O.Steps);
    return makeWorkload<RandomChurnProgram>(M, LogN, Knobs, O);
  }
  if (Name == "markov-phase")
    return makeWorkload<MarkovPhaseProgram>(M, LogN, Knobs);
  if (Name == "stack-lifo")
    return makeWorkload<StackProgram>(M, LogN, Knobs);
  if (Name == "queue-fifo")
    return makeWorkload<QueueProgram>(M, LogN, Knobs);
  if (Name == "sawtooth")
    return makeWorkload<SawtoothProgram>(M, LogN, Knobs);
  // The reallocation family's insert/delete adversaries (realloc/).
  for (UpdateProgram::Shape S :
       {UpdateProgram::Shape::FillDrain, UpdateProgram::Shape::Alternating,
        UpdateProgram::Shape::Comb, UpdateProgram::Shape::SizeProfile,
        UpdateProgram::Shape::Mix}) {
    if (Name == std::string("update-") + UpdateProgram::shapeName(S)) {
      UpdateProgram::Options O;
      O.S = S;
      return makeWorkload<UpdateProgram>(M, LogN, Knobs, O);
    }
  }
  return nullptr;
}

std::unique_ptr<Program> pcb::createProgramChecked(const std::string &Name,
                                                   uint64_t M, unsigned LogN,
                                                   double C,
                                                   std::string *Error) {
  // The paper's two constructions refuse (M, n, c) they cannot build on;
  // the other programs clamp their sizes to the live bound.
  const char *Why = nullptr;
  if (LogN >= 64)
    Why = "log2(n) must be below 64";
  else if (Name == "robson")
    Why = RobsonProgram::paramsError(M, LogN);
  else if (Name == "cohen-petrank" || Name == "pf")
    Why = CohenPetrankProgram::paramsError(M, pow2(LogN), C);
  if (Why) {
    if (Error)
      *Error = "program '" + Name + "': " + Why;
    return nullptr;
  }
  std::unique_ptr<Program> P = createProgram(Name, M, LogN, C);
  if (!P && Error)
    *Error =
        "unknown program '" + Name + "'; valid programs: " + programNameList();
  return P;
}

std::string pcb::programNameList() {
  std::string List;
  for (const std::string &Name : allProgramNames()) {
    if (!List.empty())
      List += ", ";
    List += Name;
  }
  return List;
}

std::vector<std::string> pcb::allProgramNames() {
  std::vector<std::string> All = {"robson",       "cohen-petrank",
                                  "random-churn", "markov-phase",
                                  "stack-lifo",   "queue-fifo",
                                  "sawtooth"};
  for (const std::string &Name : updateProgramNames())
    All.push_back(Name);
  return All;
}

std::vector<std::string> pcb::adversarialProgramNames() {
  return {"robson", "cohen-petrank"};
}

std::vector<std::string> pcb::ordinaryProgramNames() {
  return {"random-churn", "markov-phase", "stack-lifo", "queue-fifo",
          "sawtooth"};
}

std::vector<std::string> pcb::updateProgramNames() {
  return {"update-fill-drain", "update-alternating", "update-comb",
          "update-size-profile", "update-mix"};
}
