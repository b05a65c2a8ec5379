//===- analysis/ExecutionEstimate.h - Block execution weights -------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-count estimates for the advanced partitioning scheme's cost
/// model. The paper obtains n_B from basic-block profiles; functions not
/// covered by the profile fall back to the probabilistic estimate
/// n_B = p_B * 5^(d_B), where p_B assumes both directions of every branch
/// are equally likely and d_B is the loop nesting depth (Section 6.1).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_ANALYSIS_EXECUTIONESTIMATE_H
#define FPINT_ANALYSIS_EXECUTIONESTIMATE_H

#include "analysis/CFG.h"
#include "sir/IR.h"
#include "vm/VM.h"

#include <unordered_map>
#include <vector>

namespace fpint {
namespace analysis {

/// The paper's static estimate: n_B = p_B * 5^(d_B), indexed by block
/// layout position. p_B propagates from the entry along forward (non
/// back) edges, splitting evenly at branches; d_B is LoopInfo's nesting
/// depth.
std::vector<double> staticEstimate(const sir::Function &F, const CFG &Cfg);

/// Per-block execution weights for a whole module: profiled functions
/// use exact counts, unprofiled ones the static estimate.
class BlockWeights {
public:
  /// \p Prof may be null (forces static estimates everywhere).
  BlockWeights(const sir::Module &M, const vm::Profile *Prof);

  double weightOf(const sir::BasicBlock *BB) const {
    auto It = Weights.find(BB);
    return It == Weights.end() ? 0.0 : It->second;
  }

  /// True if the function's weights came from a profile.
  bool isProfiled(const sir::Function *F) const {
    auto It = ProfiledFuncs.find(F);
    return It != ProfiledFuncs.end() && It->second;
  }

private:
  std::unordered_map<const sir::BasicBlock *, double> Weights;
  std::unordered_map<const sir::Function *, bool> ProfiledFuncs;
};

} // namespace analysis
} // namespace fpint

#endif // FPINT_ANALYSIS_EXECUTIONESTIMATE_H
