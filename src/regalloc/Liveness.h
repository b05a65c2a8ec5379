//===- regalloc/Liveness.h - Live-variable analysis -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward live-variable dataflow over a function, feeding the linear
/// scan register allocator's live intervals. Registers of both classes
/// are tracked uniformly (they draw from disjoint architectural files).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_REGALLOC_LIVENESS_H
#define FPINT_REGALLOC_LIVENESS_H

#include "analysis/AnalysisManager.h"
#include "analysis/CFG.h"
#include "sir/IR.h"

#include <memory>
#include <vector>

namespace fpint {
namespace regalloc {

/// Per-block live-in/live-out register sets (bit per register id).
class Liveness {
public:
  Liveness(const sir::Function &F, const analysis::CFG &Cfg);

  bool liveIn(unsigned Block, sir::Reg R) const {
    return In[Block][R.id()];
  }
  bool liveOut(unsigned Block, sir::Reg R) const {
    return Out[Block][R.id()];
  }

  const std::vector<bool> &liveInSet(unsigned Block) const {
    return In[Block];
  }
  const std::vector<bool> &liveOutSet(unsigned Block) const {
    return Out[Block];
  }

private:
  std::vector<std::vector<bool>> In;
  std::vector<std::vector<bool>> Out;
};

/// AnalysisManager adapter for Liveness (consults CFGAnalysis). Lives
/// here rather than in analysis/ because liveness is a regalloc-layer
/// concern and the analysis library must not depend upward.
struct LivenessAnalysis {
  using Result = Liveness;
  static const char *name() { return "liveness"; }
  static std::unique_ptr<Result> run(const sir::Function &F,
                                     analysis::AnalysisManager &AM);
};

} // namespace regalloc
} // namespace fpint

#endif // FPINT_REGALLOC_LIVENESS_H
