//===- analysis/CFG.h - Control-flow graph utilities ----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function control-flow facts: predecessor/successor lists,
/// reverse post order, reachability, and Cooper-Harvey-Kennedy
/// immediate dominators. The dominator tree (analysis/Dominators.h) and
/// the natural loops (analysis/LoopInfo.h) are built on top of these.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_ANALYSIS_CFG_H
#define FPINT_ANALYSIS_CFG_H

#include "sir/IR.h"

#include <vector>

namespace fpint {
namespace analysis {

/// Control-flow facts about one function. Block identity is the layout
/// index (BasicBlock::index()), so the function must be renumbered.
class CFG {
public:
  explicit CFG(const sir::Function &F);

  const sir::Function &function() const { return F; }
  unsigned numBlocks() const { return static_cast<unsigned>(Succs.size()); }

  const std::vector<unsigned> &successors(unsigned Block) const {
    return Succs[Block];
  }
  const std::vector<unsigned> &predecessors(unsigned Block) const {
    return Preds[Block];
  }

  /// Blocks in reverse post order (entry first); unreachable blocks are
  /// appended after the reachable ones in layout order.
  const std::vector<unsigned> &reversePostOrder() const { return Rpo; }

  bool isReachable(unsigned Block) const { return Reachable[Block]; }

  /// Immediate dominator of \p Block (its own index for the entry block;
  /// entry index for unreachable blocks).
  unsigned idom(unsigned Block) const { return Idom[Block]; }

private:
  void computeDominators();

  const sir::Function &F;
  std::vector<std::vector<unsigned>> Succs;
  std::vector<std::vector<unsigned>> Preds;
  std::vector<unsigned> Rpo;
  std::vector<bool> Reachable;
  std::vector<unsigned> Idom;
};

} // namespace analysis
} // namespace fpint

#endif // FPINT_ANALYSIS_CFG_H
