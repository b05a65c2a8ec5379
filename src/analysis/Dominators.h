//===- analysis/Dominators.h - Dominator tree -----------------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dominator tree of a function, built on top of the CFG's
/// Cooper-Harvey-Kennedy immediate dominators: children lists and a
/// DFS pre-order with entry/exit stamps for O(1) dominance queries --
/// what the dominator-ordered mid-end transforms (GVN's extended-region
/// walk, LICM's exit-domination check), natural-loop discovery and the
/// static execution estimate's back-edge test traverse.
///
/// Fetched through the AnalysisManager as "domtree" (computing it
/// consults "cfg").
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_ANALYSIS_DOMINATORS_H
#define FPINT_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"
#include "sir/IR.h"

#include <memory>
#include <vector>

namespace fpint {
namespace analysis {

class AnalysisManager;

/// The dominator tree of one renumbered function. Block identity is the
/// layout index, like CFG. Unreachable blocks are not part of the tree:
/// they have no children and are dominated only by themselves.
class DominatorTree {
public:
  DominatorTree(const sir::Function &F, const CFG &Cfg);

  unsigned numBlocks() const { return static_cast<unsigned>(Kids.size()); }

  /// Immediate dominator (entry maps to itself; unreachable blocks map
  /// to themselves too, keeping them out of every other block's chain).
  unsigned idom(unsigned Block) const { return Idom[Block]; }

  /// Tree children of \p Block, in ascending layout order.
  const std::vector<unsigned> &children(unsigned Block) const {
    return Kids[Block];
  }

  /// True if \p A dominates \p B (reflexive), via DFS interval stamps:
  /// O(1). False whenever either block is unreachable (unless A == B).
  bool dominates(unsigned A, unsigned B) const {
    if (A == B)
      return true;
    if (!Reach[A] || !Reach[B])
      return false;
    return In[A] <= In[B] && Out[B] <= Out[A];
  }

  bool properlyDominates(unsigned A, unsigned B) const {
    return A != B && dominates(A, B);
  }

  /// Reachable blocks in dominator-tree DFS pre-order (entry first).
  /// Children are visited in ascending layout order, so the order is
  /// deterministic.
  const std::vector<unsigned> &preorder() const { return Pre; }

  bool isReachable(unsigned Block) const { return Reach[Block]; }

private:
  std::vector<unsigned> Idom;
  std::vector<std::vector<unsigned>> Kids;
  std::vector<unsigned> In, Out; ///< DFS interval stamps.
  std::vector<unsigned> Pre;
  std::vector<bool> Reach;
};

/// AnalysisManager adapter (consults CFGAnalysis).
struct DominatorTreeAnalysis {
  using Result = DominatorTree;
  static const char *name() { return "domtree"; }
  static std::unique_ptr<Result> run(const sir::Function &F,
                                     AnalysisManager &AM);
};

} // namespace analysis
} // namespace fpint

#endif // FPINT_ANALYSIS_DOMINATORS_H
