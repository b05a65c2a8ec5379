//===- analysis/Dominators.cpp - Dominator tree ---------------------------===//

#include "analysis/Dominators.h"

#include "analysis/AnalysisManager.h"

using namespace fpint;
using namespace fpint::analysis;

DominatorTree::DominatorTree(const sir::Function &F, const CFG &Cfg) {
  (void)F;
  const unsigned N = Cfg.numBlocks();
  Idom.assign(N, 0);
  Kids.assign(N, {});
  In.assign(N, 0);
  Out.assign(N, 0);
  Reach.assign(N, false);
  if (N == 0)
    return;

  for (unsigned B = 0; B < N; ++B) {
    Reach[B] = Cfg.isReachable(B);
    // Unreachable blocks point at themselves so they never appear on a
    // reachable block's idom chain (CFG maps them to the entry, which
    // would make them look like entry children).
    Idom[B] = Reach[B] ? Cfg.idom(B) : B;
  }
  for (unsigned B = 1; B < N; ++B)
    if (Reach[B])
      Kids[Idom[B]].push_back(B); // Ascending order by construction.

  // DFS pre-order with interval stamps for O(1) dominance queries.
  Pre.reserve(N);
  unsigned Clock = 0;
  std::vector<std::pair<unsigned, size_t>> Stack; // (block, next child).
  Stack.emplace_back(0u, 0u);
  In[0] = ++Clock;
  Pre.push_back(0);
  while (!Stack.empty()) {
    auto &[B, Next] = Stack.back();
    if (Next < Kids[B].size()) {
      unsigned C = Kids[B][Next++];
      In[C] = ++Clock;
      Pre.push_back(C);
      Stack.emplace_back(C, 0u);
    } else {
      Out[B] = ++Clock;
      Stack.pop_back();
    }
  }
}

std::unique_ptr<DominatorTree>
DominatorTreeAnalysis::run(const sir::Function &F, AnalysisManager &AM) {
  const CFG &Cfg = AM.getResult<CFGAnalysis>(F);
  return std::make_unique<DominatorTree>(F, Cfg);
}
