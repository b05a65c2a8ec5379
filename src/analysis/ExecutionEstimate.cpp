//===- analysis/ExecutionEstimate.cpp - Block execution weights -----------===//

#include "analysis/ExecutionEstimate.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"

#include <cmath>

using namespace fpint;
using namespace fpint::analysis;

std::vector<double> analysis::staticEstimate(const sir::Function &F,
                                             const CFG &Cfg) {
  const unsigned N = Cfg.numBlocks();
  std::vector<double> P(N, 0.0);
  if (N == 0)
    return P;
  P[0] = 1.0;
  const DominatorTree DT(F, Cfg);
  const LoopInfo LI(F, Cfg, DT);
  // B -> S is a back edge when its target dominates its source.
  auto IsBackEdge = [&](unsigned B, unsigned S) { return DT.dominates(S, B); };

  // Propagate probabilities along forward edges in reverse post order,
  // splitting evenly at branches (the paper's 50/50 assumption). Back
  // edges are excluded; loop weight enters through the 5^depth factor.
  for (unsigned B : Cfg.reversePostOrder()) {
    if (!Cfg.isReachable(B))
      continue;
    const auto &Succs = Cfg.successors(B);
    unsigned ForwardSuccs = 0;
    for (unsigned S : Succs)
      if (!IsBackEdge(B, S))
        ++ForwardSuccs;
    if (ForwardSuccs == 0)
      continue;
    double Share = P[B] / static_cast<double>(Succs.size());
    for (unsigned S : Succs)
      if (!IsBackEdge(B, S))
        P[S] += Share;
  }

  std::vector<double> Estimate(N, 0.0);
  for (unsigned B = 0; B < N; ++B)
    Estimate[B] = P[B] * std::pow(5.0, static_cast<double>(LI.depth(B)));
  return Estimate;
}

BlockWeights::BlockWeights(const sir::Module &M, const vm::Profile *Prof) {
  for (const auto &F : M.functions()) {
    // A function counts as profiled if any of its blocks executed.
    bool Profiled = false;
    if (Prof)
      for (const auto &BB : F->blocks())
        if (Prof->countOf(BB.get()) != 0) {
          Profiled = true;
          break;
        }
    ProfiledFuncs[F.get()] = Profiled;
    if (Profiled) {
      for (const auto &BB : F->blocks())
        Weights[BB.get()] = static_cast<double>(Prof->countOf(BB.get()));
      continue;
    }
    CFG Cfg(*F);
    std::vector<double> Est = staticEstimate(*F, Cfg);
    for (unsigned B = 0; B < Cfg.numBlocks(); ++B)
      Weights[F->blocks()[B].get()] = Est[B];
  }
}
