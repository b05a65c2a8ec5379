//===- analysis/CFG.cpp - Control-flow graph utilities --------------------===//

#include "analysis/CFG.h"

#include <cstdint>

using namespace fpint;
using namespace fpint::analysis;
using sir::BasicBlock;

CFG::CFG(const sir::Function &F) : F(F) {
  const unsigned N = static_cast<unsigned>(F.blocks().size());
  Succs.resize(N);
  Preds.resize(N);
  Reachable.assign(N, false);

  std::vector<BasicBlock *> SuccBlocks;
  for (unsigned B = 0; B < N; ++B) {
    SuccBlocks.clear();
    F.blocks()[B]->successors(SuccBlocks);
    for (BasicBlock *S : SuccBlocks) {
      Succs[B].push_back(S->index());
      Preds[S->index()].push_back(B);
    }
  }

  // Depth-first post order from the entry, then reverse.
  if (N != 0) {
    std::vector<unsigned> Post;
    std::vector<uint8_t> State(N, 0); // 0 unseen, 1 on stack, 2 done
    std::vector<std::pair<unsigned, size_t>> Stack;
    Stack.emplace_back(0u, 0u);
    State[0] = 1;
    Reachable[0] = true;
    while (!Stack.empty()) {
      auto &[B, NextSucc] = Stack.back();
      if (NextSucc < Succs[B].size()) {
        unsigned S = Succs[B][NextSucc++];
        if (State[S] == 0) {
          State[S] = 1;
          Reachable[S] = true;
          Stack.emplace_back(S, 0u);
        }
        continue;
      }
      State[B] = 2;
      Post.push_back(B);
      Stack.pop_back();
    }
    Rpo.assign(Post.rbegin(), Post.rend());
    for (unsigned B = 0; B < N; ++B)
      if (!Reachable[B])
        Rpo.push_back(B);
  }

  computeDominators();
}

void CFG::computeDominators() {
  // Cooper-Harvey-Kennedy iterative dominators over RPO.
  const unsigned N = numBlocks();
  Idom.assign(N, 0);
  if (N == 0)
    return;
  std::vector<unsigned> RpoNumber(N, 0);
  for (unsigned Pos = 0; Pos < Rpo.size(); ++Pos)
    RpoNumber[Rpo[Pos]] = Pos;

  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (RpoNumber[A] > RpoNumber[B])
        A = Idom[A];
      while (RpoNumber[B] > RpoNumber[A])
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  std::vector<bool> Processed(N, false);
  Processed[0] = true;
  while (Changed) {
    Changed = false;
    for (unsigned Pos = 1; Pos < Rpo.size(); ++Pos) {
      unsigned B = Rpo[Pos];
      if (!Reachable[B])
        continue;
      unsigned NewIdom = ~0u;
      for (unsigned P : Preds[B]) {
        if (!Reachable[P] || !Processed[P])
          continue;
        NewIdom = NewIdom == ~0u ? P : Intersect(P, NewIdom);
      }
      if (NewIdom == ~0u)
        continue;
      if (!Processed[B] || Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Processed[B] = true;
        Changed = true;
      }
    }
  }
}
