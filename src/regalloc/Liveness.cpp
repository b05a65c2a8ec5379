//===- regalloc/Liveness.cpp - Live-variable analysis ---------------------===//

#include "regalloc/Liveness.h"

#include <memory>

using namespace fpint;
using namespace fpint::regalloc;
using sir::Reg;

std::unique_ptr<Liveness>
LivenessAnalysis::run(const sir::Function &F, analysis::AnalysisManager &AM) {
  const analysis::CFG &Cfg = AM.getResult<analysis::CFGAnalysis>(F);
  return std::make_unique<Liveness>(F, Cfg);
}

Liveness::Liveness(const sir::Function &F, const analysis::CFG &Cfg) {
  const unsigned NumBlocks = Cfg.numBlocks();
  const unsigned NumRegs = F.numRegs();
  In.assign(NumBlocks, std::vector<bool>(NumRegs, false));
  Out.assign(NumBlocks, std::vector<bool>(NumRegs, false));

  // Per-block USE (upward exposed) and DEF sets.
  std::vector<std::vector<bool>> Use(NumBlocks,
                                     std::vector<bool>(NumRegs, false));
  std::vector<std::vector<bool>> Def(NumBlocks,
                                     std::vector<bool>(NumRegs, false));
  for (unsigned B = 0; B < NumBlocks; ++B) {
    for (const auto &I : F.blocks()[B]->instructions()) {
      I->forEachUse([&](Reg R, sir::UseKind) {
        if (!Def[B][R.id()])
          Use[B][R.id()] = true;
      });
      if (I->def().isValid())
        Def[B][I->def().id()] = true;
    }
  }

  // Iterate to fixpoint (backward problem; post order would converge
  // faster, but functions are small).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NumBlocks; B-- > 0;) {
      std::vector<bool> NewOut(NumRegs, false);
      for (unsigned S : Cfg.successors(B))
        for (unsigned R = 0; R < NumRegs; ++R)
          if (In[S][R])
            NewOut[R] = true;
      std::vector<bool> NewIn = Use[B];
      for (unsigned R = 0; R < NumRegs; ++R)
        if (NewOut[R] && !Def[B][R])
          NewIn[R] = true;
      if (NewOut != Out[B] || NewIn != In[B]) {
        Out[B] = std::move(NewOut);
        In[B] = std::move(NewIn);
        Changed = true;
      }
    }
  }
}
