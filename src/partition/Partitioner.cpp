//===- partition/Partitioner.cpp - Whole-module partitioning driver -------===//

#include "partition/Partitioner.h"

#include "analysis/CFG.h"
#include "analysis/RDG.h"
#include "partition/AdvancedPartitioner.h"
#include "partition/BasicPartitioner.h"

#include <memory>
#include <unordered_set>

using namespace fpint;
using namespace fpint::partition;

namespace {

/// Erases the blocks of \p F that control cannot reach from its entry
/// and renumbers the rest; true if there were any. No definition
/// reaches a use in such a block, so the RDG cannot pin what the use
/// reads to INT, and the rewrite would retype a value that the use
/// still reads from the INT file.
bool eraseUnreachableBlocks(sir::Function &F) {
  F.renumber(); // The CFG follows layout indices.
  const analysis::CFG Cfg(F);
  if (std::erase_if(F.blocks(), [&](const auto &BB) {
        return !Cfg.isReachable(BB->index());
      }) == 0)
    return false;
  F.renumber(); // The survivors must hold dense layout indices again.
  return true;
}

} // namespace

const char *partition::schemeName(Scheme S) {
  switch (S) {
  case Scheme::None:
    return "conventional";
  case Scheme::Basic:
    return "basic";
  case Scheme::Advanced:
    return "advanced";
  }
  return "<bad>";
}

ModuleRewrite partition::partitionModule(sir::Module &M, Scheme S,
                                         const vm::Profile *ProfileWeights,
                                         CostParams Params,
                                         analysis::AnalysisManager *AM) {
  ModuleRewrite Result;
  if (S == Scheme::None)
    return Result;
  for (const auto &F : M.functions())
    if (eraseUnreachableBlocks(*F) && AM)
      AM->invalidateFunction(*F);

  // Block weights and per-function graphs come from the analysis
  // manager when the caller runs under one (the pass pipeline), and
  // are built locally otherwise (direct library use). renumber() is
  // idempotent on an unmutated function, so cached analyses keyed on
  // instruction ids stay valid across it.
  std::unique_ptr<analysis::BlockWeights> LocalWeights;
  const analysis::BlockWeights *Weights;
  if (AM) {
    Weights = &AM->blockWeights(M, ProfileWeights);
  } else {
    LocalWeights =
        std::make_unique<analysis::BlockWeights>(M, ProfileWeights);
    Weights = LocalWeights.get();
  }

  for (const auto &F : M.functions()) {
    F->renumber();
    std::unique_ptr<analysis::CFG> LocalCfg;
    std::unique_ptr<analysis::RDG> LocalRdg;
    const analysis::RDG *GP;
    if (AM) {
      GP = &AM->getResult<analysis::RDGAnalysis>(*F);
    } else {
      LocalCfg = std::make_unique<analysis::CFG>(*F);
      LocalRdg = std::make_unique<analysis::RDG>(*F, *LocalCfg);
      GP = LocalRdg.get();
    }
    const analysis::RDG &G = *GP;

    Assignment A = S == Scheme::Basic
                       ? partitionBasic(G)
                       : partitionAdvanced(G, *Weights, Params);

    std::vector<std::string> Errs = validateAssignment(A);
    if (S == Scheme::Basic && !satisfiesBasicConditions(A))
      Errs.push_back(F->name() +
                     ": basic partition violates Section 5.1 conditions");
    for (std::string &E : Errs)
      Result.Errors.push_back(F->name() + ": " + E);
    if (!Errs.empty())
      continue; // Leave this function unpartitioned.

    RewriteReport Report = applyAssignment(*F, A);
    if (AM)
      AM->invalidateFunction(*F); // The rewrite mutated F's IR.
    Result.StaticCopies += static_cast<unsigned>(Report.CopyInstrs.size());
    Result.StaticDups += static_cast<unsigned>(Report.DupInstrs.size());
    Result.StaticCopyBacks +=
        static_cast<unsigned>(Report.CopyBackInstrs.size());
    Result.Reports.emplace(F.get(), std::move(Report));
  }
  return Result;
}

DynStats partition::computeDynStats(const sir::Module &M,
                                    const vm::Profile &MeasureProfile,
                                    const ModuleRewrite *Rewrite) {
  // Gather the inserted-instruction sets for classification.
  std::unordered_set<const sir::Instruction *> CopySet, DupSet, CopyBackSet;
  if (Rewrite) {
    for (const auto &[F, Report] : Rewrite->Reports) {
      (void)F;
      CopySet.insert(Report.CopyInstrs.begin(), Report.CopyInstrs.end());
      DupSet.insert(Report.DupInstrs.begin(), Report.DupInstrs.end());
      CopyBackSet.insert(Report.CopyBackInstrs.begin(),
                         Report.CopyBackInstrs.end());
    }
  }

  DynStats Stats;
  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      uint64_t Count = MeasureProfile.countOf(BB.get());
      if (Count == 0)
        continue;
      for (const auto &I : BB->instructions()) {
        Stats.Total += Count;
        if (I->inFpa())
          Stats.Fpa += Count;
        if (sir::isFpOpcode(I->op()))
          Stats.NativeFp += Count;
        if (I->isLoad())
          Stats.Loads += Count;
        if (I->isStore())
          Stats.Stores += Count;
        if (CopySet.count(I.get()))
          Stats.Copies += Count;
        if (DupSet.count(I.get()))
          Stats.Dups += Count;
        if (CopyBackSet.count(I.get()))
          Stats.CopyBacks += Count;
      }
    }
  }
  return Stats;
}
