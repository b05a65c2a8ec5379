//===- analysis/AnalysisManager.cpp - Cached per-function analyses --------===//

#include "analysis/AnalysisManager.h"

using namespace fpint;
using namespace fpint::analysis;

const void *AnalysisManager::lookup(const EntryKey &K, const char *Name) {
  auto It = Entries.find(K);
  Counters &C = ByName[Name];
  if (It == Entries.end()) {
    ++Counts.Misses;
    ++C.Misses;
    return nullptr;
  }
  ++Counts.Hits;
  ++C.Hits;
  return It->second.Result.get();
}

void AnalysisManager::countInvalidation(const std::string &Name) {
  ++Counts.Invalidations;
  ++ByName[Name].Invalidations;
}

void AnalysisManager::invalidate() {
  for (const auto &KV : Entries)
    countInvalidation(KV.second.Name);
  Entries.clear();
  if (Weights) {
    Weights.reset();
    WeightsModule = nullptr;
    WeightsProfile = nullptr;
    countInvalidation("block-weights");
  }
}

void AnalysisManager::invalidateFunction(const sir::Function &F) {
  for (auto It = Entries.begin(); It != Entries.end();) {
    if (It->first.first != static_cast<const void *>(&F)) {
      ++It;
      continue;
    }
    countInvalidation(It->second.Name);
    It = Entries.erase(It);
  }
}

const BlockWeights &AnalysisManager::blockWeights(const sir::Module &M,
                                                  const vm::Profile *Prof) {
  Counters &C = ByName["block-weights"];
  if (Weights && WeightsModule == &M && WeightsProfile == Prof) {
    ++Counts.Hits;
    ++C.Hits;
    return *Weights;
  }
  ++Counts.Misses;
  ++C.Misses;
  Weights = std::make_unique<BlockWeights>(M, Prof);
  WeightsModule = &M;
  WeightsProfile = Prof;
  return *Weights;
}

//===----------------------------------------------------------------------===//
// Concrete analyses.
//===----------------------------------------------------------------------===//

std::unique_ptr<CFG> CFGAnalysis::run(const sir::Function &F,
                                      AnalysisManager &) {
  return std::make_unique<CFG>(F);
}

std::unique_ptr<ReachingDefs>
ReachingDefsAnalysis::run(const sir::Function &F, AnalysisManager &AM) {
  const CFG &Cfg = AM.getResult<CFGAnalysis>(F);
  return std::make_unique<ReachingDefs>(F, Cfg);
}

std::unique_ptr<RDG> RDGAnalysis::run(const sir::Function &F,
                                      AnalysisManager &AM) {
  const CFG &Cfg = AM.getResult<CFGAnalysis>(F);
  const ReachingDefs &RD = AM.getResult<ReachingDefsAnalysis>(F);
  return std::make_unique<RDG>(F, Cfg, RD);
}
