//===- regalloc/Allocator.cpp - Backend table and module driver -----------===//

#include "regalloc/Allocator.h"

#include <chrono>

using namespace fpint;
using namespace fpint::regalloc;

namespace {

struct Backend {
  const char *Name;
  std::unique_ptr<Allocator> (*Create)();
};

/// Every backend, sorted by name.
constexpr Backend Backends[] = {
    {"regalloc", createIncumbentAllocator},
    {"regalloc-linear", createLinearScanAllocator},
};

} // namespace

std::unique_ptr<Allocator> regalloc::createAllocator(const std::string &Name) {
  for (const Backend &B : Backends)
    if (Name == B.Name)
      return B.Create();
  return nullptr;
}

std::vector<std::string> regalloc::allocatorNames() {
  std::vector<std::string> Names;
  for (const Backend &B : Backends)
    Names.push_back(B.Name);
  return Names;
}

ModuleAlloc regalloc::allocateModuleWith(const std::string &Name,
                                         sir::Module &M,
                                         analysis::AnalysisManager &AM) {
  ModuleAlloc Result;
  const std::string &Effective = Name.empty() ? defaultAllocatorName() : Name;
  std::unique_ptr<Allocator> Alloc = createAllocator(Effective);
  if (!Alloc) {
    Result.Errors.push_back("unknown register allocator '" + Effective + "'");
    return Result;
  }
  Result.AllocatorName = Alloc->name();
  for (const auto &F : M.functions()) {
    std::string Error;
    // Lowering and rewriting mutate F around the analysis fetches, so
    // bracket each function with invalidations: stale entries from
    // earlier passes are dropped going in, and the allocator's own
    // CFG / liveness / live-interval results are dropped going out.
    AM.invalidateFunction(*F);
    auto T0 = std::chrono::steady_clock::now();
    bool Ok = Alloc->runOnFunction(*F, Result, AM, Error);
    auto T1 = std::chrono::steady_clock::now();
    if (!Ok)
      Result.Errors.push_back(Error);
    auto It = Result.Funcs.find(F.get());
    if (It != Result.Funcs.end())
      It->second.WallMs =
          std::chrono::duration<double, std::milli>(T1 - T0).count();
    AM.invalidateFunction(*F);
  }
  return Result;
}

ModuleAlloc regalloc::allocateModule(sir::Module &M,
                                     analysis::AnalysisManager &AM) {
  return allocateModuleWith("", M, AM);
}
