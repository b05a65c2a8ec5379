//===- regalloc/LinearScan.cpp - Poletto-Sarkar linear-scan backend -------===//
//
// The "regalloc-linear" backend: linear scan exactly in the shape of
// Poletto & Sarkar, "Linear Scan Register Allocation" (TOPLAS 1999).
// Differences from the incumbent's scan policy:
//
//  * the active list is kept sorted by increasing end point, so
//    expiry pops from the front and the spill candidate ("spill the
//    interval that ends last", the paper's heuristic) is found from
//    the back instead of by a full sweep;
//  * free registers are round-robin FIFO queues (released registers
//    go to the back), the classic formulation, instead of the
//    incumbent's lowest-index-first rescan.
//
// The FPa-partition and calling-convention constraints are identical:
// INT and FP files are scanned independently (FPa operands arrive as
// RegClass::Fp), and an interval live across a call may only take a
// callee-saved register or spill. Everything outside the scan -- the
// lowering, the LiveIntervals input, the spill/reload rewrite, the
// callee-save prologue/epilogue -- is the shared FuncAllocBase
// machinery, so the two backends differ only in assignment policy.
//
//===----------------------------------------------------------------------===//

#include "regalloc/AllocBase.h"
#include "regalloc/Allocator.h"

#include <algorithm>
#include <deque>

using namespace fpint;
using namespace fpint::regalloc;
using sir::RegClass;

namespace {

class LinearScanFuncAllocator final : public FuncAllocBase {
public:
  using FuncAllocBase::FuncAllocBase;

private:
  void scan(RegClass RC) override;
};

void LinearScanFuncAllocator::scan(RegClass RC) {
  // Round-robin free pools, seeded in ascending index order.
  std::deque<unsigned> CallerFree, CalleeFree;
  for (unsigned I = 0; I < ArchLayout::NumCaller; ++I)
    CallerFree.push_back(ArchLayout::CallerBase + I);
  for (unsigned I = 0; I < ArchLayout::NumCallee; ++I)
    CalleeFree.push_back(ArchLayout::CalleeBase + I);

  // Active intervals sorted by increasing End (ties keep insertion
  // order); the paper's ExpireOldIntervals pops from the front.
  std::vector<unsigned> Active;
  auto EndOf = [&](unsigned IvIdx) { return Intervals[IvIdx].End; };
  auto Insert = [&](unsigned IvIdx) {
    auto It = std::upper_bound(Active.begin(), Active.end(), IvIdx,
                               [&](unsigned L, unsigned R) {
                                 return EndOf(L) < EndOf(R);
                               });
    Active.insert(It, IvIdx);
  };
  auto Release = [&](unsigned ArchIdx) {
    if (isCalleeIdx(ArchIdx))
      CalleeFree.push_back(ArchIdx);
    else
      CallerFree.push_back(ArchIdx);
  };
  auto Take = [&](std::deque<unsigned> &Pool) -> unsigned {
    if (Pool.empty())
      return ~0u;
    unsigned Idx = Pool.front();
    Pool.pop_front();
    if (isCalleeIdx(Idx))
      markCalleeUsed(RC, Idx);
    return Idx;
  };

  for (unsigned IvIdx = 0; IvIdx < Intervals.size(); ++IvIdx) {
    Interval &Iv = Intervals[IvIdx];
    if (Iv.RC != RC)
      continue;

    // ExpireOldIntervals: same boundary rule as the incumbent (end at
    // or before this start expires; reads precede the write at equal
    // positions, so sharing is safe).
    while (!Active.empty() && EndOf(Active.front()) <= Iv.Start) {
      Release(Intervals[Active.front()].ArchIdx);
      Active.erase(Active.begin());
    }

    unsigned Got = Iv.CrossesCall
                       ? Take(CalleeFree)
                       : (CallerFree.empty() ? Take(CalleeFree)
                                             : Take(CallerFree));
    if (Got != ~0u) {
      Iv.ArchIdx = Got;
      Insert(IvIdx);
      continue;
    }

    // SpillAtInterval: the spill candidate is the compatible active
    // interval that ends last -- the first one from the back of the
    // sorted list (for a call-crossing interval, the last one holding
    // a callee-saved register).
    size_t VictimPos = Active.size();
    for (size_t A = Active.size(); A-- > 0;) {
      if (!Iv.CrossesCall || isCalleeIdx(Intervals[Active[A]].ArchIdx)) {
        VictimPos = A;
        break;
      }
    }
    if (VictimPos != Active.size() &&
        EndOf(Active[VictimPos]) > Iv.End) {
      Interval &Victim = Intervals[Active[VictimPos]];
      Iv.ArchIdx = Victim.ArchIdx;
      if (isCalleeIdx(Iv.ArchIdx))
        markCalleeUsed(RC, Iv.ArchIdx);
      spillInterval(Victim);
      Victim.ArchIdx = ~0u;
      Active.erase(Active.begin() + static_cast<long>(VictimPos));
      Insert(IvIdx);
    } else {
      spillInterval(Iv);
    }
  }
}

class LinearScanAllocator final : public Allocator {
public:
  const char *name() const override { return "regalloc-linear"; }

  bool runOnFunction(sir::Function &F, ModuleAlloc &Out,
                     analysis::AnalysisManager &AM,
                     std::string &Error) override {
    LinearScanFuncAllocator Alloc(F, Out, AM);
    return Alloc.run(Error);
  }
};

} // namespace

std::unique_ptr<Allocator> regalloc::createLinearScanAllocator() {
  return std::make_unique<LinearScanAllocator>();
}
