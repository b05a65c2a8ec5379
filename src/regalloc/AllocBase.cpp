//===- regalloc/AllocBase.cpp - Shared per-function allocator machinery ---===//

#include "regalloc/AllocBase.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace fpint;
using namespace fpint::regalloc;
using sir::BasicBlock;
using sir::Instruction;
using sir::MemOperand;
using sir::Opcode;
using sir::Reg;
using sir::RegClass;

Reg FuncAllocBase::archReg(RegClass RC, unsigned Idx) {
  auto Key = std::make_pair(RC, Idx);
  auto It = ArchRegs.find(Key);
  if (It != ArchRegs.end())
    return It->second;
  Reg R = F.newReg(RC);
  ArchRegs.emplace(Key, R);
  return R;
}

void FuncAllocBase::lowerCallingConvention() {
  // Formals: the incoming values arrive in $a0..$aN; copy them into the
  // original formal registers at entry, then retarget the formal list.
  std::vector<Reg> OldFormals = F.formals();
  std::vector<Reg> NewFormals;
  std::vector<std::unique_ptr<Instruction>> EntryMoves;
  for (unsigned A = 0; A < OldFormals.size(); ++A) {
    // FP-passed arguments (Section 6.6 extension) travel in the FP
    // file's argument registers and move with fmove.
    RegClass RC = F.regClass(OldFormals[A]);
    Reg ArgR = archReg(RC, A);
    NewFormals.push_back(ArgR);
    auto Move = std::make_unique<Instruction>(
        RC == RegClass::Fp ? Opcode::FMove : Opcode::Move);
    Move->setDef(OldFormals[A]);
    Move->uses() = {ArgR};
    EntryMoves.push_back(std::move(Move));
  }
  BasicBlock *Entry = F.entry();
  for (size_t A = EntryMoves.size(); A-- > 0;)
    Entry->insertAt(0, std::move(EntryMoves[A]));

  F.setFormals(NewFormals);

  // Call sites: marshal arguments through $a regs and results through
  // $v0.
  for (const auto &BB : F.blocks()) {
    auto &Instrs = BB->instructions();
    for (size_t Pos = 0; Pos < Instrs.size(); ++Pos) {
      Instruction &I = *Instrs[Pos];
      if (I.op() == Opcode::Call) {
        for (size_t A = 0; A < I.uses().size(); ++A) {
          RegClass RC = F.regClass(I.uses()[A]);
          Reg ArgR = archReg(RC, static_cast<unsigned>(A));
          auto Move = std::make_unique<Instruction>(
              RC == RegClass::Fp ? Opcode::FMove : Opcode::Move);
          Move->setDef(ArgR);
          Move->uses() = {I.uses()[A]};
          BB->insertAt(Pos, std::move(Move));
          ++Pos;
          I.uses()[A] = ArgR;
        }
        if (I.def().isValid()) {
          Reg RetR = archReg(RegClass::Int, ArchLayout::RetReg);
          auto Move = std::make_unique<Instruction>(Opcode::Move);
          Move->setDef(I.def());
          Move->uses() = {RetR};
          I.setDef(RetR);
          BB->insertAt(Pos + 1, std::move(Move));
          ++Pos;
        }
        continue;
      }
      if (I.op() == Opcode::Ret && !I.uses().empty()) {
        Reg RetR = archReg(RegClass::Int, ArchLayout::RetReg);
        auto Move = std::make_unique<Instruction>(Opcode::Move);
        Move->setDef(RetR);
        Move->uses() = {I.uses()[0]};
        BB->insertAt(Pos, std::move(Move));
        ++Pos;
        I.uses()[0] = RetR;
      }
    }
  }
  F.renumber();
}

void FuncAllocBase::buildIntervals() {
  // Calling-convention lowering just mutated F, so any cached analyses
  // are stale; the caller invalidated them, making this fetch a clean
  // miss over the lowered IR (with LiveIntervals pulling CFG and
  // Liveness through the same manager, so the per-pass cache counters
  // attribute every lookup to the running regalloc pass).
  const LiveIntervals &LI = AM.getResult<LiveIntervalsAnalysis>(F);

  IsPrecolored.assign(F.numRegs(), false);
  for (const auto &[Key, R] : ArchRegs)
    IsPrecolored[R.id()] = true;

  // The analysis covers every register; which of them are allocatable
  // is policy. Precolored registers are the architectural vregs the
  // lowering introduced; never-defined registers read as zero and are
  // rewritten to the zero register instead of occupying an interval.
  NeverDefined.assign(F.numRegs(), false);
  for (unsigned R = 1; R < F.numRegs(); ++R) {
    const LiveIntervals::Range &Rg = LI.range(Reg(R));
    NeverDefined[R] = Rg.Used && !Rg.Defined && !IsPrecolored[R];
  }

  Intervals.clear();
  for (unsigned R = 1; R < F.numRegs(); ++R) {
    if (IsPrecolored[R] || NeverDefined[R])
      continue;
    const LiveIntervals::Range &Rg = LI.range(Reg(R));
    if (Rg.Start == ~0u)
      continue;
    Intervals.push_back(Interval{Reg(R), F.regClass(Reg(R)), Rg.Start,
                                 Rg.End, Rg.CrossesCall, ~0u, false});
  }

  std::sort(Intervals.begin(), Intervals.end(),
            [](const Interval &A, const Interval &B) {
              if (A.Start != B.Start)
                return A.Start < B.Start;
              return A.R < B.R;
            });
  IntervalOf.assign(F.numRegs(), ~0u);
  for (unsigned I = 0; I < Intervals.size(); ++I)
    IntervalOf[Intervals[I].R.id()] = I;

  CalleeUsed[0].assign(ArchLayout::NumCallee, false);
  CalleeUsed[1].assign(ArchLayout::NumCallee, false);
}

void FuncAllocBase::rewrite() {
  struct PendingInsert {
    BasicBlock *BB;
    size_t Pos; ///< Insert before this position.
    size_t Seq;
    std::unique_ptr<Instruction> I;
  };
  std::vector<PendingInsert> Inserts;

  auto SpillLoad = [&](Reg Scratch, unsigned Slot) {
    auto L = std::make_unique<Instruction>(Opcode::Lw);
    L->setDef(Scratch);
    L->mem() = MemOperand::frame(static_cast<int32_t>(Slot * 4));
    return L;
  };
  auto SpillStore = [&](Reg Scratch, unsigned Slot) {
    auto S = std::make_unique<Instruction>(Opcode::Sw);
    S->uses() = {Scratch};
    S->mem() = MemOperand::frame(static_cast<int32_t>(Slot * 4));
    return S;
  };

  for (const auto &BB : F.blocks()) {
    auto &Instrs = BB->instructions();
    for (size_t Pos = 0; Pos < Instrs.size(); ++Pos) {
      Instruction &I = *Instrs[Pos];

      // Per-instruction scratch assignment for spilled registers.
      std::map<uint32_t, Reg> ScratchOf;
      unsigned NextScratch[2] = {0, 0};
      auto ScratchFor = [&](Reg R) {
        auto It = ScratchOf.find(R.id());
        if (It != ScratchOf.end())
          return It->second;
        RegClass RC = F.regClass(R);
        unsigned &N = NextScratch[RC == RegClass::Fp];
        assert(N < ArchLayout::NumScratch && "out of spill scratch regs");
        Reg S = archReg(RC, ArchLayout::ScratchBase + N++);
        ScratchOf.emplace(R.id(), S);
        return S;
      };

      auto MapUse = [&](Reg &R) {
        if (IsPrecolored[R.id()])
          return;
        if (NeverDefined[R.id()]) {
          R = archReg(F.regClass(R), ZeroRegIndex);
          return;
        }
        unsigned IvIdx = IntervalOf[R.id()];
        assert(IvIdx != ~0u && "use of register without interval");
        const Interval &Iv = Intervals[IvIdx];
        if (!Iv.Spilled) {
          R = archReg(Iv.RC, Iv.ArchIdx);
          return;
        }
        Reg S = ScratchFor(R);
        Inserts.push_back(PendingInsert{
            BB.get(), Pos, Inserts.size(),
            SpillLoad(S, SpillSlotOf[R.id()])});
        ++Result.SpillCode;
        ++Result.SpillLoads;
        R = S;
      };

      for (Reg &U : I.uses())
        MapUse(U);
      if (I.mem().Base.isValid())
        MapUse(I.mem().Base);

      if (I.def().isValid() && !IsPrecolored[I.def().id()]) {
        Reg D = I.def();
        unsigned IvIdx = IntervalOf[D.id()];
        assert(IvIdx != ~0u && "def of register without interval");
        const Interval &Iv = Intervals[IvIdx];
        if (!Iv.Spilled) {
          I.setDef(archReg(Iv.RC, Iv.ArchIdx));
        } else {
          Reg S = ScratchFor(D);
          I.setDef(S);
          Inserts.push_back(PendingInsert{
              BB.get(), Pos + 1, Inserts.size(),
              SpillStore(S, SpillSlotOf[D.id()])});
          ++Result.SpillCode;
          ++Result.SpillStores;
        }
      }
    }
  }

  std::stable_sort(Inserts.begin(), Inserts.end(),
                   [](const PendingInsert &L, const PendingInsert &R) {
                     if (L.BB != R.BB)
                       return L.BB < R.BB;
                     if (L.Pos != R.Pos)
                       return L.Pos > R.Pos;
                     return L.Seq > R.Seq;
                   });
  for (auto &Ins : Inserts)
    Ins.BB->insertAt(Ins.Pos, std::move(Ins.I));
}

void FuncAllocBase::insertCalleeSaves() {
  // Allocate save slots for used callee-saved registers and insert the
  // prologue stores / epilogue reloads.
  std::vector<std::pair<Reg, unsigned>> Saves; // (arch reg, slot)
  for (unsigned ClassIdx = 0; ClassIdx < 2; ++ClassIdx) {
    RegClass RC = ClassIdx ? RegClass::Fp : RegClass::Int;
    for (unsigned I = 0; I < ArchLayout::NumCallee; ++I) {
      if (!CalleeUsed[ClassIdx][I])
        continue;
      Reg R = archReg(RC, ArchLayout::CalleeBase + I);
      Saves.emplace_back(R, NextSlot++);
      if (ClassIdx)
        ++Result.CalleeSavedUsedFp;
      else
        ++Result.CalleeSavedUsedInt;
    }
  }
  if (Saves.empty())
    return;

  BasicBlock *Entry = F.entry();
  for (size_t S = Saves.size(); S-- > 0;) {
    auto Store = std::make_unique<Instruction>(Opcode::Sw);
    Store->uses() = {Saves[S].first};
    Store->mem() = MemOperand::frame(static_cast<int32_t>(Saves[S].second * 4));
    Entry->insertAt(0, std::move(Store));
    ++Result.SpillCode;
    ++Result.CalleeSaveStores;
  }
  for (const auto &BB : F.blocks()) {
    auto &Instrs = BB->instructions();
    for (size_t Pos = 0; Pos < Instrs.size(); ++Pos) {
      if (Instrs[Pos]->op() != Opcode::Ret)
        continue;
      for (const auto &[R, Slot] : Saves) {
        auto Load = std::make_unique<Instruction>(Opcode::Lw);
        Load->setDef(R);
        Load->mem() = MemOperand::frame(static_cast<int32_t>(Slot * 4));
        BB->insertAt(Pos, std::move(Load));
        ++Pos;
        ++Result.SpillCode;
        ++Result.CalleeSaveRestores;
      }
    }
  }
}

void FuncAllocBase::finish() {
  F.setFrameWords(std::max(F.frameWords(), NextSlot));
  F.setAllocated(true);
  F.renumber();

  Result.SpillSlots = NextSlot - BaseSlots;
  Result.ArchIndex.assign(F.numRegs(), ~0u);
  for (const auto &[Key, R] : ArchRegs)
    Result.ArchIndex[R.id()] = Key.second;
  Out.Funcs.emplace(&F, std::move(Result));
}

bool FuncAllocBase::run(std::string &Error) {
  if (F.formals().size() > ArchLayout::NumArgRegs) {
    Error = F.name() + ": more than " +
            std::to_string(ArchLayout::NumArgRegs) + " formals";
    return false;
  }
  // Spill slots start beyond any frame slots the source code already
  // addresses with [frame+N].
  NextSlot = BaseSlots = F.frameWords();
  lowerCallingConvention();
  SpillSlotOf.assign(F.numRegs(), ~0u);
  buildIntervals();
  scan(RegClass::Int);
  scan(RegClass::Fp);
  rewrite();
  insertCalleeSaves();
  finish();
  return true;
}
