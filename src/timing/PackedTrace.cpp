//===- timing/PackedTrace.cpp - SoA-packed dynamic trace ------------------===//

#include "timing/PackedTrace.h"

#include "sir/Opcode.h"

#include <cassert>
#include <utility>

using namespace fpint;
using namespace fpint::timing;
using sir::ExecClass;
using sir::Instruction;
using sir::Opcode;
using sir::RegClass;

PackedTrace PackedTrace::build(vm::Trace &&Trace,
                               const regalloc::ModuleAlloc &Alloc) {
  PackedTrace PT;
  static_cast<vm::Trace &>(PT) = std::move(Trace);
  PT.Ops.reserve(PT.Slots.size());

  // The decode below mirrors the reference simulator's InfoOf helper
  // field for field; the two must stay in lockstep (the fuzz oracle's
  // fast-vs-reference differential would catch a drift).
  for (const vm::Trace::Slot &S : PT.Slots) {
    const Instruction &I = *S.I;
    const sir::Function *F = I.parent()->parent();
    PackedOp Op;
    Op.Pc = S.Pc;
    ExecClass Class = sir::execClass(I.op());
    Op.Class = static_cast<uint8_t>(Class);
    Op.Latency = static_cast<uint8_t>(sir::execLatency(Class));
    if (sir::isFpOpcode(I.op()) || I.inFpa())
      Op.Flags |= PackedOp::FpSubsystem;
    if (I.isLoad())
      Op.Flags |= PackedOp::IsLoad;
    if (I.isStore())
      Op.Flags |= PackedOp::IsStore;
    if (I.isCondBranch())
      Op.Flags |= PackedOp::IsCondBranch;
    if (Class == ExecClass::IntDiv || Class == ExecClass::FpDiv)
      Op.Flags |= PackedOp::Unpipelined;
    if (I.op() == Opcode::Jump || I.op() == Opcode::Call ||
        I.op() == Opcode::Ret)
      Op.Flags |= PackedOp::UncondTransfer;
    if (I.inFpa()) {
      Op.Flags |= PackedOp::InFpa;
      PT.HasFpa = true;
    }
    if (I.def().isValid()) {
      Op.Flags |= PackedOp::HasDef;
      bool Fp = F->regClass(I.def()) == RegClass::Fp;
      unsigned Arch = Alloc.archIndexOf(F, I.def());
      assert(Arch < regalloc::ArchLayout::FileSize);
      Op.Def = static_cast<uint8_t>((Fp ? PackedOp::FileBit : 0) | Arch);
    }
    I.forEachUse([&](sir::Reg R, sir::UseKind) {
      assert(Op.NumUses < 4 && "too many operands");
      bool Fp = F->regClass(R) == RegClass::Fp;
      unsigned Arch = Alloc.archIndexOf(F, R);
      assert(Arch < regalloc::ArchLayout::FileSize);
      Op.Uses[Op.NumUses++] =
          static_cast<uint8_t>((Fp ? PackedOp::FileBit : 0) | Arch);
    });
    PT.Ops.push_back(Op);
  }
  return PT;
}
