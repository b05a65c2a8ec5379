//===- timing/PackedTrace.h - SoA-packed dynamic trace --------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's dynamic trace, pre-decoded for the timing simulator.
///
/// The VM records its dynamic stream directly in structure-of-arrays
/// form (vm::Trace): a small table of the static instructions that
/// executed, and per dynamic instruction the index of its static slot,
/// its effective memory address, and its branch-taken bit. A
/// PackedTrace adopts that stream as is -- the arrays are moved in,
/// never copied or re-walked -- and adds one dense `PackedOp` record
/// per executed static instruction (execution class, FU latency,
/// unpipelined/load/store/branch flags, packed def/use architectural
/// register ids from the regalloc ArchIndex map). The set of static
/// instructions is small, so the decode table stays hot in L1, and the
/// fast cycle loop never chases an instruction pointer.
///
/// A PackedTrace is a pure function of (compiled module, ref input) --
/// it is independent of any timing::MachineConfig, so one build serves
/// every machine sweep. core::TraceHandle captures and decodes it in a
/// single step, at most once per compiled module, and every simulation
/// borrows it. The reference loop runs from the same object through
/// the inherited vm::Trace::entries() when the fast path is disabled.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TIMING_PACKEDTRACE_H
#define FPINT_TIMING_PACKEDTRACE_H

#include "regalloc/RegAlloc.h"
#include "sir/IR.h"
#include "vm/VM.h"

#include <cstdint>
#include <vector>

namespace fpint {
namespace timing {

/// One statically decoded instruction of a PackedTrace. Operand fields
/// pack (file, arch index) into one byte: bit 5 selects the register
/// file (0 = INT, 1 = FP), bits 0-4 the architectural index within it
/// (regalloc::ArchLayout::FileSize == 32).
struct PackedOp {
  static constexpr uint8_t FileBit = 1u << 5;
  static constexpr uint8_t ArchMask = FileBit - 1;

  /// Static flag bits of Flags.
  enum : uint8_t {
    FpSubsystem = 1u << 0,   ///< Issues from the FP window / FP units.
    IsLoad = 1u << 1,
    IsStore = 1u << 2,
    IsCondBranch = 1u << 3,
    Unpipelined = 1u << 4,   ///< Divides occupy their unit fully.
    HasDef = 1u << 5,
    UncondTransfer = 1u << 6, ///< Jump / Call / Ret (perfectly predicted).
    InFpa = 1u << 7,          ///< Partitioned (",a") instruction.
  };

  uint32_t Pc = 0;     ///< Static instruction address (4-byte spaced).
  uint8_t Class = 0;   ///< sir::ExecClass of the opcode.
  uint8_t Latency = 1; ///< sir::execLatency(Class).
  uint8_t Flags = 0;
  uint8_t Def = 0;     ///< Packed destination (valid iff HasDef).
  uint8_t NumUses = 0;
  uint8_t Uses[4] = {0, 0, 0, 0}; ///< Packed sources.

  bool is(uint8_t Flag) const { return (Flags & Flag) != 0; }
};

/// The VM's stream plus the decode of its static slots (see file
/// comment). Ops[k] decodes Slots[k].
struct PackedTrace : vm::Trace {
  /// Dense static decode table, parallel to Slots.
  std::vector<PackedOp> Ops;

  /// Whether any executed instruction carries the FPa (",a") partition
  /// bit; a conventional (FpaEnabled == false) machine must reject such
  /// a trace, checked once per run instead of once per fetch.
  bool HasFpa = false;

  const PackedOp &op(size_t I) const { return Ops[OpIdx[I]]; }

  /// Adopts \p Trace and decodes each of its static slots once against
  /// \p Alloc's architectural register map. The trace must come from a
  /// register-allocated module (every operand of every traced
  /// instruction has an ArchIndex mapping).
  static PackedTrace build(vm::Trace &&Trace,
                           const regalloc::ModuleAlloc &Alloc);
};

} // namespace timing
} // namespace fpint

#endif // FPINT_TIMING_PACKEDTRACE_H
