//===- vm/VM.h - Functional interpreter for sir modules -------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A functional (not timing) interpreter for sir modules. It serves three
/// roles in the reproduction:
///
///  1. Correctness oracle: partitioned/allocated code must produce the
///     same output stream as the original program.
///  2. Profiler: per-basic-block execution counts feed the advanced
///     partitioning scheme's cost model (the paper used basic-block
///     execution profiles the same way).
///  3. Trace generator: the dynamic instruction stream (with branch
///     outcomes and effective addresses) drives the cycle-level timing
///     simulator, mirroring the SimpleScalar-derived methodology. It is
///     recorded straight into the structure-of-arrays vm::Trace that
///     timing::PackedTrace adopts without a second pass, so a run's
///     trace exists in exactly one form.
///
/// Semantics: 32-bit two's-complement integer arithmetic with wrapping;
/// division by zero yields 0 (remainder yields the dividend) so that
/// randomly generated programs cannot trap; single-precision IEEE floats;
/// byte-addressed little-endian memory with globals placed from 0x1000
/// upward and frame stacks growing down from the top.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_VM_VM_H
#define FPINT_VM_VM_H

#include "sir/IR.h"
#include "vm/Trap.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace fpint {
namespace vm {

/// One dynamically executed instruction, reconstructed from a Trace.
struct TraceEntry {
  const sir::Instruction *I = nullptr;
  uint32_t Pc = 0;      ///< Static instruction address (4-byte spaced).
  uint32_t MemAddr = 0; ///< Effective address for loads/stores.
  bool Taken = false;   ///< Outcome for conditional branches and jumps.
};

/// The dynamic instruction stream of one run, in structure-of-arrays
/// form: a small static table of the instructions that executed, plus
/// three flat per-dynamic-instruction arrays. The VM appends to it
/// directly; timing::PackedTrace adopts it and adds a decode of the
/// static table.
struct Trace {
  /// One executed static instruction.
  struct Slot {
    const sir::Instruction *I = nullptr;
    uint32_t Pc = 0; ///< Static instruction address (4-byte spaced).
  };

  /// Every instruction that executed, in order of first execution;
  /// OpIdx values index it. An instruction that trapped is not in it
  /// unless it also executed to completion.
  std::vector<Slot> Slots;

  /// Parallel per-dynamic-instruction arrays, all of size().
  std::vector<uint32_t> OpIdx;
  std::vector<uint32_t> MemAddr; ///< Effective address (loads/stores).
  std::vector<uint8_t> Taken;    ///< Conditional branch outcome; jumps 1.

  size_t size() const { return OpIdx.size(); }
  bool empty() const { return OpIdx.empty(); }

  /// Dynamic entry \p I as one record.
  TraceEntry entry(size_t I) const {
    const Slot &S = Slots[OpIdx[I]];
    return {S.I, S.Pc, MemAddr[I], Taken[I] != 0};
  }

  /// The whole stream as records (the timing simulator's reference
  /// loop, trace printing and tests).
  std::vector<TraceEntry> entries() const;
};

/// Per-module execution profile.
struct Profile {
  std::unordered_map<const sir::BasicBlock *, uint64_t> BlockCounts;
  uint64_t DynInstrs = 0;

  uint64_t countOf(const sir::BasicBlock *BB) const {
    auto It = BlockCounts.find(BB);
    return It == BlockCounts.end() ? 0 : It->second;
  }
};

/// Interprets a module starting from "main".
class VM {
public:
  struct Options {
    uint32_t MemBytes = 16u << 20;  ///< Flat memory size.
    uint64_t MaxSteps = 400000000;  ///< Dynamic instruction budget.
    /// Recursion guard. exec() recurses on the native stack (each
    /// guest frame costs a few KB of C++ stack), so this must stay
    /// small enough that the guard trap fires well before the host
    /// stack does.
    unsigned MaxCallDepth = 2000;
    /// Backstop for the depth guard: native exec() frame sizes vary
    /// wildly between builds (sanitizer redzones inflate them
    /// several-fold), so the byte consumption measured from the
    /// outermost frame is also capped, well inside the typical 8 MB
    /// host stack.
    size_t MaxNativeStackBytes = 4u << 20;
    bool CollectTrace = false;      ///< Record the dynamic trace.
    bool CollectProfile = false;    ///< Record block execution counts.
  };

  struct Result {
    bool Ok = false;
    /// Typed cause of an abnormal stop (Kind == None iff Ok). The
    /// taxonomy lives in vm/Trap.h; kinds are deterministic properties
    /// of (program, input) except the resource traps.
    vm::Trap Trap;
    /// Rendered Trap.message() for display; empty when Ok.
    std::string Error;
    uint64_t Steps = 0;
    int32_t ExitValue = 0;
    std::vector<int32_t> Output;
  };

  VM(const sir::Module &M, Options Opts);
  explicit VM(const sir::Module &M) : VM(M, Options()) {}

  /// Runs main(MainArgs...). The module's "main" must take exactly
  /// MainArgs.size() formals.
  Result run(const std::vector<int32_t> &MainArgs = {});

  /// The trace of the last run. When the run trapped it holds the
  /// prefix before the trapping instruction.
  const vm::Trace &trace() const { return Tr; }

  /// Moves the collected trace out of the VM (for callers that keep it
  /// beyond the VM's lifetime without copying).
  vm::Trace takeTrace() { return std::move(Tr); }
  const Profile &profile() const { return Prof; }

  /// Static code address of \p I (valid after construction).
  uint32_t pcOf(const sir::Instruction &I) const;

  /// Data address of global \p Name; 0 if unknown.
  uint32_t globalAddress(const std::string &Name) const;

  /// Copies out the globals region of memory (empty if the module has
  /// no globals). Globals are laid out purely by declaration order, so
  /// a module and its partitioned/allocated clone agree on the layout:
  /// equality of images after a run means the programs computed the
  /// same memory state. Frame/spill areas are deliberately excluded --
  /// they legitimately differ between compilations.
  std::vector<uint8_t> globalImage() const;

private:
  struct Frame {
    const sir::Function *F = nullptr;
    std::vector<int32_t> IntRegs;
    std::vector<float> FpRegs;
    uint32_t FramePtr = 0;
  };

  bool exec(const sir::Function &F, const std::vector<int32_t> &Args,
            int32_t &RetValue, unsigned Depth);
  uint32_t effectiveAddress(const Frame &Fr, const sir::MemOperand &Mem,
                            bool &OkFlag);

  bool loadWord(uint32_t Addr, int32_t &Out);
  bool storeWord(uint32_t Addr, int32_t Value);
  bool loadByte(uint32_t Addr, uint8_t &Out);
  bool storeByte(uint32_t Addr, uint8_t Value);

  const sir::Module &M;
  Options Opts;
  std::vector<uint8_t> Mem;
  std::unordered_map<std::string, uint32_t> GlobalAddrs;
  std::unordered_map<const sir::Function *, uint32_t> FuncBasePc;
  uint32_t NumSlots = 0; ///< Words of synthetic text; slot = word index.
  uint32_t StackTop = 0;
  uintptr_t NativeStackBase = 0;

  /// Records the typed trap that stops the current run (first trap
  /// wins) and returns false so trap sites can `return trap(...)`.
  bool trap(TrapKind Kind, std::string Detail);

  // Run state.
  uint64_t Steps = 0;
  Trap CurTrap;
  std::vector<int32_t> Output;
  vm::Trace Tr;
  /// Text word index -> index into Tr.Slots (NoSlot until it runs).
  std::vector<uint32_t> SlotIdx;
  Profile Prof;
};

/// Convenience: runs \p M and returns the result (no trace/profile).
VM::Result runModule(const sir::Module &M,
                     const std::vector<int32_t> &MainArgs = {},
                     VM::Options Opts = VM::Options());

} // namespace vm
} // namespace fpint

#endif // FPINT_VM_VM_H
