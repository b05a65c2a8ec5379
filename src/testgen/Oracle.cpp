//===- testgen/Oracle.cpp - Differential partition-equivalence oracle -----===//

#include "testgen/Oracle.h"

#include "partition/Partitioner.h"
#include "sir/Opcode.h"
#include "support/FaultInject.h"
#include "support/Hash.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "timing/Simulator.h"
#include "vm/VM.h"

#include <algorithm>
#include <sstream>
#include <utility>

using namespace fpint;
using namespace fpint::testgen;

std::vector<VariantSpec> testgen::defaultVariants() {
  std::vector<VariantSpec> Variants;
  auto Add = [&](const char *Name, partition::Scheme S, bool FpArgs,
                 bool Optimize) {
    VariantSpec V;
    V.Name = Name;
    V.Config.Scheme = S;
    V.Config.EnableFpArgPassing = FpArgs;
    V.Config.RunOptimizations = Optimize;
    V.Config.RunRegisterAllocation = true;
    Variants.push_back(std::move(V));
  };
  Add("none", partition::Scheme::None, false, true);
  Add("basic", partition::Scheme::Basic, false, true);
  Add("advanced", partition::Scheme::Advanced, false, true);
  Add("advanced+fpargs", partition::Scheme::Advanced, true, true);
  Add("basic-noopt", partition::Scheme::Basic, false, false);
  Add("advanced-noopt", partition::Scheme::Advanced, false, false);
  return Variants;
}

std::vector<VariantSpec> testgen::midendVariants() {
  std::vector<VariantSpec> Variants;
  auto Add = [&](const std::string &Passes) {
    VariantSpec V;
    V.Name = "passes:" + Passes;
    V.Config.Passes = Passes;
    V.Config.Scheme = partition::Scheme::Advanced;
    V.Config.EnableFpArgPassing = true;
    V.Config.RunOptimizations = true;
    V.Config.RunRegisterAllocation = true;
    Variants.push_back(std::move(V));
  };
  for (const char *Pass : {"gvn", "licm", "unroll", "unroll<4>", "inline"})
    Add(std::string("opt,") + Pass +
        ",profile,partition,fp-arg-passing,regalloc");
  Add("opt2");
  return Variants;
}

std::vector<VariantSpec> testgen::regallocVariants() {
  std::vector<VariantSpec> Variants;
  auto Add = [&](const std::string &Allocator, partition::Scheme S) {
    VariantSpec V;
    V.Name = Allocator + ":" + partition::schemeName(S);
    V.Config.RegAllocator = Allocator;
    V.Config.Scheme = S;
    V.Config.EnableFpArgPassing = S == partition::Scheme::Advanced;
    V.Config.RunOptimizations = true;
    V.Config.RunRegisterAllocation = true;
    Variants.push_back(std::move(V));
  };
  for (const char *Allocator : {"regalloc", "regalloc-linear"})
    for (partition::Scheme S :
         {partition::Scheme::None, partition::Scheme::Basic,
          partition::Scheme::Advanced})
      Add(Allocator, S);
  return Variants;
}

namespace {

/// Step budget for the original program; a compiled variant gets four
/// times as many plus slack for its copies and spills.
constexpr uint64_t BaselineStepBudget = 20000000;

/// Everything observable about one functional execution.
struct RunImage {
  vm::VM::Result Result;
  std::vector<uint8_t> Globals;
};

/// Records the trace into \p TraceOut when it is non-null.
RunImage runFunctional(const sir::Module &M, const std::vector<int32_t> &Args,
                       uint64_t MaxSteps, vm::Trace *TraceOut) {
  vm::VM::Options Opts;
  Opts.MaxSteps = MaxSteps;
  Opts.CollectTrace = TraceOut != nullptr;
  vm::VM Machine(M, Opts);
  RunImage Image;
  Image.Result = Machine.run(Args);
  Image.Globals = Machine.globalImage();
  if (TraceOut)
    *TraceOut = Machine.takeTrace();
  return Image;
}

/// The machines the timing cross-check draws from: the Table 1 pair
/// and narrow points scaled like the explore grid's (window 4x the
/// width, in-flight 2x the window, one load/store port per two INT
/// units), where functional units and ports are scarce for the width.
std::vector<timing::MachineConfig> crossCheckMachines() {
  auto Narrow = [](const char *Name, unsigned Width, unsigned IntUnits,
                   unsigned FpUnits) {
    timing::MachineConfig C = timing::MachineConfig::fourWay();
    C.Name = Name;
    C.FetchWidth = C.DecodeWidth = C.RetireWidth = Width;
    C.IntWindow = C.FpWindow = 4 * Width;
    C.MaxInFlight = 8 * Width;
    C.IntUnits = IntUnits;
    C.FpUnits = FpUnits;
    C.LoadStorePorts = std::max(1u, IntUnits / 2);
    C.IntPhysRegs = C.FpPhysRegs = 32 + 4 * Width;
    return C;
  };
  return {timing::MachineConfig::fourWay(), timing::MachineConfig::eightWay(),
          Narrow("2-wide 1+1", 2, 1, 1), Narrow("4-wide 2+1", 4, 2, 1),
          Narrow("8-wide 1+1", 8, 1, 1), Narrow("8-wide 4+2", 8, 4, 2)};
}

/// One machine of crossCheckMachines(), chosen by a hash of the module's
/// text, so a module (and its seed) always meets the same machine and a
/// fuzz campaign spreads over all of them.
timing::MachineConfig drawMachine(const sir::Module &M) {
  const std::vector<timing::MachineConfig> Ms = crossCheckMachines();
  return Ms[support::fnv1a64(sir::toString(M)) % Ms.size()];
}

class OracleRun {
public:
  OracleRun(const sir::Module &M, const OracleOptions &Opts)
      : M(M), Opts(Opts) {}

  OracleReport run() {
    if (Opts.Progress)
      Opts.Progress("baseline");
    Baseline = runFunctional(M, Opts.Args, BaselineStepBudget, nullptr);
    if (!Baseline.Result.Ok) {
      // Resource limits say nothing about the program; skip. A
      // deterministic trap is a semantic outcome every variant must
      // reproduce, so the differential check proceeds in trap mode.
      if (!vm::isDeterministicTrap(Baseline.Result.Trap.Kind)) {
        Report.BaselineSkipped = true;
        Report.BaselineError = Baseline.Result.Error;
        return std::move(Report);
      }
      Report.BaselineTrap = Baseline.Result.Trap.Kind;
    }
    Report.BaselineDynInstrs = Baseline.Result.Steps;
    if (Opts.CheckTiming)
      DrawnMachine = drawMachine(M);
    for (const VariantSpec &V : Opts.Variants)
      checkVariant(V);
    return std::move(Report);
  }

private:
  void mismatch(const std::string &Variant, const std::string &Msg) {
    Report.Mismatches.push_back("[" + Variant + "] " + Msg);
  }

  void checkVariant(const VariantSpec &V) {
    if (Opts.Progress)
      Opts.Progress(V.Name);
    core::PipelineConfig Config = V.Config;
    Config.TrainArgs = Opts.Args;
    Config.RefArgs = Opts.Args;

    core::PipelineRun Run = core::compileAndMeasure(M, Config);
    // compileAndMeasure verifies and self-checks its output comparison;
    // any error it reports is a divergence (or a compile failure, which
    // for a verifier-clean input is just as much a bug).
    for (const std::string &E : Run.Errors)
      mismatch(V.Name, "pipeline: " + E);
    if (!Run.Errors.empty() || !Run.Compiled)
      return;

    if (Opts.CompiledMutator) {
      Opts.CompiledMutator(*Run.Compiled);
      Run.Compiled->renumber();
      std::vector<std::string> MutVerify = sir::verify(*Run.Compiled);
      for (const std::string &E : MutVerify)
        mismatch(V.Name, "verify after mutation: " + E);
      if (!MutVerify.empty())
        return; // Caught structurally; the VM may not survive it.
    }

    // Re-execute the compiled module ourselves: the oracle compares
    // more state than the pipeline does (exit value, memory image) and
    // must observe any mutator-injected bug.
    vm::Trace Trace;
    const uint64_t CompiledBudget = BaselineStepBudget * 4 + 10000;
    RunImage Compiled =
        runFunctional(*Run.Compiled, Opts.Args, CompiledBudget, &Trace);

    // Trap equivalence: the compiled program must stop exactly the way
    // the original did -- same deterministic kind, or not at all.
    const vm::TrapKind CompTrap = Compiled.Result.Trap.Kind;
    if (CompTrap != Report.BaselineTrap) {
      mismatch(V.Name,
               std::string("trap divergence: original ") +
                   vm::trapKindName(Report.BaselineTrap) + ", compiled " +
                   vm::trapKindName(CompTrap) +
                   (Compiled.Result.Error.empty()
                        ? std::string()
                        : " (" + Compiled.Result.Error + ")"));
      return;
    }

    compareFunctional(V.Name, Compiled,
                      /*Trapped=*/Report.BaselineTrap != vm::TrapKind::None);
    if (Report.BaselineTrap != vm::TrapKind::None)
      return; // Stats/timing invariants assume a completed execution.
    crossCheckStats(V.Name, Run, Trace);
    if (Opts.CheckTiming && Config.RunRegisterAllocation &&
        Run.Alloc.Errors.empty())
      crossCheckTiming(V.Name, Run, std::move(Trace));
  }

  void compareFunctional(const std::string &Name, const RunImage &Compiled,
                         bool Trapped) {
    // Output stream.
    const auto &Want = Baseline.Result.Output;
    const auto &Got = Compiled.Result.Output;
    if (Want.size() != Got.size()) {
      mismatch(Name, "output length differs: original " +
                         std::to_string(Want.size()) + ", compiled " +
                         std::to_string(Got.size()));
    } else {
      for (size_t I = 0; I < Want.size(); ++I)
        if (Want[I] != Got[I]) {
          mismatch(Name, "output[" + std::to_string(I) + "] differs: original " +
                             std::to_string(Want[I]) + ", compiled " +
                             std::to_string(Got[I]));
          break;
        }
    }

    // Architectural exit state (trapped runs never reach `ret`).
    if (!Trapped && Baseline.Result.ExitValue != Compiled.Result.ExitValue)
      mismatch(Name, "exit value differs: original " +
                         std::to_string(Baseline.Result.ExitValue) +
                         ", compiled " +
                         std::to_string(Compiled.Result.ExitValue));

    // Memory image of the globals region.
    if (Baseline.Globals.size() != Compiled.Globals.size()) {
      mismatch(Name, "globals image size differs");
    } else {
      for (size_t A = 0; A < Baseline.Globals.size(); ++A)
        if (Baseline.Globals[A] != Compiled.Globals[A]) {
          std::ostringstream OS;
          OS << "memory image differs at globals+0x" << std::hex << A
             << ": original 0x" << static_cast<unsigned>(Baseline.Globals[A])
             << ", compiled 0x" << static_cast<unsigned>(Compiled.Globals[A]);
          mismatch(Name, OS.str());
          break;
        }
    }
  }

  /// The stats subsystem counts dynamic instructions from the block
  /// profile; the trace lists them one by one. Both views must agree.
  void crossCheckStats(const std::string &Name, const core::PipelineRun &Run,
                       const vm::Trace &Trace) {
    uint64_t Fpa = 0, NativeFp = 0, Loads = 0, Stores = 0;
    for (uint32_t Slot : Trace.OpIdx) {
      const sir::Instruction &I = *Trace.Slots[Slot].I;
      if (I.inFpa())
        ++Fpa;
      if (sir::isFpOpcode(I.op()))
        ++NativeFp;
      if (I.isLoad())
        ++Loads;
      if (I.isStore())
        ++Stores;
    }
    auto Check = [&](const char *What, uint64_t StatsVal, uint64_t TraceVal) {
      if (StatsVal != TraceVal)
        mismatch(Name, std::string("stats/trace disagree on ") + What +
                           ": stats " + std::to_string(StatsVal) + ", trace " +
                           std::to_string(TraceVal));
    };
    const partition::DynStats &S = Run.Stats;
    Check("total dynamic instructions", S.Total, Trace.size());
    Check("FPa instructions", S.Fpa, Fpa);
    Check("native FP instructions", S.NativeFp, NativeFp);
    Check("loads", S.Loads, Loads);
    Check("stores", S.Stores, Stores);
  }

  /// The timing simulator must retire exactly the traced instructions,
  /// and its INT/FP issue split must match the partition bits. Both
  /// cycle loops run -- the fast path is differentially checked against
  /// the reference loop on every oracle iteration -- on Opts.Machine and
  /// on the module's drawn machine.
  void crossCheckTiming(const std::string &Name, const core::PipelineRun &Run,
                        vm::Trace &&Raw) {
    const timing::PackedTrace Trace =
        timing::PackedTrace::build(std::move(Raw), Run.Alloc);
    uint64_t FpSide = 0;
    for (uint32_t Slot : Trace.OpIdx) {
      const sir::Instruction &I = *Trace.Slots[Slot].I;
      if (I.inFpa() || sir::isFpOpcode(I.op()))
        ++FpSide;
    }
    crossCheckMachine(Name, Run, Trace, FpSide, Opts.Machine);
    if (DrawnMachine.canonicalKey() != Opts.Machine.canonicalKey())
      crossCheckMachine(Name, Run, Trace, FpSide, DrawnMachine);
  }

  void crossCheckMachine(const std::string &Variant,
                         const core::PipelineRun &Run,
                         const timing::PackedTrace &Trace, uint64_t FpSide,
                         const timing::MachineConfig &Machine) {
    const std::string Name = Variant + " on " + Machine.Name;
    timing::Simulator Sim(Machine, Run.Alloc);

    timing::SimStats Stats, FastStats;
    try {
      Sim.setFastPath(false);
      Stats = Sim.run(Trace);
      Sim.setFastPath(true);
      FastStats = Sim.run(Trace);
    } catch (const timing::SimulationOverrun &O) {
      mismatch(Name, std::string("simulator overrun: ") + O.what());
      return;
    }

    auto CheckEq = [&](const char *What, uint64_t Ref, uint64_t Fast) {
      if (Ref != Fast)
        mismatch(Name, std::string("fast-path simulator diverges on ") + What +
                           ": reference " + std::to_string(Ref) + ", fast " +
                           std::to_string(Fast));
    };
    CheckEq("cycles", Stats.Cycles, FastStats.Cycles);
    CheckEq("instructions", Stats.Instructions, FastStats.Instructions);
    CheckEq("int_issued", Stats.IntIssued, FastStats.IntIssued);
    CheckEq("fp_issued", Stats.FpIssued, FastStats.FpIssued);
    CheckEq("cond_branches", Stats.CondBranches, FastStats.CondBranches);
    CheckEq("mispredicts", Stats.Mispredicts, FastStats.Mispredicts);
    CheckEq("loads", Stats.Loads, FastStats.Loads);
    CheckEq("stores", Stats.Stores, FastStats.Stores);
    CheckEq("dcache_misses", Stats.DCacheMisses, FastStats.DCacheMisses);
    CheckEq("icache_misses", Stats.ICacheMisses, FastStats.ICacheMisses);
    CheckEq("store_forwards", Stats.StoreForwards, FastStats.StoreForwards);
    CheckEq("fp_busy_cycles", Stats.FpBusyCycles, FastStats.FpBusyCycles);
    CheckEq("int_idle_fp_busy_cycles", Stats.IntIdleFpBusyCycles,
            FastStats.IntIdleFpBusyCycles);

    if (Stats.Instructions != Trace.size())
      mismatch(Name, "simulator retired " + std::to_string(Stats.Instructions) +
                         " instructions, trace has " +
                         std::to_string(Trace.size()));
    if (Stats.IntIssued + Stats.FpIssued != Stats.Instructions)
      mismatch(Name, "issue counters (" + std::to_string(Stats.IntIssued) +
                         " INT + " + std::to_string(Stats.FpIssued) +
                         " FP) do not sum to retired instructions " +
                         std::to_string(Stats.Instructions));
    if (Stats.FpIssued != FpSide)
      mismatch(Name, "simulator issued " + std::to_string(Stats.FpIssued) +
                         " in the FP subsystem, partition bits say " +
                         std::to_string(FpSide));
    if (!Trace.empty() && Stats.Cycles == 0)
      mismatch(Name, "simulator reported zero cycles for a nonempty trace");
  }

  const sir::Module &M;
  const OracleOptions &Opts;
  /// The timing cross-check's second machine (drawMachine).
  timing::MachineConfig DrawnMachine;
  RunImage Baseline;
  OracleReport Report;
};

} // namespace

OracleReport testgen::runOracle(const sir::Module &M,
                                const OracleOptions &Opts) {
  support::fault::inject("oracle");
  return OracleRun(M, Opts).run();
}
