//===- tests/SimulatorTest.cpp - Fast-path simulator equivalence ----------===//
//
// The fast cycle loop (packed SoA trace, dense in-flight ring,
// wakeup-driven select, event-driven cycle skipping) must be
// bit-identical to the reference loop: same SimStats, same telemetry
// breakdown, on every fixture and machine -- the Table 1 pair, the
// narrow-to-wide FU mixes of the explore grid, and fixtures that keep
// the unpipelined dividers busy, forward stores to loads, and make INT
// and FP memory operations race for the load/store ports. These tests
// pin that contract, the packed trace the VM records (checked against
// facts computed without it), its single capture per compiled module,
// the prefix trace of a trapping run, and the typed SimulationOverrun
// condition.
//
//===----------------------------------------------------------------------===//

#include "campaign/Explore.h"
#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "timing/MachineConfig.h"
#include "timing/PackedTrace.h"
#include "timing/Simulator.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace fpint;
using namespace fpint::timing;
using namespace fpint::core;

namespace {

PipelineRun compileSrc(const char *Src, partition::Scheme S) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  PipelineConfig Cfg;
  Cfg.Scheme = S;
  Cfg.RunOptimizations = false;
  PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  return Run;
}

/// Dependent and independent INT and FP divides: the unpipelined
/// units stay busy, so selection keeps finding no free unit.
const char *DivChain = R"(
global res 1
func main() {
entry:
  li %a, 1000000
  li %b, 3
  li %i, 1
  fli %x, 1000.0
  fli %y, 1.5
loop:
  div %a, %a, %b
  div %c, %i, %b
  rem %d, %a, %i
  add %a, %a, %c
  add %a, %a, %d
  fdiv %x, %x, %y
  fdiv %z, %x, %y
  fadd %x, %x, %z
  addi %i, %i, 1
  slti %t, %i, 40
  bne %t, %zero, loop
  out %a
  la %p, res
  s.s %x, 0(%p)
  ret
}
)";

/// Loads that read words stored just before them, in the same and in
/// earlier iterations: store-to-load forwarding through the store
/// queue.
const char *StoreForward = R"(
global arr 8
func main() {
entry:
  la %p, arr
  li %i, 0
  li %s, 0
loop:
  andi %k, %i, 7
  sll %off, %k, 2
  add %e, %p, %off
  sw %i, 0(%e)
  lw %v, 0(%e)
  lw %w, 4(%p)
  add %s, %s, %v
  add %s, %s, %w
  sw %s, 0(%p)
  lw %u, 0(%p)
  add %s, %s, %u
  addi %i, %i, 1
  slti %t, %i, 60
  bne %t, %zero, loop
  out %s
  ret
}
)";

/// The machines the two loops are raced on: the Table 1 pair, every
/// gshare point of the explore grid's "small" sweep (2/4/8-wide with
/// 1+1, 2+1, 2+2, 4+2 and 4+4 FU mixes), and the 8-way machine cut to
/// one unit per subsystem (two ports for one INT unit).
std::vector<campaign::MachinePoint> equivalenceMachines() {
  std::vector<campaign::MachinePoint> Ms = {
      {"4-way", MachineConfig::fourWay()}, {"8-way", MachineConfig::eightWay()}};
  for (campaign::MachinePoint &P : campaign::exploreGrid("small"))
    if (P.M.Predictor == PredictorKind::Gshare)
      Ms.push_back(std::move(P));
  MachineConfig Narrow = MachineConfig::eightWay();
  Narrow.IntUnits = Narrow.FpUnits = 1;
  Ms.push_back({"8-way_fu1+1", Narrow});
  return Ms;
}

/// A compiled fixture whose trace marks every other load and store as
/// FPa. No instruction of the ISA is an FP-subsystem memory operation
/// (l.s/s.s move FP data but issue from the INT window), yet the
/// simulator models them, sharing the load/store ports with the INT
/// side; marking them before the trace is captured makes the two
/// subsystems race for the ports. The VM ignores the bit.
PipelineRun compileWithFpMemory(const char *Src) {
  PipelineRun Run = compileSrc(Src, partition::Scheme::Advanced);
  bool Mark = false;
  for (auto &F : Run.Compiled->functions())
    for (auto &BB : F->blocks())
      for (auto &I : BB->instructions())
        if (I->isLoad() || I->isStore()) {
          I->setInFpa(Mark);
          Mark = !Mark;
        }
  return Run;
}

/// Runs \p Run on \p M with the given path selection.
SimStats runPath(const PipelineRun &Run, const MachineConfig &M, bool Fast,
                 stats::EventSink *Sink = nullptr) {
  Simulator Sim(M, Run.Alloc);
  Sim.setFastPath(Fast);
  Sim.setEventSink(Sink);
  return Sim.run(Run.refTrace());
}

/// Every deterministic SimStats field (wall time and telemetry
/// pointers excluded, by design).
void expectStatsEqual(const SimStats &Ref, const SimStats &Fast,
                      const std::string &Label) {
  EXPECT_EQ(Ref.Cycles, Fast.Cycles) << Label;
  EXPECT_EQ(Ref.Instructions, Fast.Instructions) << Label;
  EXPECT_EQ(Ref.IntIssued, Fast.IntIssued) << Label;
  EXPECT_EQ(Ref.FpIssued, Fast.FpIssued) << Label;
  EXPECT_EQ(Ref.CondBranches, Fast.CondBranches) << Label;
  EXPECT_EQ(Ref.Mispredicts, Fast.Mispredicts) << Label;
  EXPECT_EQ(Ref.Loads, Fast.Loads) << Label;
  EXPECT_EQ(Ref.Stores, Fast.Stores) << Label;
  EXPECT_EQ(Ref.DCacheMisses, Fast.DCacheMisses) << Label;
  EXPECT_EQ(Ref.ICacheMisses, Fast.ICacheMisses) << Label;
  EXPECT_EQ(Ref.StoreForwards, Fast.StoreForwards) << Label;
  EXPECT_EQ(Ref.FpBusyCycles, Fast.FpBusyCycles) << Label;
  EXPECT_EQ(Ref.IntIdleFpBusyCycles, Fast.IntIdleFpBusyCycles) << Label;
}

void expectBreakdownsEqual(const stats::StallBreakdown &Ref,
                           const stats::StallBreakdown &Fast,
                           const std::string &Label) {
  EXPECT_EQ(Ref.Cycles, Fast.Cycles) << Label;
  EXPECT_EQ(Ref.NonIssuingCycles, Fast.NonIssuingCycles) << Label;
  for (unsigned R = 0; R < stats::NumStallReasons; ++R)
    EXPECT_EQ(Ref.StallCycles[R], Fast.StallCycles[R])
        << Label << " reason "
        << stats::stallReasonName(static_cast<stats::StallReason>(R));
  EXPECT_EQ(Ref.IntIssueHist, Fast.IntIssueHist) << Label;
  EXPECT_EQ(Ref.FpIssueHist, Fast.FpIssueHist) << Label;
  EXPECT_EQ(Ref.IntWindowFullCycles, Fast.IntWindowFullCycles) << Label;
  EXPECT_EQ(Ref.FpWindowFullCycles, Fast.FpWindowFullCycles) << Label;
  EXPECT_EQ(Ref.IntWindowOccupancySum, Fast.IntWindowOccupancySum) << Label;
  EXPECT_EQ(Ref.FpWindowOccupancySum, Fast.FpWindowOccupancySum) << Label;
}

//===----------------------------------------------------------------------===//
// (a) Fast path == reference path across fixtures x machines.
//===----------------------------------------------------------------------===//

TEST(FastPath, MatchesReferenceAcrossFixturesAndMachines) {
  const struct {
    const char *Name;
    const char *Src;
  } Fixtures[] = {
      {"IntVectorSum", fixtures::IntVectorSum},
      {"InvalidateForCall", fixtures::InvalidateForCall},
      {"MemoryFreeRand", fixtures::MemoryFreeRand},
      {"DivChain", DivChain},
      {"StoreForward", StoreForward},
  };
  const partition::Scheme Schemes[] = {partition::Scheme::None,
                                       partition::Scheme::Advanced};
  const std::vector<campaign::MachinePoint> Machines = equivalenceMachines();
  std::vector<std::pair<std::string, PipelineRun>> Runs;
  for (const auto &Fx : Fixtures)
    for (partition::Scheme S : Schemes)
      Runs.emplace_back(std::string(Fx.Name) + "/" + partition::schemeName(S),
                        compileSrc(Fx.Src, S));
  Runs.emplace_back("IntVectorSum/fp-memory",
                    compileWithFpMemory(fixtures::IntVectorSum));
  Runs.emplace_back("StoreForward/fp-memory",
                    compileWithFpMemory(StoreForward));
  for (const auto &[RunName, Run] : Runs)
    for (const campaign::MachinePoint &P : Machines) {
      std::string Label = RunName + "/" + P.Label;
      SimStats Ref = runPath(Run, P.M, /*Fast=*/false);
      SimStats Fast = runPath(Run, P.M, /*Fast=*/true);
      expectStatsEqual(Ref, Fast, Label);
      // refTrace() and packedTrace() are one object; both names agree.
      Simulator Sim(P.M, Run.Alloc);
      Sim.setFastPath(true);
      expectStatsEqual(Ref, Sim.run(Run.packedTrace()), Label + "/packed");
    }
}

//===----------------------------------------------------------------------===//
// (b) Telemetry with cycle skipping: the stall partition holds and the
// whole breakdown is bit-identical to the per-cycle reference feed.
//===----------------------------------------------------------------------===//

TEST(FastPath, TelemetryIdenticalWithCycleSkipping) {
  // The multiply chain stalls for long spans (6-cycle dependent ops),
  // so the fast path exercises bulk-emitted skipped cycles heavily.
  std::string Mul = "func main() {\nentry:\n  li %a, 3\n";
  for (int I = 0; I < 200; ++I)
    Mul += "  mul %a, %a, %a\n";
  Mul += "  out %a\n  ret\n}\n";

  const struct {
    const char *Name;
    std::string Src;
    partition::Scheme Scheme;
  } Cases[] = {
      {"mulchain", Mul, partition::Scheme::None},
      {"invalidate", fixtures::InvalidateForCall, partition::Scheme::Advanced},
      {"rand", fixtures::MemoryFreeRand, partition::Scheme::Advanced},
      {"divchain", DivChain, partition::Scheme::Advanced},
      {"storeforward", StoreForward, partition::Scheme::None},
      {"vectorsum", fixtures::IntVectorSum, partition::Scheme::Advanced},
  };
  std::vector<std::pair<std::string, PipelineRun>> Runs;
  for (const auto &C : Cases)
    Runs.emplace_back(C.Name, compileSrc(C.Src.c_str(), C.Scheme));
  Runs.emplace_back("fp-memory", compileWithFpMemory(StoreForward));
  const std::vector<campaign::MachinePoint> Machines = equivalenceMachines();
  for (const auto &[RunName, Run] : Runs)
    for (const campaign::MachinePoint &P : Machines) {
      stats::StallBreakdown Ref, Fast;
      SimStats RS = runPath(Run, P.M, /*Fast=*/false, &Ref);
      SimStats FS = runPath(Run, P.M, /*Fast=*/true, &Fast);
      std::string Label = RunName + "/" + P.Label;
      expectStatsEqual(RS, FS, Label);
      EXPECT_TRUE(Fast.partitionHolds()) << Label;
      EXPECT_EQ(Fast.Cycles, FS.Cycles) << Label;
      expectBreakdownsEqual(Ref, Fast, Label);
    }
}

/// The fixtures above reach the structures they are meant to stress;
/// otherwise their equality proves nothing about those structures.
TEST(FastPath, FixturesReachTheirTargetStructures) {
  using stats::StallReason;
  auto Stalls = [](const stats::StallBreakdown &B, StallReason R) {
    return B.StallCycles[static_cast<unsigned>(R)];
  };
  const MachineConfig M = MachineConfig::fourWay();

  stats::StallBreakdown Div;
  runPath(compileSrc(DivChain, partition::Scheme::Advanced), M,
          /*Fast=*/true, &Div);
  EXPECT_GT(Stalls(Div, StallReason::UnitBusy), 0u);

  SimStats FwdStats = runPath(
      compileSrc(StoreForward, partition::Scheme::None), M, /*Fast=*/true);
  EXPECT_GT(FwdStats.StoreForwards, 0u);

  // Memory operations issue from both windows.
  PipelineRun FpMem = compileWithFpMemory(StoreForward);
  SimStats FpStats = runPath(FpMem, M, /*Fast=*/true);
  uint64_t FpMemOps = 0;
  for (size_t I = 0; I < FpMem.refTrace().size(); ++I) {
    const PackedOp &Op = FpMem.refTrace().op(I);
    if (Op.is(PackedOp::FpSubsystem) &&
        (Op.is(PackedOp::IsLoad) || Op.is(PackedOp::IsStore)))
      ++FpMemOps;
  }
  EXPECT_GT(FpMemOps, 0u);
  EXPECT_LT(FpMemOps, FpStats.Loads + FpStats.Stores);
}

/// On machines that wedge -- no INT units, or no load/store ports --
/// the issue scan skips whole classes of entries without classifying
/// them, so stall attribution must pass them over too. Both loops feed
/// the sink until the overrun, and the breakdowns must agree.
TEST(FastPath, TelemetryIdenticalUpToOverrun) {
  PipelineRun Run =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::Advanced);
  MachineConfig NoInt = MachineConfig::fourWay();
  NoInt.IntUnits = 0;
  MachineConfig NoPorts = MachineConfig::fourWay();
  NoPorts.LoadStorePorts = 0;
  for (const auto &[Label, M] :
       {std::pair{"no-int-units", NoInt}, std::pair{"no-ports", NoPorts}}) {
    stats::StallBreakdown Ref, Fast;
    EXPECT_THROW(runPath(Run, M, /*Fast=*/false, &Ref), SimulationOverrun)
        << Label;
    EXPECT_THROW(runPath(Run, M, /*Fast=*/true, &Fast), SimulationOverrun)
        << Label;
    expectBreakdownsEqual(Ref, Fast, Label);
  }
}

//===----------------------------------------------------------------------===//
// (c) The packed stream the VM records agrees with facts computed
// without it.
//===----------------------------------------------------------------------===//

TEST(PackedTraceTest, StreamAgreesWithIndependentFacts) {
  for (const char *Src :
       {fixtures::IntVectorSum, fixtures::InvalidateForCall,
        fixtures::MemoryFreeRand}) {
    PipelineRun Run = compileSrc(Src, partition::Scheme::Advanced);
    const PackedTrace &PT = Run.packedTrace();
    // None of these fixtures traps: the stream is every executed step.
    ASSERT_EQ(PT.size(), Run.RefResult.Steps);
    const vm::VM Layout(*Run.Compiled);
    const std::vector<vm::TraceEntry> Entries = PT.entries();
    ASSERT_EQ(Entries.size(), PT.size());
    for (size_t I = 0; I < PT.size(); ++I) {
      const vm::TraceEntry E = PT.entry(I);
      const sir::Instruction &In = *E.I;
      ASSERT_EQ(E.Pc, Layout.pcOf(In)) << "entry " << I;
      if (E.Taken) {
        ASSERT_TRUE(In.isCondBranch() || In.op() == sir::Opcode::Jump)
            << "entry " << I;
      }
      if (!In.isLoad() && !In.isStore()) {
        ASSERT_EQ(E.MemAddr, 0u) << "entry " << I;
      }
      // The bulk reconstruction agrees with the per-entry one.
      ASSERT_EQ(Entries[I].I, E.I) << "entry " << I;
      ASSERT_EQ(Entries[I].Pc, E.Pc) << "entry " << I;
      ASSERT_EQ(Entries[I].MemAddr, E.MemAddr) << "entry " << I;
      ASSERT_EQ(Entries[I].Taken, E.Taken) << "entry " << I;
    }
    // The FPa marker means "some executed instruction is FPa".
    EXPECT_EQ(PT.HasFpa, Run.Stats.Fpa > 0);
  }
}

TEST(PackedTraceTest, CachedOnTraceHandleAcrossMachines) {
  PipelineRun Run =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::Advanced);
  const PackedTrace &A = Run.packedTrace();
  const PackedTrace &B = Run.packedTrace();
  EXPECT_EQ(&A, &B); // Built once, shared by every machine sweep.
  EXPECT_EQ(&Run.refTrace(), &Run.packedTrace()); // One trace, two names.
  EXPECT_EQ(A.size(), Run.refTrace().size());
  EXPECT_EQ(Run.Trace->Captures, 1u);

  // Concurrent first requests capture once and share the result.
  PipelineRun Fresh =
      compileSrc(fixtures::InvalidateForCall, partition::Scheme::Advanced);
  const PackedTrace *Seen[4] = {};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&Fresh, &Seen, T] {
      Seen[T] = T % 2 ? &Fresh.refTrace() : &Fresh.packedTrace();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Fresh.Trace->Captures, 1u);
  for (const PackedTrace *P : Seen)
    EXPECT_EQ(P, &Fresh.packedTrace());
}

//===----------------------------------------------------------------------===//
// (d) A deterministically trapping run is simulated on its prefix.
//===----------------------------------------------------------------------===//

TEST(PackedTraceTest, TrappingRunSimulatesItsPrefix) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(
           fs::path(FPINT_SOURCE_DIR) / "tests" / "corpus" / "traps"))
    if (E.path().extension() == ".sir")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  for (const fs::path &File : Files) {
    std::ifstream In(File);
    std::stringstream Text;
    Text << In.rdbuf();
    sir::ParseResult PR = sir::parseModule(Text.str());
    ASSERT_TRUE(PR.ok()) << File << ": " << PR.Error;
    PipelineConfig Cfg;
    Cfg.Scheme = partition::Scheme::Advanced;
    PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
    ASSERT_TRUE(Run.ok()) << File;
    ASSERT_TRUE(vm::isDeterministicTrap(Run.RefResult.Trap.Kind)) << File;
    // Steps counts the trapping instruction; the trace does not.
    EXPECT_EQ(Run.refTrace().size() + 1, Run.RefResult.Steps) << File;
    for (const MachineConfig &M :
         {MachineConfig::fourWay(), MachineConfig::eightWay()}) {
      std::string Label = File.filename().string() + "/" + M.Name;
      SimStats Ref = runPath(Run, M, /*Fast=*/false);
      SimStats Fast = runPath(Run, M, /*Fast=*/true);
      expectStatsEqual(Ref, Fast, Label);
      EXPECT_EQ(Fast.Instructions, Run.refTrace().size()) << Label;
    }
  }
}

//===----------------------------------------------------------------------===//
// SafetyLimit overrun: a typed, reportable condition on both paths.
//===----------------------------------------------------------------------===//

TEST(Overrun, PathologicalConfigThrowsTypedError) {
  PipelineRun Run =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::None);
  MachineConfig Wedged = MachineConfig::fourWay();
  Wedged.IntUnits = 0; // Integer code can never issue: no progress.
  for (bool Fast : {false, true}) {
    Simulator Sim(Wedged, Run.Alloc);
    Sim.setFastPath(Fast);
      try {
      Sim.run(Run.refTrace());
      FAIL() << "expected SimulationOverrun (fast=" << Fast << ")";
    } catch (const SimulationOverrun &O) {
      EXPECT_GT(O.Cycle, O.Limit);
      EXPECT_EQ(O.TraceSize, Run.refTrace().size());
      EXPECT_LT(O.Retired, O.TraceSize);
      EXPECT_NE(std::string(O.what()).find("overrun"), std::string::npos);
    }
  }
}

} // namespace
