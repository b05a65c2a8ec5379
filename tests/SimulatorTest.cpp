//===- tests/SimulatorTest.cpp - Fast-path simulator equivalence ----------===//
//
// The fast cycle loop (packed SoA trace, dense in-flight ring,
// event-driven cycle skipping) must be bit-identical to the reference
// loop: same SimStats, same telemetry breakdown, on every fixture and
// machine. These tests pin that contract, the packed trace the VM
// records (checked against facts computed without it), its single
// capture per compiled module, the prefix trace of a trapping run, and
// the typed SimulationOverrun condition.
//
//===----------------------------------------------------------------------===//

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
  };
  const partition::Scheme Schemes[] = {partition::Scheme::None,
                                       partition::Scheme::Advanced};
  const MachineConfig Machines[] = {MachineConfig::fourWay(),
                                    MachineConfig::eightWay()};
  for (const auto &Fx : Fixtures)
    for (partition::Scheme S : Schemes) {
      PipelineRun Run = compileSrc(Fx.Src, S);
      for (const MachineConfig &M : Machines) {
        std::string Label = std::string(Fx.Name) + "/" +
                            partition::schemeName(S) + "/" + M.Name;
        SimStats Ref = runPath(Run, M, /*Fast=*/false);
        SimStats Fast = runPath(Run, M, /*Fast=*/true);
        expectStatsEqual(Ref, Fast, Label);
        // refTrace() and packedTrace() are one object; both names agree.
        Simulator Sim(M, Run.Alloc);
        Sim.setFastPath(true);
        expectStatsEqual(Ref, Sim.run(Run.packedTrace()), Label + "/packed");
      }
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
  };
  for (const auto &C : Cases) {
    PipelineRun Run = compileSrc(C.Src.c_str(), C.Scheme);
    for (const MachineConfig &M :
         {MachineConfig::fourWay(), MachineConfig::eightWay()}) {
      stats::StallBreakdown Ref, Fast;
      SimStats RS = runPath(Run, M, /*Fast=*/false, &Ref);
      SimStats FS = runPath(Run, M, /*Fast=*/true, &Fast);
      std::string Label = std::string(C.Name) + "/" + M.Name;
      expectStatsEqual(RS, FS, Label);
      EXPECT_TRUE(Fast.partitionHolds()) << Label;
      EXPECT_EQ(Fast.Cycles, FS.Cycles) << Label;
      expectBreakdownsEqual(Ref, Fast, Label);
    }
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
