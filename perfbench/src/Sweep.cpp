//===- perfbench/src/Sweep.cpp - The sweep workload -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-up compiles every SPECint analogue conventionally and with the
/// advanced partitioner and packs both traces once. One op then
/// simulates one workload on one of the 39 points of the fpint-explore
/// "small" grid (2-, 4- and 8-wide, FU mixes, three predictors): the
/// conventional run on the point's FPa-off twin, the advanced run with
/// FPa on -- the same pair campaign::evaluateExploreCell simulates.
///
/// Checks: a point's cycles and instruction counts never change from
/// one repetition to the next, and a seeded subset of points re-run on
/// the reference loop (Simulator::setFastPath(false)) agrees.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "campaign/Explore.h"
#include "sir/Printer.h"
#include "workloads/Workloads.h"

#include <array>
#include <memory>
#include <mutex>
#include <optional>

using namespace perfbench;
using namespace fpint;

namespace {

struct Compiled {
  core::RunCache::RunPtr Conv, Aug;
};

/// (conventional cycles, instructions, advanced cycles, instructions).
using PointStats = std::array<uint64_t, 4>;

core::PipelineConfig configOf(const workloads::Workload &W,
                              partition::Scheme S) {
  core::PipelineConfig Cfg;
  Cfg.Scheme = S;
  Cfg.TrainArgs = W.TrainArgs;
  Cfg.RefArgs = W.RefArgs;
  return Cfg;
}

std::pair<timing::MachineConfig, timing::MachineConfig>
twins(const timing::MachineConfig &M) {
  timing::MachineConfig Conv = M, Aug = M;
  Conv.FpaEnabled = false;
  Aug.FpaEnabled = true;
  return {Conv, Aug};
}

} // namespace

void perfbench::runSweep(const Options &Opts, Report &R) {
  std::vector<workloads::Workload> Ws;
  std::vector<campaign::MachinePoint> Grid;
  std::unique_ptr<core::RunCache> Cache;
  std::vector<Compiled> Runs;
  Tracer T(Opts.Trace);
  LayerLog L;
  if (Opts.Trace)
    reportSandboxFloor(Opts, R, T);

  auto Setup = [&] {
    Ws = workloads::intWorkloads();
    Grid = campaign::exploreGrid("small");
    if (Opts.Tiny) {
      Ws.resize(2);
      Grid.resize(6);
    }
    Cache = std::make_unique<core::RunCache>();
    Runs.assign(Ws.size(), {});
    for (size_t I = 0; I < Ws.size(); ++I) {
      const workloads::Workload &W = Ws[I];
      for (partition::Scheme S :
           {partition::Scheme::None, partition::Scheme::Advanced}) {
        core::RunCache::RunPtr Run =
            compileCell(&T, &L, *Cache, *W.M, W.Name, configOf(W, S), 0);
        R.check(Run != nullptr, "compile " + W.Name);
        if (!Run)
          continue;
        Run->packedTrace();
        if (T.on())
          R.check(probeVm(&T, L, *W.M, *Run,
                          W.Name + "/" + partition::schemeName(S), 0),
                  "VM probe of " + W.Name);
        (S == partition::Scheme::None ? Runs[I].Conv : Runs[I].Aug) = Run;
      }
    }
  };
  const std::vector<double> SetupS = timeSetups(3, Setup);
  for (const Compiled &C : Runs)
    if (!C.Conv || !C.Aug)
      return; // Set-up failed; the check above already counted it.

  const size_t NumItems = Ws.size() * Grid.size();
  std::mutex Mu;
  std::vector<std::optional<PointStats>> Seen(NumItems);

  auto Simulate = [&](size_t Item, Tracer *Tr, uint64_t Op) {
    const size_t WI = Item / Grid.size();
    const workloads::Workload &W = Ws[WI];
    auto [ConvM, AugM] = twins(Grid[Item % Grid.size()].M);
    // Looked up through the cache like every other consumer of a
    // compiled run; set-up made these hits.
    core::RunCache::RunPtr Conv =
        Cache->compile(*W.M, W.Name, configOf(W, partition::Scheme::None));
    core::RunCache::RunPtr Aug = Cache->compile(
        *W.M, W.Name, configOf(W, partition::Scheme::Advanced));
    timing::SimStats CS, AS;
    {
      ScopedSpan S(Tr, "timing.sim", Op);
      CS = core::simulate(*Conv, ConvM);
    }
    {
      ScopedSpan S(Tr, "timing.sim", Op);
      AS = core::simulate(*Aug, AugM);
    }
    return PointStats{CS.Cycles, CS.Instructions, AS.Cycles, AS.Instructions};
  };

  auto Op = [&](Tracer *Tr) {
    return [&, Tr](uint64_t Idx, unsigned) {
      const size_t Item = permutation(NumItems, Opts.Seed * 1000003u +
                                                    Idx / NumItems)[Idx %
                                                                    NumItems];
      PointStats St = Simulate(Item, Tr, Idx);
      if (Tr)
        L.simulated(St[0] + St[2]);
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Seen[Item])
        Seen[Item] = St;
      else if (*Seen[Item] != St) {
        complain(Ws[Item / Grid.size()].Name + " on " +
                 Grid[Item % Grid.size()].Label +
                 ": cycles changed between repetitions");
        return false;
      }
      return true;
    };
  };

  PhaseStats U = runPhase(Opts.Threads,
                          Opts.Trace ? Opts.Seconds / 2 : Opts.Seconds,
                          NumItems, nullptr, Op(nullptr));
  R.addPhase(U);
  PhaseStats Tr;
  if (Opts.Trace) {
    Tr = runPhase(Opts.Threads, Opts.Seconds / 2, NumItems, &T, Op(&T));
    R.addPhase(Tr);
  }

  // A seeded subset of points on the reference loop.
  const std::vector<size_t> Order =
      permutation(NumItems, Opts.Seed ^ 0x5eedc0deULL);
  const size_t Subset = Opts.Tiny ? 2 : 4;
  for (size_t K = 0; K < Subset && K < NumItems; ++K) {
    const size_t Item = Order[K];
    const Compiled &C = Runs[Item / Grid.size()];
    auto [ConvM, AugM] = twins(Grid[Item % Grid.size()].M);
    PointStats Ref{};
    for (int Half = 0; Half < 2; ++Half) {
      const core::PipelineRun &Run = Half ? *C.Aug : *C.Conv;
      timing::Simulator Sim(Half ? AugM : ConvM, Run.Alloc);
      Sim.setFastPath(false);
      timing::SimStats S = Sim.run(Run.refTrace());
      Ref[2 * Half] = S.Cycles;
      Ref[2 * Half + 1] = S.Instructions;
    }
    const PointStats Fast =
        Seen[Item] ? *Seen[Item] : Simulate(Item, nullptr, 0);
    R.check(Ref == Fast, Ws[Item / Grid.size()].Name + " on " +
                             Grid[Item % Grid.size()].Label +
                             ": fast path disagrees with the reference loop");
  }

  if (!Opts.Trace) {
    reportEndToEnd(R, SetupS, U, selfPeakRssMb());
    return;
  }

  std::vector<std::string> Texts;
  for (const workloads::Workload &W : Ws)
    Texts.push_back(sir::toString(*W.M));
  R.check(parseTexts(&T, Texts), "printed workload modules parse");
  double CyclesPerOp = 0;
  for (const std::optional<PointStats> &S : Seen)
    CyclesPerOp += S ? static_cast<double>((*S)[0] + (*S)[2]) : 0.0;
  CyclesPerOp /= static_cast<double>(NumItems);
  L.cacheStats(Cache->stats());
  reportCompileLayers(R, T, L, CyclesPerOp);
  reportServeCensus(Opts, R, T);
  reportOverhead(R, U, Tr);
  std::string Err;
  R.check(T.write(Opts.TraceOut, Err), Err);
}
