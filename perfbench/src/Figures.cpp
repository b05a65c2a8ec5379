//===- perfbench/src/Figures.cpp - The figures workload -------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One op compiles one (workload, scheme) cell cold -- a fresh
/// core::RunCache, so the passes and all four VM runs happen every
/// time -- and simulates it on the Table 1 4-way and 8-way machines
/// (conventional cells on their FPa-off twins), looking it up in the
/// cache as often as the fig8, fig9 and fig10 benches do. Every
/// simulation is checked against the cycles and instruction counts
/// committed in scripts/golden. The seed orders the cells of each
/// repetition.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "sir/Printer.h"
#include "support/Json.h"
#include "workloads/Workloads.h"

#include <fstream>
#include <sstream>

using namespace perfbench;
using namespace fpint;

namespace {

struct Cell {
  const workloads::Workload *W;
  partition::Scheme Scheme;
  std::string name() const {
    return W->Name + "/" + partition::schemeName(Scheme);
  }
};

/// Golden (cycles, instructions) by "workload/scheme/machine".
using Goldens = std::map<std::string, std::pair<uint64_t, uint64_t>>;

bool loadGoldens(const std::string &Dir, Goldens &Out, std::string &Err) {
  for (const char *File :
       {"fig9_speedup_4way.json", "fig10_speedup_8way.json"}) {
    std::ifstream In(Dir + "/" + File, std::ios::binary);
    std::stringstream Text;
    Text << In.rdbuf();
    json::Value Doc;
    if (!In || !json::Value::parse(Text.str(), Doc, &Err)) {
      Err = Dir + "/" + File + ": " + (In ? Err : "cannot read");
      return false;
    }
    const json::Value *Runs = Doc.find("runs");
    if (!Runs || !Runs->isArray()) {
      Err = std::string(File) + ": no runs";
      return false;
    }
    for (const json::Value &Run : Runs->items()) {
      const json::Value *Stats = Run.find("stats");
      const json::Value *Machine = Run.find("machine");
      if (!Stats || !Machine)
        continue;
      Out[Run.strOr("workload", "") + "/" + Run.strOr("scheme", "") + "/" +
          Machine->strOr("name", "")] = {
          static_cast<uint64_t>(Stats->numberOr("cycles", 0)),
          static_cast<uint64_t>(Stats->numberOr("instructions", 0))};
    }
  }
  return true;
}

core::PipelineConfig configOf(const Cell &C) {
  core::PipelineConfig Cfg;
  Cfg.Scheme = C.Scheme;
  Cfg.TrainArgs = C.W->TrainArgs;
  Cfg.RefArgs = C.W->RefArgs;
  return Cfg;
}

/// One op: compile \p C cold and look it up the way one process that
/// draws Figures 8, 9 and 10 through a shared core::RunCache does. fig8
/// compiles the partitioned schemes; fig9 compiles every scheme and
/// simulates it on the 4-way machine; fig10 compiles again, simulates
/// the 8-way machine and the conventional and advanced runs on the
/// 4-way machine again. The cache is fresh, so the first compile and
/// the first simulation on each machine are the work and the rest are
/// hits. Returns the simulated cycles through \p Cycles; false if
/// anything is wrong.
bool runCell(const Cell &C, const Goldens &G, Tracer *T, LayerLog *L,
             uint64_t Op, uint64_t &Cycles) {
  core::RunCache Cache;
  const core::PipelineConfig Cfg = configOf(C);
  const bool Partitioned = C.Scheme != partition::Scheme::None;
  core::RunCache::RunPtr Run =
      compileCell(T, L, Cache, *C.W->M, C.W->Name, Cfg, Op);
  if (!Run)
    return false;
  for (int Lookup = Partitioned ? 2 : 1; Lookup > 0; --Lookup)
    Cache.compile(*C.W->M, C.W->Name, Cfg);

  std::vector<timing::MachineConfig> Machines = {
      timing::MachineConfig::fourWay(), timing::MachineConfig::eightWay()};
  if (C.Scheme != partition::Scheme::Basic)
    Machines.push_back(timing::MachineConfig::fourWay());
  bool Ok = true;
  Cycles = 0;
  for (size_t I = 0; I < Machines.size(); ++I) {
    timing::MachineConfig &M = Machines[I];
    M.FpaEnabled = Partitioned;
    timing::SimStats S;
    if (I < 2) {
      ScopedSpan Span(T, "timing.sim", Op);
      S = Cache.simulate(Run, M);
      Cycles += S.Cycles;
    } else {
      S = Cache.simulate(Run, M);
    }
    const std::string Key = C.name() + "/" + M.Name;
    auto It = G.find(Key);
    if (It == G.end() || It->second != std::make_pair(S.Cycles,
                                                      S.Instructions)) {
      complain(Key + ": simulated " + std::to_string(S.Cycles) +
               " cycles / " + std::to_string(S.Instructions) +
               " instructions, golden " +
               (It == G.end() ? std::string("missing")
                              : std::to_string(It->second.first) + " / " +
                                    std::to_string(It->second.second)));
      Ok = false;
    }
  }
  if (L) {
    L->simulated(Cycles);
    L->cacheStats(Cache.stats());
  }
  return Ok;
}

} // namespace

void perfbench::runFigures(const Options &Opts, Report &R) {
  Tracer T(Opts.Trace);
  if (Opts.Trace)
    reportSandboxFloor(Opts, R, T);
  std::vector<workloads::Workload> Ws;
  Goldens G;
  std::vector<Cell> Cells;
  std::vector<uint64_t> CellCycles;

  // Set-up: build the workload modules, read the goldens, and run every
  // cell once (checked) on the workers, so their allocator arenas and
  // the code are warm.
  auto Setup = [&] {
    Ws = workloads::intWorkloads();
    if (Opts.Tiny)
      Ws.resize(2);
    G.clear();
    std::string Err;
    R.check(loadGoldens(Opts.GoldenDir, G, Err), "goldens: " + Err);
    Cells.clear();
    for (const workloads::Workload &W : Ws)
      for (partition::Scheme S :
           {partition::Scheme::None, partition::Scheme::Basic,
            partition::Scheme::Advanced})
        Cells.push_back({&W, S});
    CellCycles.assign(Cells.size(), 0);
    R.addPhase(runPhase(Opts.Threads, 0, Cells.size(), nullptr,
                        [&](uint64_t I, unsigned) {
                          return runCell(Cells[I], G, nullptr, nullptr, I,
                                         CellCycles[I]);
                        }));
  };
  const std::vector<double> SetupS = timeSetups(3, Setup);

  auto Op = [&](Tracer *T, LayerLog *L) {
    return [&, T, L](uint64_t Idx, unsigned) {
      const uint64_t Rep = Idx / Cells.size();
      const size_t Pos =
          permutation(Cells.size(), Opts.Seed * 1000003u + Rep)[Idx %
                                                                Cells.size()];
      uint64_t Cycles = 0;
      return runCell(Cells[Pos], G, T, L, Idx, Cycles);
    };
  };

  if (!Opts.Trace) {
    PhaseStats P = runPhase(Opts.Threads, Opts.Seconds, Cells.size(),
                            nullptr, Op(nullptr, nullptr));
    R.addPhase(P);
    reportEndToEnd(R, SetupS, P, selfPeakRssMb());
    return;
  }

  LayerLog L;
  PhaseStats U = runPhase(Opts.Threads, Opts.Seconds / 2, Cells.size(),
                          nullptr, Op(nullptr, nullptr));
  PhaseStats Tr = runPhase(Opts.Threads, Opts.Seconds / 2, Cells.size(), &T,
                           Op(&T, &L));
  R.addPhase(U);
  R.addPhase(Tr);

  // The VM runs hidden inside compileAndMeasure, repeated once per cell
  // on the workers, where the ops ran them.
  R.addPhase(runPhase(Opts.Threads, 0, Cells.size(), nullptr,
                      [&](uint64_t I, unsigned) {
                        const Cell &C = Cells[I];
                        core::RunCache Cache;
                        core::RunCache::RunPtr Run =
                            compileCell(nullptr, nullptr, Cache, *C.W->M,
                                        C.W->Name, configOf(C), I);
                        return Run && probeVm(&T, L, *C.W->M, *Run, C.name(),
                                              I);
                      }));
  std::vector<std::string> Texts;
  for (const workloads::Workload &W : Ws)
    Texts.push_back(sir::toString(*W.M));
  R.check(parseTexts(&T, Texts), "printed workload modules parse");

  double CyclesPerOp = 0;
  for (uint64_t C : CellCycles)
    CyclesPerOp += static_cast<double>(C);
  CyclesPerOp /= static_cast<double>(CellCycles.size());
  reportCompileLayers(R, T, L, CyclesPerOp);
  reportServeCensus(Opts, R, T);
  reportOverhead(R, U, Tr);
  std::string Err;
  R.check(T.write(Opts.TraceOut, Err), Err);
}
