//===- bench/sim_throughput.cpp - Simulator throughput tracking -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Not a paper figure: measures the timing simulator itself. For each
/// Figure 10 workload (advanced scheme) the same packed trace is
/// simulated with the reference cycle loop and with the fast path
/// (packed SoA + wakeup-driven select + cycle skipping), best-of-N wall
/// time each, on three machines: the Table 1 8-way and 4-way, and the
/// 8-way cut to one INT and one FP unit (a narrow point where select
/// keeps running out of units). The table reports simulated cycles per
/// second per (workload, machine) plus the fast/reference speedup, and
/// a per-machine line gives the absolute aggregate Mcyc/s. The summary
/// line is the tracked metric, over the 8-way rows: the fast path must
/// stay >= 2x the reference loop (gated only under --strict /
/// FPINT_STRICT=1; wall-clock numbers are inherently machine-dependent,
/// so the regular regression gate never reads them).
///
/// Every 8-way point is also recorded through the run caches, so with
/// FPINT_TELEMETRY=1 the bench_out/sim_throughput.json report carries
/// the sim_wall_ms / sim_cycles_per_sec fields of the default
/// (fast-path) simulation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <chrono>
#include <iterator>

using namespace fpint;

namespace {

/// Best-of-N wall milliseconds of \p Body (minimum filters scheduler
/// noise better than the mean on a loaded machine).
template <typename F> double bestWallMs(int Reps, F &&Body) {
  double Best = 1e300;
  for (int R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Body();
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    if (Ms < Best)
      Best = Ms;
  }
  return Best;
}

std::string mcps(uint64_t Cycles, double WallMs) {
  if (WallMs <= 0.0)
    return "-";
  return Table::fmt(static_cast<double>(Cycles) / WallMs / 1000.0, 2);
}

} // namespace

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sim_throughput", argc, argv);
  std::printf("Simulator throughput: fast path vs reference loop "
              "(fig10 workloads, 8-way, 4-way, 8-way fu1+1)\n\n");

  timing::MachineConfig Narrow = timing::MachineConfig::eightWay();
  Narrow.Name = "8-way fu1+1";
  Narrow.IntUnits = Narrow.FpUnits = 1;
  // The first machine is the summary line's.
  const timing::MachineConfig Machines[] = {
      timing::MachineConfig::eightWay(), timing::MachineConfig::fourWay(),
      Narrow};
  constexpr size_t NumMachines = std::size(Machines);
  constexpr int Reps = 5;

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "machine", "dyn instrs", "cycles", "ref Mcyc/s",
           "fast Mcyc/s", "speedup"});

  // Per-machine totals feed the summary lines; runMatrix evaluates rows
  // on the pool, so guard them.
  struct Totals {
    uint64_t Cycles = 0;
    double RefMs = 0, FastMs = 0;
  };
  std::mutex TotalsMu;
  Totals Sum[NumMachines];

  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    bench::RunPtr Run =
        bench::compileWorkload(W, partition::Scheme::Advanced);
    // Record the default simulation in the telemetry report (cached;
    // carries sim_wall_ms / sim_cycles_per_sec in bench_out JSON).
    bench::simulateRun(Run, Machines[0]);

    const timing::PackedTrace &PT = Run->packedTrace();
    bench::MatrixRows Rows;
    for (size_t MI = 0; MI < NumMachines; ++MI) {
      const timing::MachineConfig &Machine = Machines[MI];
      timing::Simulator Sim(Machine, Run->Alloc);

      timing::SimStats RefStats, FastStats;
      Sim.setFastPath(false);
      double RefMs = bestWallMs(Reps, [&] { RefStats = Sim.run(PT); });
      Sim.setFastPath(true);
      double FastMs = bestWallMs(Reps, [&] { FastStats = Sim.run(PT); });

      if (RefStats.Cycles != FastStats.Cycles)
        throw bench::CompileError(
            "fast path diverged from reference on " + std::string(W.Name) +
            " (" + Machine.Name + "): " + std::to_string(RefStats.Cycles) +
            " vs " + std::to_string(FastStats.Cycles) + " cycles");

      {
        std::lock_guard<std::mutex> Lock(TotalsMu);
        Sum[MI].Cycles += RefStats.Cycles;
        Sum[MI].RefMs += RefMs;
        Sum[MI].FastMs += FastMs;
      }
      double Speedup = FastMs > 0.0 ? RefMs / FastMs : 0.0;
      Rows.push_back({W.Name, Machine.Name, Table::num(RefStats.Instructions),
                      Table::num(RefStats.Cycles), mcps(RefStats.Cycles, RefMs),
                      mcps(FastStats.Cycles, FastMs),
                      Table::fmt(Speedup, 2) + "x"});
    }
    return Rows;
  });
  T.print();

  std::printf("\n");
  for (size_t MI = 0; MI < NumMachines; ++MI)
    std::printf("%s: reference %s Mcyc/s, fast %s Mcyc/s\n",
                Machines[MI].Name, mcps(Sum[MI].Cycles, Sum[MI].RefMs).c_str(),
                mcps(Sum[MI].Cycles, Sum[MI].FastMs).c_str());

  const Totals &Main = Sum[0];
  double Overall = Main.FastMs > 0.0 ? Main.RefMs / Main.FastMs : 0.0;
  std::printf("\nOverall: %s simulated cycles, reference %s Mcyc/s, "
              "fast %s Mcyc/s, speedup %.2fx (target >= 2x)\n",
              Table::num(Main.Cycles).c_str(),
              mcps(Main.Cycles, Main.RefMs).c_str(),
              mcps(Main.Cycles, Main.FastMs).c_str(), Overall);

  if (Overall < 2.0) {
    std::fprintf(stderr,
                 "[bench] sim_throughput: fast path speedup %.2fx is below "
                 "the 2x target\n",
                 Overall);
    bench::HarnessState::global().addDegraded("sim_throughput speedup < 2x");
  }
  return bench::harnessExit();
}
