//===- bench/BenchCommon.h - Shared harness helpers -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel evaluation runtime shared by the per-figure/per-table
/// reproduction binaries:
///
///  * compileWorkload() / simulateRun(): compile a workload under a
///    scheme and simulate it on a machine, both memoized in the
///    process-wide core::RunCache (each (workload, scheme, costs)
///    point compiles exactly once per process; the VM trace is
///    captured at most once per compiled module).
///  * runMatrix(): fan per-item row computations out on the shared
///    support::ThreadPool and append the resulting Table rows in
///    deterministic item order, so the emitted tables are
///    byte-identical to a serial evaluation.
///  * ScopedBenchReport: per-binary wall-clock / cache footer on
///    stderr (stdout stays reserved for the reproduced tables).
///
/// Threading contract: each matrix item is evaluated by exactly one
/// pool task, so a row function may freely use its own item (including
/// the workload's module) but must touch shared state only through the
/// caches. Row functions signal a bad matrix cell by throwing (e.g.
/// CompileError); runMatrix reports the cell on stderr and keeps
/// evaluating the remaining items instead of killing the binary.
///
/// Containment contract (degrade-don't-die): with FPINT_SANDBOX=1 --
/// or automatically whenever FPINT_FAULT is armed -- every matrix cell
/// runs through support::Supervised in its own forked child (policy:
/// detail::CellPolicy; docs/ROBUSTNESS.md, "Supervised execution")
/// and a cell that still fails degrades to a row of ERR cells; the
/// table still renders, the per-binary footer lists every degraded
/// cell, and the binary exits nonzero only under --strict /
/// FPINT_STRICT=1 (bench::harnessExit()). Sandboxed cells are
/// dispatched serially from the orchestration thread and do not
/// contribute telemetry records: the child's StatsRegistry dies with
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_BENCH_BENCHCOMMON_H
#define FPINT_BENCH_BENCHCOMMON_H

#include "core/Pipeline.h"
#include "core/RunCache.h"
#include "stats/StatsRegistry.h"
#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/Subprocess.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace fpint {
namespace bench {

/// Process-wide degradation state shared by runMatrix (which registers
/// degraded cells), ScopedBenchReport (which summarizes them at exit)
/// and harnessExit() (which turns them into a nonzero exit only under
/// --strict).
struct HarnessState {
  std::mutex Mu;
  std::vector<std::string> DegradedCells;
  bool Strict = false;

  void addDegraded(std::string Cell) {
    std::lock_guard<std::mutex> Lock(Mu);
    DegradedCells.push_back(std::move(Cell));
  }
  size_t numDegraded() {
    std::lock_guard<std::mutex> Lock(Mu);
    return DegradedCells.size();
  }

  static HarnessState &global() {
    static HarnessState S;
    return S;
  }
};

/// The exit code a bench main() should return: 0 normally (even with
/// degraded cells -- the table rendered), 1 when cells degraded and
/// strict mode (--strict or FPINT_STRICT=1) was requested.
inline int harnessExit() {
  HarnessState &H = HarnessState::global();
  return H.Strict && H.numDegraded() > 0 ? 1 : 0;
}

/// A pipeline produced unusable output for one matrix cell (the
/// harness must never report numbers from a broken build).
class CompileError : public std::runtime_error {
public:
  explicit CompileError(const std::string &What)
      : std::runtime_error(What) {}
};

using RunPtr = core::RunCache::RunPtr;

/// Compiles module \p M (identified by \p Name) under \p Config via
/// the process-wide cache; throws CompileError on pipeline failure.
inline RunPtr compileModule(const sir::Module &M, const std::string &Name,
                            const core::PipelineConfig &Config) {
  RunPtr Run = core::RunCache::global().compile(M, Name, Config);
  if (!Run->ok())
    throw CompileError("pipeline failed for " + Name + " (" +
                       partition::schemeName(Config.Scheme) + "): " +
                       (Run->Errors.empty() ? "output mismatch"
                                            : Run->Errors[0]));
  return Run;
}

/// Compiles \p W under \p Scheme (memoized); throws CompileError on
/// any pipeline error.
inline RunPtr compileWorkload(const workloads::Workload &W,
                              partition::Scheme Scheme,
                              partition::CostParams Costs =
                                  partition::CostParams()) {
  core::PipelineConfig Cfg;
  Cfg.Scheme = Scheme;
  Cfg.Costs = Costs;
  Cfg.TrainArgs = W.TrainArgs;
  Cfg.RefArgs = W.RefArgs;
  return compileModule(*W.M, W.Name, Cfg);
}

/// Simulates \p Run on \p Machine (memoized; replays the run's cached
/// ref-input trace, so the functional VM is not re-executed). With
/// FPINT_TELEMETRY=1 every simulated point is also recorded in the
/// process-wide StatsRegistry, from which ScopedBenchReport emits the
/// binary's bench_out/<name>.json report at exit.
inline timing::SimStats simulateRun(const RunPtr &Run,
                                    const timing::MachineConfig &Machine) {
  timing::SimStats S = core::RunCache::global().simulate(Run, Machine);
  stats::StatsRegistry &Reg = stats::StatsRegistry::global();
  if (Reg.enabled())
    Reg.record(Run->Name, Run->Config, Machine, S,
               Run->RefResult.Trap.Kind, Run->PassStats,
               stats::RegAllocSummary::of(Run->Alloc));
  return S;
}

/// One row-producing task of a bench matrix: returns the Table rows
/// for a single item (usually one workload).
using MatrixRows = std::vector<std::vector<std::string>>;

namespace detail {

/// Display label for a degraded item: its .Name when it has one
/// (workloads), otherwise "<What> #<Index>".
template <typename Item>
std::string itemLabel(const Item &I, const char *What, size_t Index) {
  if constexpr (requires { std::string(I.Name); })
    return std::string(I.Name);
  else
    return std::string(What) + " #" + std::to_string(Index);
}

/// How a sandboxed matrix cell runs by default: two retries 50 ms then
/// 100 ms apart.
inline constexpr support::Supervised::Policy CellPolicy = {
    .Limits = {.WallMs = 120000, .KillGraceMs = 500, .AddressSpaceMb = 4096},
    .Retries = 2, .BackoffMs = 50, .FaultSite = "cell"};

/// How one matrix cell runs: in a sandbox child under CellPolicy plus
/// the FPINT_SANDBOX_* overrides, or once, in-process on a pool worker.
inline support::Supervised::Policy cellPolicy(bool Sandbox) {
  if (Sandbox)
    return CellPolicy.withEnv();
  support::Supervised::Policy P;
  P.InProcess = true;
  return P;
}

/// The cell policy of this binary, built once. FPINT_SANDBOX=1 forces
/// the sandbox on, FPINT_SANDBOX=0 off; otherwise it arms itself
/// whenever fault injection is armed, so an injected crash can never
/// take the harness down.
inline const support::Supervised::Policy &binaryCellPolicy() {
  static const support::Supervised::Policy P = [] {
    const char *E = std::getenv("FPINT_SANDBOX");
    return cellPolicy(E && *E ? E[0] != '0' : support::fault::enabled());
  }();
  return P;
}

/// Rows travel as a JSON array of arrays of strings.
inline std::string rowsToJson(const MatrixRows &Rows) {
  json::Value Doc = json::Value::array();
  for (const std::vector<std::string> &R : Rows) {
    json::Value Row = json::Value::array();
    for (const std::string &C : R)
      Row.push(C);
    Doc.push(std::move(Row));
  }
  return Doc.dump();
}

inline bool rowsFromJson(const std::string &Text, MatrixRows &Rows) {
  json::Value Doc;
  if (!json::Value::parse(Text, Doc, nullptr) || !Doc.isArray())
    return false;
  Rows.clear();
  for (const json::Value &R : Doc.items()) {
    if (!R.isArray())
      return false;
    std::vector<std::string> Row;
    for (const json::Value &C : R.items()) {
      if (!C.isString())
        return false;
      Row.push_back(C.str());
    }
    Rows.push_back(std::move(Row));
  }
  return true;
}

/// One cell's rows, or its failure.
struct CellResult {
  MatrixRows Rows;
  std::optional<support::Supervised::Failure> Fail;
};

template <typename Item, typename RowFn>
CellResult runCell(const Item &I, RowFn &Row,
                   const support::Supervised::Policy &P) {
  CellResult Out;
  support::Supervised::Result R = support::Supervised::run(
      [&](support::Supervised::Sink &S) { S.write(rowsToJson(Row(I))); }, P,
      [&](const std::string &Payload, std::string &Why) {
        Why = "malformed cell payload";
        return rowsFromJson(Payload, Out.Rows);
      });
  Out.Fail = std::move(R.Fail);
  return Out;
}

} // namespace detail

/// Evaluates Row(Items[i]) for every item and appends the produced
/// rows to \p T in item order, making the table byte-identical to a
/// serial evaluation.
///
/// Default mode fans the items out on the shared thread pool; a row
/// function that throws fails only its own cell (reported on stderr,
/// rows absent). Sandbox mode (see binaryCellPolicy()) instead runs one
/// supervised child per cell, serially: a cell that still fails after
/// its retries degrades to a single row of "ERR" cells padded to the
/// header width, registered in HarnessState for the exit summary.
template <typename Item, typename RowFn>
void runMatrix(const std::vector<Item> &Items, Table &T, RowFn Row,
               const char *What = "matrix cell") {
  const support::Supervised::Policy &P = detail::binaryCellPolicy();
  const bool Sandbox = !P.InProcess;
  std::vector<detail::CellResult> Cells;
  Cells.reserve(Items.size());
  if (Sandbox) {
    for (const Item &I : Items)
      Cells.push_back(detail::runCell(I, Row, P));
  } else {
    support::ThreadPool &Pool = support::ThreadPool::global();
    std::vector<std::future<detail::CellResult>> Pending;
    Pending.reserve(Items.size());
    for (const Item &I : Items)
      Pending.push_back(
          Pool.submit([&I, &Row, &P] { return detail::runCell(I, Row, P); }));
    for (std::future<detail::CellResult> &F : Pending)
      Cells.push_back(F.get());
  }

  for (size_t I = 0; I < Cells.size(); ++I) {
    if (!Cells[I].Fail) {
      for (std::vector<std::string> &R : Cells[I].Rows)
        T.addRow(std::move(R));
      continue;
    }
    const std::string Err = Cells[I].Fail->detail();
    if (!Sandbox) {
      std::fprintf(stderr, "[bench] %s %zu failed: %s\n", What, I,
                   Err.c_str());
      continue;
    }
    std::string Label = detail::itemLabel(Items[I], What, I);
    std::fprintf(stderr, "[bench] %s %zu (%s) degraded to ERR: %s\n", What,
                 I, Label.c_str(), Err.c_str());
    HarnessState::global().addDegraded(Label + ": " + Err);
    std::vector<std::string> ErrRow{Label};
    while (ErrRow.size() < std::max<size_t>(T.numCols(), 2))
      ErrRow.push_back("ERR");
    T.addRow(std::move(ErrRow));
  }
}

/// The (workloads x schemes x machines) convenience form from the
/// evaluation-runtime design: every (scheme, machine) pair is
/// compiled and simulated for each workload (all through the caches),
/// then Row emits the workload's rows from the warmed caches.
template <typename RowFn>
void runMatrix(const std::vector<workloads::Workload> &Ws,
               const std::vector<partition::Scheme> &Schemes,
               const std::vector<timing::MachineConfig> &Machines,
               Table &T, RowFn Row) {
  runMatrix(
      Ws, T,
      [&](const workloads::Workload &W) {
        for (partition::Scheme S : Schemes) {
          RunPtr Run = compileWorkload(W, S);
          for (const timing::MachineConfig &M : Machines)
            simulateRun(Run, M);
        }
        return Row(W);
      },
      "workload row");
}

/// Prints a wall-clock + parallelism + cache-effectiveness footer on
/// stderr when the binary exits, and -- when telemetry is enabled --
/// writes the binary's structured JSON report (one record per
/// simulated point) into bench_out/ (or $FPINT_BENCH_OUT).
/// Construct one at the top of main().
class ScopedBenchReport {
public:
  /// \p Argc / \p Argv (optional) let the binary honor --strict;
  /// FPINT_STRICT=1 is the environment equivalent.
  explicit ScopedBenchReport(const char *Name, int Argc = 0,
                             char **Argv = nullptr)
      : Name(Name), Start(std::chrono::steady_clock::now()) {
    const char *Env = std::getenv("FPINT_STRICT");
    bool Strict = Env && std::atoi(Env) != 0;
    for (int A = 1; A < Argc; ++A)
      if (std::strcmp(Argv[A], "--strict") == 0)
        Strict = true;
    HarnessState::global().Strict = Strict;
  }

  ~ScopedBenchReport() {
    using namespace std::chrono;
    double Secs = duration_cast<duration<double>>(
                      steady_clock::now() - Start)
                      .count();
    core::RunCache::Stats S = core::RunCache::global().stats();
    std::fprintf(stderr,
                 "[bench] %s: wall %.2fs, jobs %u, compiles %llu "
                 "(%llu cached), sims %llu (%llu cached)\n",
                 Name, Secs, support::ThreadPool::global().threadCount(),
                 static_cast<unsigned long long>(S.CompileMisses),
                 static_cast<unsigned long long>(S.CompileHits),
                 static_cast<unsigned long long>(S.SimMisses),
                 static_cast<unsigned long long>(S.SimHits));

    {
      HarnessState &H = HarnessState::global();
      std::lock_guard<std::mutex> Lock(H.Mu);
      if (!H.DegradedCells.empty()) {
        std::fprintf(stderr,
                     "[bench] %s: %zu cell(s) degraded to ERR%s:\n",
                     Name, H.DegradedCells.size(),
                     H.Strict ? " (strict: exiting nonzero)" : "");
        for (const std::string &C : H.DegradedCells)
          std::fprintf(stderr, "[bench]   %s\n", C.c_str());
      }
    }

    stats::StatsRegistry &Reg = stats::StatsRegistry::global();
    if (!Reg.enabled() || Reg.numRecords() == 0)
      return;
    const char *Dir = std::getenv("FPINT_BENCH_OUT");
    std::string OutDir = Dir && *Dir ? Dir : "bench_out";
    std::string Err;
    if (Reg.writeReport(OutDir, Name, &Err))
      std::fprintf(stderr, "[bench] %s: wrote %s/%s.json (%zu runs)\n",
                   Name, OutDir.c_str(), Name, Reg.numRecords());
    else
      std::fprintf(stderr, "[bench] %s: telemetry report failed: %s\n",
                   Name, Err.c_str());
  }

private:
  const char *Name;
  std::chrono::steady_clock::time_point Start;
};

} // namespace bench
} // namespace fpint

#endif // FPINT_BENCH_BENCHCOMMON_H
