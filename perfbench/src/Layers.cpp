//===- perfbench/src/Layers.cpp - Per-layer spans and metrics -------------===//

#include "Layers.h"

#include "sir/Parser.h"
#include "vm/VM.h"

using namespace perfbench;
using namespace fpint;

void LayerLog::compiled(const core::PipelineRun &Run) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Compiles;
  for (const core::PassStat &P : Run.PassStats) {
    auto &[Ms, Calls] = Passes[P.Name];
    Ms += P.WallMs;
    ++Calls;
    PassTotalMs += P.WallMs;
  }
}

void LayerLog::probed(const std::string &Cell, unsigned VmRuns,
                      uint64_t Steps) {
  std::lock_guard<std::mutex> Lock(Mu);
  Cells[Cell] = {VmRuns, Steps};
}

void LayerLog::simulated(uint64_t Cycles) {
  std::lock_guard<std::mutex> Lock(Mu);
  SimCycles += Cycles;
}

void LayerLog::cacheStats(const core::RunCache::Stats &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheHits += S.CompileHits + S.SimHits;
  CacheLookups += S.CompileHits + S.CompileMisses + S.SimHits + S.SimMisses;
}

double LayerLog::passMs(const std::string &Pass) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Passes.find(Pass);
  return It == Passes.end() ? 0.0 : It->second.first / It->second.second;
}

double LayerLog::allPassesMs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Compiles ? PassTotalMs / Compiles : 0.0;
}

double LayerLog::vmRunsPerCell() const {
  std::lock_guard<std::mutex> Lock(Mu);
  double Sum = 0;
  for (const auto &[Cell, C] : Cells)
    Sum += C.first;
  return Cells.empty() ? 0.0 : Sum / Cells.size();
}

double LayerLog::stepsPerCell() const {
  std::lock_guard<std::mutex> Lock(Mu);
  double Sum = 0;
  for (const auto &[Cell, C] : Cells)
    Sum += static_cast<double>(C.second);
  return Cells.empty() ? 0.0 : Sum / Cells.size();
}

uint64_t LayerLog::simCycles() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return SimCycles;
}

double LayerLog::cacheHitRatio() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return CacheLookups ? static_cast<double>(CacheHits) / CacheLookups : 0.0;
}

core::RunCache::RunPtr perfbench::compileCell(
    Tracer *T, LayerLog *L, core::RunCache &Cache, const sir::Module &M,
    const std::string &Name, const core::PipelineConfig &Config, uint64_t Op) {
  core::RunCache::RunPtr Run;
  const uint64_t Misses = Cache.stats().CompileMisses;
  bool Hit = false;
  {
    ScopedSpan S(T, "core.compile", Op);
    Run = Cache.compile(M, Name, Config);
    Hit = Cache.stats().CompileMisses == Misses;
    if (Hit)
      S.rename("core.lookup");
  }
  if (!Run->ok()) {
    complain("pipeline failed for " + Name + " (" +
             partition::schemeName(Config.Scheme) + "): " +
             (Run->Errors.empty() ? "output mismatch" : Run->Errors[0]));
    return nullptr;
  }
  if (Hit)
    return Run;
  if (T && T->on()) {
    {
      ScopedSpan S(T, "vm.trace", Op);
      Run->refTrace();
    }
    {
      ScopedSpan S(T, "timing.pack", Op);
      Run->packedTrace();
    }
  }
  if (L)
    L->compiled(*Run);
  return Run;
}

bool perfbench::probeVm(Tracer *T, LayerLog &L, const sir::Module &Original,
                        const core::PipelineRun &Run, const std::string &Cell,
                        uint64_t Op) {
  vm::VM::Result Measure, Orig;
  {
    ScopedSpan S(T, "vm.measure", Op);
    vm::VM::Options Opts;
    Opts.CollectProfile = true;
    vm::VM Machine(*Run.Compiled, Opts);
    Measure = Machine.run(Run.Config.RefArgs);
  }
  {
    ScopedSpan S(T, "vm.original", Op);
    Orig = vm::runModule(Original, Run.Config.RefArgs);
  }
  const uint64_t TraceSteps = Run.refTrace().size();
  unsigned Runs = 2 + Run.Trace->Captures; // measure + original + trace
  uint64_t Steps = Measure.Steps + Orig.Steps + TraceSteps;
  for (const core::PassStat &P : Run.PassStats)
    if (P.Name == "profile") {
      ++Runs;
      Steps += vm::runModule(Original, Run.Config.TrainArgs).Steps;
    }
  L.probed(Cell, Runs, Steps);
  return Measure.Steps == Run.RefResult.Steps &&
         Orig.Output == Run.RefResult.Output;
}

bool perfbench::parseTexts(Tracer *T, const std::vector<std::string> &Texts) {
  bool Ok = true;
  for (const std::string &Text : Texts) {
    ScopedSpan S(T, "sir.parse", 0);
    Ok &= sir::parseModule(Text).ok();
  }
  return Ok;
}

void perfbench::reportCompileLayers(Report &R, const Tracer &T,
                                    const LayerLog &L, double CyclesPerOp) {
  const std::map<std::string, Tracer::Layer> Ls = T.layers();
  auto Mean = [&](const char *Name) {
    auto It = Ls.find(Name);
    return It == Ls.end() ? 0.0 : It->second.meanSelfMs();
  };

  R.metric("sir.parse_ms", "ms", Mean("sir.parse"));
  R.metric("opt.ms", "ms", L.passMs("opt"));
  R.metric("partition.ms", "ms", L.passMs("partition"));
  R.metric("regalloc.ms", "ms", L.passMs("regalloc"));
  const double TrainMs = L.passMs("profile");
  const double MeasureMs = Mean("vm.measure");
  const double OriginalMs = Mean("vm.original");
  const double TraceMs = Mean("vm.trace");
  R.metric("vm.train_ms", "ms", TrainMs);
  R.metric("core.compile_other_ms", "ms",
           Mean("core.compile") - L.allPassesMs() - MeasureMs - OriginalMs);
  R.metric("vm.measure_ms", "ms", MeasureMs);
  R.metric("vm.original_ms", "ms", OriginalMs);
  R.metric("vm.trace_ms", "ms", TraceMs);
  R.metric("vm.runs_per_op", "count", L.vmRunsPerCell());
  R.metric("vm.steps_per_op", "count", L.stepsPerCell());
  const double VmMs = TrainMs + MeasureMs + OriginalMs + TraceMs;
  R.metric("vm.minstr_per_s", "Minstr/s",
           VmMs > 0 ? L.stepsPerCell() / VmMs / 1000.0 : 0.0);

  R.metric("timing.pack_ms", "ms", Mean("timing.pack"));
  auto Sim = Ls.find("timing.sim");
  R.metric("timing.sim_ms", "ms", Mean("timing.sim"));
  R.metric("timing.sim_mcyc_per_s", "Mcyc/s",
           Sim != Ls.end() && Sim->second.TotalMs > 0
               ? static_cast<double>(L.simCycles()) / Sim->second.TotalMs /
                     1000.0
               : 0.0);
  R.metric("timing.cycles_per_op", "count", CyclesPerOp);
  R.metric("core.runcache_hit_ratio", "ratio", L.cacheHitRatio());
}

void perfbench::reportOverhead(Report &R, const PhaseStats &Untraced,
                               const PhaseStats &Traced) {
  const double U = percentile(Untraced.LatencyMs, 0.5);
  const double Tr = percentile(Traced.LatencyMs, 0.5);
  R.metric("trace.overhead_ratio", "ratio", U > 0 ? Tr / U : 0.0);
  R.note("  tracing: untraced " + std::to_string(Untraced.opsPerSec()) +
         " ops/s p50 " + std::to_string(U) + " ms; traced " +
         std::to_string(Traced.opsPerSec()) + " ops/s p50 " +
         std::to_string(Tr) + " ms");
}
