//===- perfbench/src/Layers.h - Per-layer spans and metrics ---------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced compile-and-simulate cell shared by the three workloads,
/// and the per-layer metrics derived from its spans.
///
/// A cell is one core::compileAndMeasure plus its trace capture and
/// packing. The passes report their own wall time (core::PassStat);
/// the VM runs inside compileAndMeasure are not visible from outside,
/// so probeVm() repeats them -- the measure run and the original run --
/// as their own spans, and core.compile_other_ms is what is left of
/// the compile span after the passes and those two runs.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_PERFBENCH_LAYERS_H
#define FPINT_PERFBENCH_LAYERS_H

#include "Harness.h"

#include "core/RunCache.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// What the traced run learns about compiled cells outside spans.
class LayerLog {
public:
  /// Records the pass rows of one compile (every call, for timings).
  void compiled(const fpint::core::PipelineRun &Run);
  /// Records one cell's VM run count and dynamic instructions (kept
  /// once per cell, so the per-op counts repeat exactly).
  void probed(const std::string &Cell, unsigned VmRuns, uint64_t Steps);
  void simulated(uint64_t Cycles);
  void cacheStats(const fpint::core::RunCache::Stats &S);

  /// Mean wall time of the pass rows named \p Pass, in ms.
  double passMs(const std::string &Pass) const;
  /// Mean summed wall time of all pass rows of one compile, in ms.
  double allPassesMs() const;
  double vmRunsPerCell() const;
  double stepsPerCell() const;
  uint64_t simCycles() const;
  double cacheHitRatio() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::pair<double, uint64_t>> Passes;
  double PassTotalMs = 0;
  uint64_t Compiles = 0;
  std::map<std::string, std::pair<unsigned, uint64_t>> Cells;
  uint64_t SimCycles = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheLookups = 0;
};

/// Compiles through \p Cache inside a "core.compile" span; with a
/// tracer, also captures the trace ("vm.trace") and packs it
/// ("timing.pack") in spans of their own, work that an untraced caller
/// leaves to the first simulate. A cache hit is a "core.lookup" span
/// and nothing else. Returns null (after complaining) when the
/// pipeline fails.
fpint::core::RunCache::RunPtr
compileCell(Tracer *T, LayerLog *L, fpint::core::RunCache &Cache,
            const fpint::sir::Module &M, const std::string &Name,
            const fpint::core::PipelineConfig &Config, uint64_t Op);

/// Repeats the VM runs compileAndMeasure makes but does not expose, in
/// "vm.measure" and "vm.original" spans, and records the cell's VM run
/// count and dynamic instructions. The training run's instruction
/// count is taken from the original module on the training input.
/// False if the repeated runs disagree with compileAndMeasure's.
bool probeVm(Tracer *T, LayerLog &L, const fpint::sir::Module &Original,
             const fpint::core::PipelineRun &Run, const std::string &Cell,
             uint64_t Op);

/// Parses each text with sir::parseModule in "sir.parse" spans; false
/// if one fails to parse.
bool parseTexts(Tracer *T, const std::vector<std::string> &Texts);

/// Emits sir.parse_ms and every compiler, VM and timing layer metric.
/// \p CyclesPerOp is the workload's simulated cycles per op.
void reportCompileLayers(Report &R, const Tracer &T, const LayerLog &L,
                         double CyclesPerOp);

/// Reports the tracing overhead of a traced run: the median op of its
/// traced half over that of its untraced half (1 is no overhead).
void reportOverhead(Report &R, const PhaseStats &Untraced,
                    const PhaseStats &Traced);

} // namespace perfbench

#endif // FPINT_PERFBENCH_LAYERS_H
