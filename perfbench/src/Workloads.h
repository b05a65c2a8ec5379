//===- perfbench/src/Workloads.h - The benchmark's workloads --------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (see perfbench/README.md for why each exists):
///
///   figures  one op = one (workload, scheme) cell of Figures 8-10,
///            compiled cold and simulated on the 4-way and 8-way
///            machines, checked against scripts/golden;
///   sweep    one op = one (workload, machine point) pair of the
///            fpint-explore "small" grid, simulated from traces packed
///            during set-up;
///   serve    one op = one request to the shipped fpint-serve daemon
///            over its socket, closed loop.
///
/// Each entry point runs set-up, the timed phase and the output
/// checks, fills \p R, and with Opts.Trace also the traced half and
/// the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_PERFBENCH_WORKLOADS_H
#define FPINT_PERFBENCH_WORKLOADS_H

#include "Harness.h"

namespace perfbench {

void runFigures(const Options &Opts, Report &R);
void runSweep(const Options &Opts, Report &R);
void runServe(const Options &Opts, Report &R);

/// support.subprocess_ms: the median no-op Subprocess::run round trip,
/// measured by a helper process (this binary with --sandbox-floor) that
/// loads no workload and keeps itself and its children on one
/// processor, so that it pays the supervisor's poll interval the way
/// the serving daemon's misses do (see sandboxFloorMain).
void reportSandboxFloor(const Options &Opts, Report &R, Tracer &T);

/// The helper's entry point: one warm-up, then \p Calls no-op
/// Subprocess::run calls, each printed as "start_ns end_ns ok".
int sandboxFloorMain(unsigned Calls);

/// Per-layer metrics of the serve and support layers from a small
/// in-process request sequence, for the traced runs of workloads whose
/// own load does not reach those layers.
void reportServeCensus(const Options &Opts, Report &R, Tracer &T);

} // namespace perfbench

#endif // FPINT_PERFBENCH_WORKLOADS_H
