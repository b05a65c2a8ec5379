//===- transform/Transforms.h - Mid-end optimization transforms -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mid-end: optimization transforms built on the cached dominator
/// and loop analyses, beyond the purely local cleanup in opt/. The
/// paper partitions "after all the initial machine-independent
/// optimizations are complete"; unrolling and inlining in particular
/// reshape RDG connected components and load/store slices, so these
/// transforms are the lever for evaluating the partitioner on
/// realistically optimized code instead of naive input.
///
///  * GVN      dominator-ordered value numbering: subsumes the local
///             CSE within extended regions (a block inherits the value
///             table of its unique predecessor).
///  * LICM     hoists loop-invariant pure instructions into loop
///             preheaders.
///  * Unroll   fully unrolls counted single-block self-loops whose
///             trip count is provable by forward simulation, under a
///             size budget; optionally partial-unrolls by a factor.
///  * Inline   bottom-up inlining over the acyclic part of the call
///             graph, under caller/callee size budgets.
///
/// Every transform preserves VM-observable behaviour exactly (outputs,
/// traps, trip counts); the differential oracle checks each one
/// against the unpartitioned VM. The pipeline-facing passes ("gvn",
/// "licm", "unroll", "unroll<N>", "inline", and the "opt2" preset) are
/// rows of the pass table in core/PassManager.cpp; this library stays independent
/// of core so tests can drive transforms directly.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TRANSFORM_TRANSFORMS_H
#define FPINT_TRANSFORM_TRANSFORMS_H

#include "sir/IR.h"

#include <cstdint>

namespace fpint {
namespace analysis {
class AnalysisManager;
}
namespace transform {

/// Global value numbering over dominator-tree extended regions.
/// Candidate/kill rules match opt::eliminateCommonSubexpressions; the
/// extension is that a block with a unique CFG predecessor inherits
/// that predecessor's value table (sound without SSA: the unique
/// predecessor is the immediate dominator and its kills were applied
/// in execution order). Returns redundant instructions replaced by
/// moves. Requires a renumbered function; mutates instructions in
/// place (no structural change).
unsigned runGVN(sir::Function &F, analysis::AnalysisManager &AM);

/// Loop-invariant code motion. Hoists a pure non-memory instruction
/// out of a natural loop into the loop's preheader when (a) every
/// operand has no definition inside the loop, (b) the instruction is
/// its destination's only definition inside the loop, (c) the
/// destination is not live into the loop header (so partially-executed
/// or bypassed iterations cannot observe the hoisted value early), and
/// (d) the defining block dominates every exiting block (the
/// instruction executed on every completed trip anyway). Loads and
/// stores are never moved. Returns instructions hoisted; renumbers the
/// function when it changes anything.
unsigned runLICM(sir::Function &F, analysis::AnalysisManager &AM);

struct UnrollOptions {
  /// Partial-unroll factor; 0 means full-unroll only ("unroll"), N>=2
  /// is the "unroll<N>" pipeline spelling (full unroll is still
  /// attempted first where the trip count is provable).
  unsigned Factor = 0;
  /// Full unroll refuses trip counts above this.
  unsigned MaxTripCount = 64;
  /// ... and refuses bodies whose unrolled size exceeds this.
  unsigned MaxUnrolledInstrs = 256;
};

struct UnrollResult {
  unsigned FullyUnrolled = 0;
  unsigned PartiallyUnrolled = 0;
  /// Net instructions added (negative when a short full unroll shrinks
  /// the program).
  int64_t InstrsAdded = 0;
};

/// Unrolls single-block self-loops (a block whose conditional branch
/// targets itself). Full unroll simulates the loop forward from
/// provably-known entry values (constants established on the dominator
/// chain into the loop, plus the zero-initialized-register
/// convention) and replaces the loop with its exact trip-count
/// expansion; partial unroll replicates the body Factor times with
/// exit trampolines, preserving the trip count for any entry values.
/// Renumbers the function when it changes anything.
UnrollResult runUnroll(sir::Function &F, analysis::AnalysisManager &AM,
                       const UnrollOptions &Opts = UnrollOptions());

struct InlineOptions {
  /// Callees larger than this are never inlined.
  unsigned MaxCalleeInstrs = 48;
  /// A caller is not grown beyond this many instructions.
  unsigned MaxCallerInstrs = 512;
};

struct InlineResult {
  unsigned CallsInlined = 0;
  unsigned SkippedRecursive = 0;
  unsigned SkippedBudget = 0;
};

/// Bottom-up inlining: callees are processed before callers (so a
/// flattened callee body is what gets cloned), call sites are
/// collected before any mutation (newly exposed calls wait for the
/// next pipeline run -- guarantees termination), and any callee on a
/// call-graph cycle (including self-recursion) is refused. Callees
/// that touch their stack frame are skipped (frames are
/// per-activation). Renumbers the module when it changes anything.
InlineResult runInline(sir::Module &M,
                       const InlineOptions &Opts = InlineOptions());

/// Aggregate mid-end telemetry carried on the pipeline run, one field
/// per pass counter (see docs/TRANSFORMS.md).
struct MidEndReport {
  unsigned GvnReplaced = 0;
  unsigned LicmHoisted = 0;
  unsigned LoopsFullyUnrolled = 0;
  unsigned LoopsPartiallyUnrolled = 0;
  int64_t UnrollInstrsAdded = 0;
  unsigned CallsInlined = 0;
  unsigned InlineSkippedRecursive = 0;
  unsigned InlineSkippedBudget = 0;

  unsigned total() const {
    return GvnReplaced + LicmHoisted + LoopsFullyUnrolled +
           LoopsPartiallyUnrolled + CallsInlined;
  }
};

} // namespace transform
} // namespace fpint

#endif // FPINT_TRANSFORM_TRANSFORMS_H
