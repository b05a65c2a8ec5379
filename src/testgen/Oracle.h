//===- testgen/Oracle.h - Differential partition-equivalence oracle -------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-checkable form of the paper's core claim: partitioning is
/// semantics-preserving. Given a module, the oracle runs the original
/// through the functional VM and then pushes the module through every
/// configured pipeline variant (conventional, basic, advanced, advanced
/// with FP argument passing, ...), comparing for each variant:
///
///  * the output stream (every `out` value, in order);
///  * main's exit value;
///  * the final memory image of the globals region;
///  * dynamic accounting: partition::computeDynStats totals must agree
///    with the instruction-level trace (total, FPa share, native FP,
///    loads, stores);
///  * timing cross-check: timing::Simulator must retire exactly the
///    traced instruction count, and its per-subsystem issue counters
///    must match the partition bits in the trace.
///
/// A hook (CompiledMutator) lets tests and the acceptance gate inject a
/// deliberate miscompile into the compiled module and confirm the
/// oracle catches it.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TESTGEN_ORACLE_H
#define FPINT_TESTGEN_ORACLE_H

#include "core/Pipeline.h"
#include "sir/IR.h"
#include "support/Subprocess.h"
#include "timing/MachineConfig.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace fpint {
namespace testgen {

/// One named pipeline configuration to check against the original.
struct VariantSpec {
  std::string Name;
  core::PipelineConfig Config;
};

/// The standard variant battery: conventional, basic, advanced,
/// advanced+fpargs, and basic/advanced without the pre-partitioning
/// optimizer.
std::vector<VariantSpec> defaultVariants();

/// The mid-end variant battery: each new transform pass alone on top of
/// the default flow (gvn, licm, unroll, unroll<4>, inline) plus the
/// full "opt2" preset pipeline, all under the advanced scheme with
/// register allocation and FP argument passing. Append these to
/// OracleOptions::Variants to differentially test the mid-end.
std::vector<VariantSpec> midendVariants();

/// The register-allocator variant battery: each registered allocator
/// backend (incumbent "regalloc" and the Poletto-Sarkar
/// "regalloc-linear") under the none/basic/advanced schemes, with the
/// optimizer on and FP argument passing under advanced. Append these to
/// OracleOptions::Variants to differentially race the allocators.
std::vector<VariantSpec> regallocVariants();

struct OracleOptions {
  std::vector<VariantSpec> Variants = defaultVariants();
  std::vector<int32_t> Args;      ///< main() arguments (train == ref).
  bool CheckTiming = true;        ///< Run the simulator cross-checks.
  timing::MachineConfig Machine;  ///< Machine for the timing cross-check.
  /// Test hook: applied to each variant's compiled module before the
  /// equivalence checks, simulating a compiler bug. Must not add or
  /// remove virtual registers (the regalloc map is reused).
  std::function<void(sir::Module &)> CompiledMutator;
  /// Progress breadcrumbs ("baseline", then each variant name) emitted
  /// just before the corresponding work starts. Sandboxed drivers use
  /// this to attribute crashes and hangs to a pipeline stage.
  std::function<void(const std::string &Stage)> Progress;
};

struct OracleReport {
  /// True when the baseline run hit a resource limit (step budget,
  /// stack depth, ...). Not a correctness verdict; fuzzers should
  /// skip the module.
  bool BaselineSkipped = false;
  std::string BaselineError;
  /// Deterministic trap of the baseline run (TrapKind::None when it
  /// ran to completion). When set, the oracle switches to
  /// trap-equivalence mode: every variant must trap with the same
  /// kind after producing the same output prefix and memory image.
  vm::TrapKind BaselineTrap = vm::TrapKind::None;
  /// One message per detected divergence, prefixed "[variant] ".
  std::vector<std::string> Mismatches;
  uint64_t BaselineDynInstrs = 0;

  bool ok() const { return !BaselineSkipped && Mismatches.empty(); }
};

/// Runs the full differential check of \p M under \p Opts.
OracleReport runOracle(const sir::Module &M,
                       const OracleOptions &Opts = OracleOptions());

/// How one fpint-fuzz iteration's checker runs by default: forked, no
/// retries, no fault site (the oracle fires its own "oracle").
inline constexpr support::Supervised::Policy FuzzPolicy = {
    .Limits = {.WallMs = 10000, .KillGraceMs = 300, .AddressSpaceMb = 4096}};

/// FuzzPolicy with the FPINT_SANDBOX_* overrides applied, then the
/// --timeout-ms flag (\p TimeoutMs) when given: flags beat the
/// environment.
inline support::Supervised::Policy fuzzPolicy(std::optional<int> TimeoutMs) {
  support::Supervised::Policy P = FuzzPolicy.withEnv();
  if (TimeoutMs)
    P.Limits.WallMs = *TimeoutMs;
  return P;
}

} // namespace testgen
} // namespace fpint

#endif // FPINT_TESTGEN_ORACLE_H
