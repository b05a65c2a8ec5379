//===- core/PassManager.h - Pass-manager compilation pipeline -------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile side of core::compileAndMeasure as a sequence of named
/// passes driven by a PassManager:
///
///   opt, profile, partition, fp-arg-passing, regalloc
///
/// A pass is a value: a name and a function that runs it over a module
/// and returns its change count. Every built-in pass sits in one name
/// table, so the pipeline is configurable as *pipeline text*: a
/// comma-separated pass list with a fixpoint(...) combinator, parsed by
/// parsePipeline(). The default text reproduces the historical
/// hard-coded flow exactly -- each built-in pass internally honors the
/// PipelineConfig gates (RunOptimizations, Scheme, EnableFpArgPassing,
/// RunRegisterAllocation), so one text is byte-identical to the legacy
/// pipeline for every configuration.
///
/// The manager owns the observability at pass boundaries:
///
///  * per-pass wall-clock, change counts, and analysis cache
///    hit/miss/invalidation deltas (PassStat, flowing into
///    stats::Report and bench_out JSON);
///  * FPINT_VERIFY_EACH_PASS=1 verifies the module after every pass
///    and attributes the first broken invariant to the pass that
///    broke it;
///  * FPINT_PRINT_AFTER=<pass> dumps the module (sir::Printer) to
///    stderr after the named pass.
///
/// Analyses (CFG / ReachingDefs / RDG / Liveness / block weights) are
/// cached in an analysis::AnalysisManager across passes. One rule
/// decides invalidation at every boundary: a pass that reports no
/// change keeps every cached analysis, any change calls
/// AM.invalidate().
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CORE_PASSMANAGER_H
#define FPINT_CORE_PASSMANAGER_H

#include "analysis/AnalysisManager.h"
#include "core/Pipeline.h"
#include "sir/IR.h"
#include "vm/VM.h"

#include <functional>
#include <string>
#include <vector>

namespace fpint {
namespace core {

/// Mutable state threaded through one compile pipeline: the config the
/// gated passes consult, the training profile, and every per-stage
/// report that ends up on the PipelineRun.
struct PassState {
  const PipelineConfig *Config = nullptr;

  /// Training profile collected by the "profile" pass. HaveProfile
  /// distinguishes "no profile pass ran" (partitioning falls back to
  /// static estimates) from an empty profile.
  vm::Profile Profile;
  bool HaveProfile = false;

  opt::OptReport Opt;
  transform::MidEndReport Transform;
  partition::ModuleRewrite Rewrite;
  partition::FpArgReport FpArgs;
  regalloc::ModuleAlloc Alloc;
  /// The scheme the most recent partition pass actually invoked (None
  /// until one runs). fp-arg-passing gates on this rather than on
  /// Config.Scheme so explicit "partition-advanced" pipelines compose.
  partition::Scheme RanScheme = partition::Scheme::None;

  std::vector<std::string> Errors;
  /// A pass declared the pipeline unrecoverable (training run failed,
  /// or verify-each-pass found corruption): remaining passes are
  /// skipped and compileAndMeasure returns early, matching the legacy
  /// control flow.
  bool Fatal = false;
};

/// One transformation (or diagnostic) stage over a module.
struct Pass {
  /// Runs over the module and returns the number of IR changes made
  /// (0 for analysis-only passes); diagnostics and reports go to the
  /// PassState.
  using RunFn = std::function<unsigned(
      sir::Module &, analysis::AnalysisManager &, PassState &)>;

  /// Stable name; for combinators this is the full round-trip text
  /// (e.g. "fixpoint(copy-prop,dce)").
  std::string Name;
  RunFn Run;
};

/// A fixpoint(...) repeats its body until a full iteration makes no
/// changes, or this many iterations have run.
constexpr unsigned MaxFixpointIterations = 8;

/// The deepest fixpoint(...) nesting pipeline text may use, and the
/// most passes it may build (counting each fixpoint and each pass an
/// opt2 expands to); beyond either, the text is a parse error.
constexpr unsigned MaxPipelineNesting = 16;
constexpr unsigned MaxPipelinePasses = 1024;

/// Adds \p P to the name table parsePipeline resolves against,
/// replacing any pass of the same name. The built-in passes are:
///
///   opt             gated fixpoint optimizer (opt::optimizeModule)
///   copy-prop, const-fold, cse, dce
///                   the individual optimizations, ungated
///   gvn, licm, unroll, inline
///                   the mid-end transforms (gated)
///   profile         training-input profiling run (fatal on failure)
///   partition       Config.Scheme-dispatched partitioner (gated)
///   partition-basic, partition-advanced
///                   explicit scheme selection, ignoring Config.Scheme
///   fp-arg-passing  Section 6.6 extension (gated)
///   regalloc        register allocation, backend selected by
///                   Config.RegAllocator (gated)
///   regalloc-linear register allocation with the Poletto-Sarkar
///                   linear-scan backend, ignoring Config.RegAllocator
///   verify          structural verification as a pipeline stage
void registerPass(Pass P);

/// Parses pipeline text -- comma-separated pass names with optional
/// whitespace, the fixpoint(...) combinator, the opt2 preset and
/// unroll<N>, e.g.
///
///   "opt, profile, partition, regalloc"
///   "fixpoint(copy-prop,const-fold,cse,dce),profile,partition-basic"
///
/// in one left-to-right scan, appending the passes to \p Out. Returns
/// false and sets \p Error (mentioning the offending token) on
/// malformed text, an unknown pass name, or text past
/// MaxPipelineNesting or MaxPipelinePasses.
bool parsePipeline(const std::string &Text, std::vector<Pass> &Out,
                   std::string &Error);

/// The pipeline text equivalent to the historical hard-coded compile
/// flow (each stage self-gates on PipelineConfig, so this one text is
/// correct for every configuration).
const char *defaultPipelineText();

/// The "opt2" preset: the local optimizer plus the full mid-end (GVN,
/// LICM, unroll, inline) and a second local cleanup, ahead of the
/// default back half. The token "opt2" in pipeline text expands to
/// this; "unroll<N>" selects a partial-unroll factor for the unroll
/// pass anywhere in pipeline text.
const char *opt2PipelineText();

/// The text compileAndMeasure will run for \p Config:
/// Config.Passes if set, else $FPINT_PASSES if set, else the default.
std::string effectivePipelineText(const PipelineConfig &Config);

/// Drives a pass sequence over a module with per-pass telemetry and
/// boundary invalidation.
class PassManager {
public:
  struct Options {
    /// Verify the module after every pass; the first failure is
    /// attributed to the pass and aborts the pipeline.
    bool VerifyEach = false;
    /// Dump the module to stderr after the named pass ("" = never).
    std::string PrintAfter;

    /// Reads FPINT_VERIFY_EACH_PASS / FPINT_PRINT_AFTER.
    static Options fromEnv();
  };

  PassManager() = default;
  explicit PassManager(Options Opts) : Opts(std::move(Opts)) {}

  /// Parses \p Text into this manager. Existing passes are kept (text
  /// appends). Returns false and sets \p Error on a parse failure.
  bool parse(const std::string &Text, std::string &Error) {
    return parsePipeline(Text, Passes, Error);
  }

  /// Round-trip text of the current sequence.
  std::string text() const;

  /// Runs every pass in order. After each pass: snapshots telemetry,
  /// invalidates the cached analyses if it changed anything, honors
  /// VerifyEach / PrintAfter, and stops early when State.Fatal is set.
  /// Returns one PassStat per executed pass.
  std::vector<PassStat> run(sir::Module &M, analysis::AnalysisManager &AM,
                            PassState &State);

private:
  Options Opts;
  std::vector<Pass> Passes;
};

} // namespace core
} // namespace fpint

#endif // FPINT_CORE_PASSMANAGER_H
