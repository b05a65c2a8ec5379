//===- core/PassManager.h - Pass-manager compilation pipeline -------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A unified pass framework over sir modules, in the shape LLVM-family
/// compilers use. The compile side of core::compileAndMeasure is
/// expressed as a sequence of named ModulePasses driven by a
/// PassManager:
///
///   opt, profile, partition, fp-arg-passing, regalloc
///
/// Every registered stage is available by name (PassRegistry), so the
/// pipeline is configurable as *pipeline text*: a comma-separated pass
/// list with a fixpoint(...) combinator, parsed by parsePipeline().
/// The default text reproduces the historical hard-coded flow exactly
/// -- each built-in pass internally honors the PipelineConfig gates
/// (RunOptimizations, Scheme, EnableFpArgPassing,
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
/// cached in an analysis::AnalysisManager across passes; each pass
/// reports a PreservedAnalyses set and the manager invalidates
/// everything else at the boundary.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CORE_PASSMANAGER_H
#define FPINT_CORE_PASSMANAGER_H

#include "analysis/AnalysisManager.h"
#include "core/Pipeline.h"
#include "sir/IR.h"
#include "vm/VM.h"

#include <functional>
#include <map>
#include <memory>
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
class ModulePass {
public:
  virtual ~ModulePass() = default;

  /// Stable name; for combinators this is the full round-trip text
  /// (e.g. "fixpoint(copy-prop,dce)").
  virtual std::string name() const = 0;

  /// Runs over \p M. Returns the number of IR changes made (0 for
  /// analysis-only passes); diagnostics and reports go to \p State.
  virtual unsigned run(sir::Module &M, analysis::AnalysisManager &AM,
                       PassState &State) = 0;

  /// Analyses left valid by the most recent run(). The default is the
  /// safe claim for a transformation; passes that only read the module
  /// override to all(). Queried by the PassManager immediately after
  /// run().
  virtual analysis::PreservedAnalyses preserved() const {
    return analysis::PreservedAnalyses::none();
  }
};

/// One transformation over a single function, lifted to a ModulePass by
/// FunctionPassAdaptor.
class FunctionPass {
public:
  virtual ~FunctionPass() = default;
  virtual std::string name() const = 0;
  /// Returns the number of changes made to \p F.
  virtual unsigned runOnFunction(sir::Function &F,
                                 analysis::AnalysisManager &AM) = 0;
};

/// Runs a FunctionPass over every function, invalidating each mutated
/// function's cached analyses and renumbering the module if anything
/// changed (downstream stages require renumbered IR).
class FunctionPassAdaptor : public ModulePass {
public:
  explicit FunctionPassAdaptor(std::unique_ptr<FunctionPass> FP)
      : FP(std::move(FP)) {}

  std::string name() const override { return FP->name(); }
  unsigned run(sir::Module &M, analysis::AnalysisManager &AM,
               PassState &State) override;
  analysis::PreservedAnalyses preserved() const override {
    return Mutated ? analysis::PreservedAnalyses::none()
                   : analysis::PreservedAnalyses::all();
  }

private:
  std::unique_ptr<FunctionPass> FP;
  bool Mutated = false;
};

/// Repeats a sub-pipeline until a full iteration makes no changes, or
/// the iteration cap cuts it off. Round-trips as
/// "fixpoint(a,b,...)". Convergence telemetry (iterations run, whether
/// the cap was hit) is folded into the pass's PassStat.
class FixpointPass : public ModulePass {
public:
  static constexpr unsigned MaxIterations = 8;

  explicit FixpointPass(std::vector<std::unique_ptr<ModulePass>> Passes)
      : Passes(std::move(Passes)) {}

  std::string name() const override;
  unsigned run(sir::Module &M, analysis::AnalysisManager &AM,
               PassState &State) override;
  analysis::PreservedAnalyses preserved() const override {
    return Mutated ? analysis::PreservedAnalyses::none()
                   : analysis::PreservedAnalyses::all();
  }

  unsigned iterations() const { return Iterations; }
  bool converged() const { return Converged; }

private:
  std::vector<std::unique_ptr<ModulePass>> Passes;
  unsigned Iterations = 0;
  bool Converged = true;
  bool Mutated = false;
};

/// Name -> factory map of every available pass. The global() registry
/// is pre-populated with the built-in stages:
///
///   opt             gated fixpoint optimizer (opt::optimizeModule)
///   copy-prop, const-fold, cse, dce
///                   the individual optimizations, ungated
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
///
/// Tests may registerPass() additional names; re-registering a name
/// replaces the factory (latest wins).
class PassRegistry {
public:
  using Factory = std::function<std::unique_ptr<ModulePass>()>;

  static PassRegistry &global();

  void registerPass(const std::string &Name, Factory F);
  /// Null if \p Name is unknown.
  std::unique_ptr<ModulePass> create(const std::string &Name) const;
  bool contains(const std::string &Name) const;
  std::vector<std::string> names() const;

private:
  std::map<std::string, Factory> Factories;
};

/// Parses pipeline text -- comma-separated registered pass names with
/// optional whitespace and the fixpoint(...) combinator, e.g.
///
///   "opt, profile, partition, regalloc"
///   "fixpoint(copy-prop,const-fold,cse,dce),profile,partition-basic"
///
/// into pass instances from \p Registry. Returns false and sets
/// \p Error (mentioning the offending token) on malformed text or an
/// unknown pass name.
bool parsePipeline(const std::string &Text,
                   std::vector<std::unique_ptr<ModulePass>> &Out,
                   std::string &Error,
                   const PassRegistry &Registry = PassRegistry::global());

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

  void add(std::unique_ptr<ModulePass> P) { Passes.push_back(std::move(P)); }
  /// Parses \p Text into this manager. Existing passes are kept (text
  /// appends). Returns false and sets \p Error on a parse failure.
  bool parse(const std::string &Text, std::string &Error,
             const PassRegistry &Registry = PassRegistry::global());

  /// Round-trip text of the current sequence.
  std::string text() const;

  /// Runs every pass in order. After each pass: snapshots telemetry,
  /// invalidates non-preserved analyses, honors VerifyEach /
  /// PrintAfter, and stops early when State.Fatal is set. Returns one
  /// PassStat per executed pass.
  std::vector<PassStat> run(sir::Module &M, analysis::AnalysisManager &AM,
                            PassState &State);

private:
  Options Opts;
  std::vector<std::unique_ptr<ModulePass>> Passes;
};

} // namespace core
} // namespace fpint

#endif // FPINT_CORE_PASSMANAGER_H
