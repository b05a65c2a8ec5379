//===- core/PassManager.cpp - Pass-manager compilation pipeline -----------===//

#include "core/PassManager.h"

#include "opt/Passes.h"
#include "regalloc/Allocator.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "transform/Transforms.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

using namespace fpint;
using namespace fpint::core;

namespace {

/// Gated built-in passes consult the pipeline configuration; a null
/// State.Config (library callers driving a PassManager directly) means
/// default gates.
const PipelineConfig &configOf(const PassState &State) {
  static const PipelineConfig Defaults;
  return State.Config ? *State.Config : Defaults;
}

/// Runs \p P and applies the one invalidation rule: a pass that made no
/// change leaves every cached analysis valid (renumber() is idempotent
/// on an unmutated module), any change drops them all.
unsigned runAndInvalidate(const Pass &P, sir::Module &M,
                          analysis::AnalysisManager &AM, PassState &State) {
  unsigned Changes = P.Run(M, AM, State);
  if (Changes)
    AM.invalidate();
  return Changes;
}

//===----------------------------------------------------------------------===//
// Built-in passes.
//===----------------------------------------------------------------------===//

/// Runs \p Fn over every function, invalidating each mutated function's
/// cached analyses, and renumbers the module if anything changed
/// (downstream stages require renumbered IR; renumbering an unmutated
/// function is id-stable, so cached analyses of untouched functions
/// survive it).
template <typename FnT>
unsigned eachFunction(sir::Module &M, analysis::AnalysisManager &AM,
                      FnT Fn) {
  unsigned Total = 0;
  for (const auto &F : M.functions()) {
    unsigned Changes = Fn(*F);
    if (Changes)
      AM.invalidateFunction(*F);
    Total += Changes;
  }
  if (Total)
    M.renumber();
  return Total;
}

/// One individual optimization, ungated.
Pass singleOpt(const char *Name, unsigned (*Fn)(sir::Function &)) {
  return {Name, [Fn](sir::Module &M, analysis::AnalysisManager &AM,
                     PassState &) { return eachFunction(M, AM, Fn); }};
}

/// The legacy step 0: machine-independent cleanup to a (capped)
/// fixpoint, gated on RunOptimizations.
unsigned runOpt(sir::Module &M, analysis::AnalysisManager &,
                PassState &State) {
  if (!configOf(State).RunOptimizations)
    return 0;
  State.Opt = opt::optimizeModule(M);
  return State.Opt.total();
}

/// The legacy step 1: profile the (not yet partitioned) module on the
/// training input. A non-deterministic failure is fatal -- there is
/// nothing meaningful to compile against; a deterministic trap leaves
/// a valid prefix profile (the compiled program must reproduce the
/// trap, which compileAndMeasure checks).
unsigned runProfile(sir::Module &M, analysis::AnalysisManager &,
                    PassState &State) {
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Trainer(M, Opts);
  auto Result = Trainer.run(configOf(State).TrainArgs);
  if (!Result.Ok && !vm::isDeterministicTrap(Result.Trap.Kind)) {
    State.Errors.push_back("training run failed: " + Result.Error);
    State.Fatal = true;
    return 0;
  }
  State.Profile = Trainer.profile();
  State.HaveProfile = true;
  return 0;
}

/// The legacy step 2: partitioning with scheme \p S ("partition" passes
/// Config.Scheme, where None is a no-op; "partition-basic" and
/// "partition-advanced" force a scheme). The basic scheme mutates
/// without inserting instructions (it only flips FPa bits), so the
/// change count adds rewritten functions to the inserted copy / dup
/// traffic. The partitioner assumes conventional, unallocated code, so
/// partitioning a module twice or after register allocation is a
/// fatal compile error.
unsigned runPartition(partition::Scheme S, sir::Module &M,
                      analysis::AnalysisManager &AM, PassState &State) {
  if (S != partition::Scheme::None &&
      (State.RanScheme != partition::Scheme::None ||
       !State.Alloc.AllocatorName.empty())) {
    State.Errors.push_back(
        std::string("partition: module is already ") +
        (State.RanScheme != partition::Scheme::None ? "partitioned"
                                                    : "register-allocated"));
    State.Fatal = true;
    return 0;
  }
  State.Rewrite = partition::partitionModule(
      M, S, State.HaveProfile ? &State.Profile : nullptr,
      configOf(State).Costs, AM);
  State.RanScheme = S;
  for (const std::string &E : State.Rewrite.Errors)
    State.Errors.push_back("partition: " + E);
  return static_cast<unsigned>(State.Rewrite.Reports.size()) +
         State.Rewrite.StaticCopies + State.Rewrite.StaticDups +
         State.Rewrite.StaticCopyBacks;
}

Pass partitionWith(const char *Name, partition::Scheme S) {
  return {Name, [S](sir::Module &M, analysis::AnalysisManager &AM,
                    PassState &State) {
            return runPartition(S, M, AM, State);
          }};
}

/// The legacy step 2b: Section 6.6 interprocedural extension, gated on
/// EnableFpArgPassing and on the advanced scheme actually having run
/// (its rewrite report is what identifies the removable copies).
unsigned runFpArgPassing(sir::Module &M, analysis::AnalysisManager &,
                         PassState &State) {
  if (!configOf(State).EnableFpArgPassing ||
      State.RanScheme != partition::Scheme::Advanced)
    return 0;
  State.FpArgs = partition::passArgsInFpRegisters(M, State.Rewrite);
  return State.FpArgs.ArgsConverted + State.FpArgs.EntryCopiesRemoved +
         State.FpArgs.CopyBacksRemoved;
}

/// The legacy step 3: register allocation, gated on
/// RunRegisterAllocation, with backend \p Forced ("" dispatches on
/// Config.RegAllocator). Calling-convention lowering rewrites every
/// function, so each allocated function counts as a change.
unsigned runRegAlloc(const std::string &Forced, sir::Module &M,
                     analysis::AnalysisManager &AM, PassState &State) {
  const PipelineConfig &Config = configOf(State);
  if (!Config.RunRegisterAllocation)
    return 0;
  State.Alloc = regalloc::allocateModuleWith(
      Forced.empty() ? Config.RegAllocator : Forced, M, AM);
  for (const std::string &E : State.Alloc.Errors)
    State.Errors.push_back("regalloc: " + E);
  unsigned Changes = static_cast<unsigned>(State.Alloc.Funcs.size());
  for (const auto &KV : State.Alloc.Funcs)
    Changes += KV.second.SpillCode;
  return Changes;
}

Pass regallocWith(const char *Name, const char *Forced) {
  return {Name, [Forced](sir::Module &M, analysis::AnalysisManager &AM,
                         PassState &State) {
            return runRegAlloc(Forced, M, AM, State);
          }};
}

//===----------------------------------------------------------------------===//
// Mid-end transform passes (src/transform). All gate on
// RunOptimizations like "opt", so the -noopt oracle variants and the
// default pipeline are unaffected by their presence.
//===----------------------------------------------------------------------===//

/// Dominator-ordered global value numbering.
unsigned runGvn(sir::Module &M, analysis::AnalysisManager &AM,
                PassState &State) {
  if (!configOf(State).RunOptimizations)
    return 0;
  unsigned Changes = eachFunction(
      M, AM, [&AM](sir::Function &F) { return transform::runGVN(F, AM); });
  State.Transform.GvnReplaced += Changes;
  return Changes;
}

/// Loop-invariant code motion into preheaders.
unsigned runLicm(sir::Module &M, analysis::AnalysisManager &AM,
                 PassState &State) {
  if (!configOf(State).RunOptimizations)
    return 0;
  unsigned Changes = 0;
  for (const auto &F : M.functions())
    Changes += transform::runLICM(*F, AM);
  if (Changes)
    M.renumber();
  State.Transform.LicmHoisted += Changes;
  return Changes;
}

/// Loop unrolling; Factor 0 is full-unroll only ("unroll"), Factor N
/// is the "unroll<N>" spelling with partial unrolling by N.
Pass unrollBy(unsigned Factor) {
  std::string Name =
      Factor ? "unroll<" + std::to_string(Factor) + ">" : "unroll";
  return {std::move(Name), [Factor](sir::Module &M,
                                    analysis::AnalysisManager &AM,
                                    PassState &State) {
            if (!configOf(State).RunOptimizations)
              return 0u;
            transform::UnrollOptions Opts;
            Opts.Factor = Factor;
            unsigned Changes = 0;
            for (const auto &F : M.functions()) {
              transform::UnrollResult R = transform::runUnroll(*F, AM, Opts);
              State.Transform.LoopsFullyUnrolled += R.FullyUnrolled;
              State.Transform.LoopsPartiallyUnrolled += R.PartiallyUnrolled;
              State.Transform.UnrollInstrsAdded += R.InstrsAdded;
              Changes += R.FullyUnrolled + R.PartiallyUnrolled;
            }
            if (Changes)
              M.renumber();
            return Changes;
          }};
}

/// Bottom-up acyclic call-graph inlining.
unsigned runInline(sir::Module &M, analysis::AnalysisManager &,
                   PassState &State) {
  if (!configOf(State).RunOptimizations)
    return 0;
  transform::InlineResult R = transform::runInline(M);
  State.Transform.CallsInlined += R.CallsInlined;
  State.Transform.InlineSkippedRecursive += R.SkippedRecursive;
  State.Transform.InlineSkippedBudget += R.SkippedBudget;
  return R.CallsInlined;
}

/// Structural verification as an explicit pipeline stage (the final
/// compileAndMeasure verify is separate and unconditional).
unsigned runVerify(sir::Module &M, analysis::AnalysisManager &,
                   PassState &State) {
  for (const std::string &E : sir::verify(M))
    State.Errors.push_back("verify: " + E);
  return 0;
}

/// Repeats \p Body until a full iteration makes no changes, or
/// MaxFixpointIterations cut it off. Inner boundaries invalidate like
/// outer ones; the per-pass telemetry row covers the whole fixpoint.
Pass fixpoint(std::vector<Pass> Body) {
  std::string Name = "fixpoint(";
  for (size_t I = 0; I < Body.size(); ++I) {
    if (I)
      Name += ',';
    Name += Body[I].Name;
  }
  Name += ')';
  return {std::move(Name), [Body = std::move(Body)](
                               sir::Module &M, analysis::AnalysisManager &AM,
                               PassState &State) {
            unsigned Total = 0;
            for (unsigned Round = 0; Round < MaxFixpointIterations; ++Round) {
              unsigned RoundChanges = 0;
              for (const Pass &P : Body) {
                RoundChanges += runAndInvalidate(P, M, AM, State);
                if (State.Fatal)
                  return Total + RoundChanges;
              }
              Total += RoundChanges;
              if (!RoundChanges)
                break;
            }
            return Total;
          }};
}

std::map<std::string, Pass> &passTable() {
  static std::map<std::string, Pass> Table = [] {
    std::map<std::string, Pass> T;
    for (Pass &P : std::vector<Pass>{
             {"opt", runOpt},
             singleOpt("copy-prop", opt::propagateCopies),
             singleOpt("const-fold", opt::foldConstants),
             singleOpt("cse", opt::eliminateCommonSubexpressions),
             singleOpt("dce", opt::eliminateDeadCode),
             {"gvn", runGvn},
             {"licm", runLicm},
             unrollBy(0),
             {"inline", runInline},
             {"profile", runProfile},
             {"partition",
              [](sir::Module &M, analysis::AnalysisManager &AM,
                 PassState &State) {
                return runPartition(configOf(State).Scheme, M, AM, State);
              }},
             partitionWith("partition-basic", partition::Scheme::Basic),
             partitionWith("partition-advanced",
                           partition::Scheme::Advanced),
             {"fp-arg-passing", runFpArgPassing},
             regallocWith("regalloc", ""),
             regallocWith("regalloc-linear", "regalloc-linear"),
             {"verify", runVerify},
         })
      T[P.Name] = std::move(P);
    return T;
  }();
  return Table;
}

//===----------------------------------------------------------------------===//
// Pipeline text.
//===----------------------------------------------------------------------===//

bool isSpace(char C) { return C == ' ' || C == '\t' || C == '\n' || C == '\r'; }

std::string trim(const std::string &S, size_t B, size_t E) {
  while (B < E && isSpace(S[B]))
    ++B;
  while (E > B && isSpace(S[E - 1]))
    --E;
  return S.substr(B, E - B);
}

/// Resolves one complete pass token and appends the pass(es) it names.
bool appendPass(const std::string &Tok, std::vector<Pass> &Out,
                std::string &Error) {
  if (Tok == "opt2")
    // Preset: expands in place, so "--passes=opt2" works everywhere
    // plain pipeline text does.
    return parsePipeline(opt2PipelineText(), Out, Error);
  const std::string UnrollHead = "unroll<";
  if (Tok.rfind(UnrollHead, 0) == 0 && Tok.back() == '>') {
    const std::string Num =
        Tok.substr(UnrollHead.size(), Tok.size() - UnrollHead.size() - 1);
    unsigned Factor = 0;
    bool Valid = !Num.empty() && Num.size() <= 2;
    for (char C : Num) {
      if (C < '0' || C > '9') {
        Valid = false;
        break;
      }
      Factor = Factor * 10 + static_cast<unsigned>(C - '0');
    }
    if (!Valid || Factor < 2 || Factor > 16) {
      Error = "invalid unroll factor in '" + Tok + "' (want unroll<2..16>)";
      return false;
    }
    Out.push_back(unrollBy(Factor));
    return true;
  }
  auto It = passTable().find(Tok);
  if (It == passTable().end()) {
    Error = "unknown pass '" + Tok + "'";
    return false;
  }
  Out.push_back(It->second);
  return true;
}

} // namespace

void core::registerPass(Pass P) { passTable()[P.Name] = std::move(P); }

bool core::parsePipeline(const std::string &Text, std::vector<Pass> &Out,
                         std::string &Error) {
  const size_t N = Text.size();
  if (trim(Text, 0, N).empty()) {
    Error = "empty pipeline text";
    return false;
  }
  // The bodies of the open fixpoint( combinators, innermost last, on
  // top of the top-level sequence. Every character is visited once.
  std::vector<std::vector<Pass>> Open(1);
  size_t Built = 0; // Passes and fixpoints so far, at every depth.
  size_t I = 0;
  for (;;) {
    // One element: a pass token, or the head of a fixpoint( body.
    const size_t B = I;
    while (I < N && Text[I] != ',' && Text[I] != '(' && Text[I] != ')')
      ++I;
    if (I < N && Text[I] == '(') {
      if (trim(Text, B, I) != "fixpoint" || isSpace(Text[I - 1])) {
        Error = "unknown combinator '" + trim(Text, B, I + 1) +
                "' (only fixpoint(...) nests)";
        return false;
      }
      if (Open.size() > MaxPipelineNesting) {
        Error = "pipeline text nests fixpoint( deeper than " +
                std::to_string(MaxPipelineNesting) + " levels";
        return false;
      }
      Open.emplace_back();
      ++I;
      continue;
    }
    const std::string Tok = trim(Text, B, I);
    if (Tok.empty()) {
      Error = "empty pass name in pipeline text";
      return false;
    }
    const size_t Before = Open.back().size();
    if (!appendPass(Tok, Open.back(), Error))
      return false;
    Built += Open.back().size() - Before;
    // Close every body that ends here; only whitespace may follow a
    // ')' before the next ',' or ')'.
    while (I < N && Text[I] == ')') {
      if (Open.size() == 1) {
        Error = "unbalanced ')' in pipeline text";
        return false;
      }
      Pass P = fixpoint(std::move(Open.back()));
      Open.pop_back();
      Open.back().push_back(std::move(P));
      ++Built;
      ++I;
      while (I < N && isSpace(Text[I]))
        ++I;
      if (I < N && Text[I] != ',' && Text[I] != ')') {
        Error = std::string("unexpected '") + Text[I] +
                "' after ')' in pipeline text";
        return false;
      }
    }
    if (Built > MaxPipelinePasses) {
      Error = "pipeline text builds more than " +
              std::to_string(MaxPipelinePasses) + " passes";
      return false;
    }
    if (I == N)
      break;
    ++I; // The ',' before the next element.
  }
  if (Open.size() != 1) {
    Error = "unbalanced '(' in pipeline text";
    return false;
  }
  for (Pass &P : Open.front())
    Out.push_back(std::move(P));
  return true;
}

const char *core::defaultPipelineText() {
  return "opt,profile,partition,fp-arg-passing,regalloc";
}

const char *core::opt2PipelineText() {
  // The second "opt" cleans up what the mid-end exposes: inlined arg
  // moves copy-propagate away, unrolled counter updates fold, and GVN
  // moves feed DCE.
  return "opt,gvn,licm,unroll,inline,opt,profile,partition,fp-arg-passing,"
         "regalloc";
}

std::string core::effectivePipelineText(const PipelineConfig &Config) {
  if (!Config.Passes.empty())
    return Config.Passes;
  if (const char *Env = std::getenv("FPINT_PASSES"))
    if (*Env)
      return Env;
  return defaultPipelineText();
}

//===----------------------------------------------------------------------===//
// PassManager.
//===----------------------------------------------------------------------===//

PassManager::Options PassManager::Options::fromEnv() {
  Options Opts;
  if (const char *V = std::getenv("FPINT_VERIFY_EACH_PASS"))
    Opts.VerifyEach = *V && std::string(V) != "0";
  if (const char *P = std::getenv("FPINT_PRINT_AFTER"))
    Opts.PrintAfter = P;
  return Opts;
}

std::string PassManager::text() const {
  std::string Text;
  for (size_t I = 0; I < Passes.size(); ++I) {
    if (I)
      Text += ",";
    Text += Passes[I].Name;
  }
  return Text;
}

std::vector<PassStat> PassManager::run(sir::Module &M,
                                       analysis::AnalysisManager &AM,
                                       PassState &State) {
  std::vector<PassStat> Stats;
  for (const Pass &P : Passes) {
    if (State.Fatal)
      break;
    const analysis::AnalysisManager::Counters Before = AM.counters();
    const auto T0 = std::chrono::steady_clock::now();
    // The boundary invalidation runs inside the pass's accounting
    // window so the invalidation cost is attributed to the pass that
    // caused it.
    unsigned Changes = runAndInvalidate(P, M, AM, State);
    const auto T1 = std::chrono::steady_clock::now();
    const analysis::AnalysisManager::Counters After = AM.counters();

    PassStat S;
    S.Name = P.Name;
    S.WallMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
    S.Changes = Changes;
    S.AnalysisHits = After.Hits - Before.Hits;
    S.AnalysisMisses = After.Misses - Before.Misses;
    S.AnalysisInvalidations = After.Invalidations - Before.Invalidations;
    Stats.push_back(S);

    if (!Opts.PrintAfter.empty() && Opts.PrintAfter == S.Name)
      std::fprintf(stderr, "; module after pass '%s'\n%s", S.Name.c_str(),
                   sir::toString(M).c_str());

    if (State.Fatal)
      break;
    if (Opts.VerifyEach) {
      std::vector<std::string> Errs = sir::verify(M);
      if (!Errs.empty()) {
        State.Errors.push_back("verify after pass '" + S.Name +
                               "': " + Errs.front());
        State.Fatal = true;
        break;
      }
    }
  }
  return Stats;
}
