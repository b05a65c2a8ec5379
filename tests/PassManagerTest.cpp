//===- tests/PassManagerTest.cpp - Pass framework tests -------------------===//
//
// Covers the pass-manager pipeline: pipeline-text parsing and
// round-tripping, analysis-manager caching and invalidation, the
// production pipeline's per-pass analysis counters, pipeline misuse
// as a typed compile error, verify-each-pass attribution, the opt
// fixpoint cap telemetry, and -- most importantly -- that the default
// pipeline compiles byte-identical code to the historical hard-coded
// flow.

#include "core/PassManager.h"
#include "core/Pipeline.h"
#include "core/RunCache.h"
#include "opt/Passes.h"
#include "regalloc/Liveness.h"
#include "regalloc/RegAlloc.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace fpint;
using namespace fpint::core;

namespace {

std::unique_ptr<sir::Module> parse(const char *Src) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  return std::move(PR.M);
}

/// RAII environment variable setter.
struct ScopedEnv {
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() { unsetenv(Name); }
  const char *Name;
};

//===----------------------------------------------------------------------===//
// Pipeline text.
//===----------------------------------------------------------------------===//

TEST(PipelineText, DefaultRoundTrips) {
  PassManager PM;
  std::string Error;
  ASSERT_TRUE(PM.parse(defaultPipelineText(), Error)) << Error;
  EXPECT_EQ(PM.text(), defaultPipelineText());
}

TEST(PipelineText, WhitespaceAndFixpointRoundTrip) {
  PassManager PM;
  std::string Error;
  ASSERT_TRUE(PM.parse("  fixpoint( copy-prop ,dce ) , profile,  "
                       "partition-basic ",
                       Error))
      << Error;
  EXPECT_EQ(PM.text(), "fixpoint(copy-prop,dce),profile,partition-basic");

  // The round-tripped text parses back to the same shape.
  PassManager PM2;
  ASSERT_TRUE(PM2.parse(PM.text(), Error)) << Error;
  EXPECT_EQ(PM2.text(), PM.text());
}

TEST(PipelineText, RejectsUnknownAndMalformed) {
  std::vector<Pass> Out;
  std::string Error;
  EXPECT_FALSE(parsePipeline("opt,unheard-of-pass", Out, Error));
  EXPECT_NE(Error.find("unheard-of-pass"), std::string::npos) << Error;

  EXPECT_FALSE(parsePipeline("", Out, Error));
  EXPECT_FALSE(parsePipeline("opt,,dce", Out, Error));
  EXPECT_FALSE(parsePipeline("fixpoint(dce", Out, Error));
  EXPECT_FALSE(parsePipeline("dce)", Out, Error));
}

/// \p Depth fixpoint( levels around a single dce.
std::string nestedFixpoints(unsigned Depth) {
  std::string Text;
  for (unsigned I = 0; I < Depth; ++I)
    Text += "fixpoint(";
  Text += "dce";
  Text += std::string(Depth, ')');
  return Text;
}

TEST(PipelineText, NestingCapIsExact) {
  PassManager AtCap;
  std::string Error;
  const std::string Deepest = nestedFixpoints(MaxPipelineNesting);
  ASSERT_TRUE(AtCap.parse(Deepest, Error)) << Error;
  EXPECT_EQ(AtCap.text(), Deepest);

  PassManager Deeper;
  EXPECT_FALSE(Deeper.parse(nestedFixpoints(MaxPipelineNesting + 1), Error));
  EXPECT_NE(Error.find(std::to_string(MaxPipelineNesting)), std::string::npos)
      << Error;
}

TEST(PipelineText, PassCapIsExact) {
  // Each opt2 builds ten passes.
  std::string Text = "opt2";
  for (unsigned I = 1; I < MaxPipelinePasses / 10; ++I)
    Text += ",opt2";
  for (unsigned I = MaxPipelinePasses / 10 * 10; I < MaxPipelinePasses; ++I)
    Text += ",dce";
  PassManager AtCap;
  std::string Error;
  ASSERT_TRUE(AtCap.parse(Text, Error)) << Error;

  PassManager Over;
  EXPECT_FALSE(Over.parse(Text + ",dce", Error));
  EXPECT_NE(Error.find(std::to_string(MaxPipelinePasses)), std::string::npos)
      << Error;
  EXPECT_FALSE(Over.parse("fixpoint(" + Text + ")", Error));
}

TEST(PipelineText, EffectiveTextPrecedence) {
  PipelineConfig Config;
  EXPECT_EQ(effectivePipelineText(Config), defaultPipelineText());
  {
    ScopedEnv Env("FPINT_PASSES", "opt,profile,partition");
    EXPECT_EQ(effectivePipelineText(Config), "opt,profile,partition");
    Config.Passes = "profile,regalloc";
    EXPECT_EQ(effectivePipelineText(Config), "profile,regalloc");
  }
}

TEST(PipelineText, RunCacheKeyStableForDefault) {
  PipelineConfig Config;
  const std::string Legacy = RunCache::runKey("w", Config);
  // An empty override must not perturb historical keys (golden run ids
  // are derived from them); a real override must key separately.
  EXPECT_EQ(Legacy.find("opt,"), std::string::npos);
  Config.Passes = "profile,partition,regalloc";
  const std::string Custom = RunCache::runKey("w", Config);
  EXPECT_NE(Legacy, Custom);
  EXPECT_NE(Custom.find("profile,partition,regalloc"), std::string::npos);
}

TEST(PipelineText, RunCacheKeyFollowsEnvOverride) {
  PipelineConfig Config;
  const std::string Implicit = RunCache::runKey("w", Config);
  {
    // $FPINT_PASSES compiles different code, so it must not share the
    // implicit default's key.
    ScopedEnv Env("FPINT_PASSES", "opt,profile,regalloc");
    const std::string Override = RunCache::runKey("w", Config);
    EXPECT_NE(Override, Implicit);
    EXPECT_NE(Override.find("opt,profile,regalloc"), std::string::npos);
  }
  {
    // Naming the default text compiles the default pipeline.
    ScopedEnv Env("FPINT_PASSES", defaultPipelineText());
    EXPECT_EQ(RunCache::runKey("w", Config), Implicit);
  }
}

//===----------------------------------------------------------------------===//
// Analysis manager.
//===----------------------------------------------------------------------===//

TEST(AnalysisManagerTest, CachesAndCountsHits) {
  auto M = parse(fixtures::IntVectorSum);
  M->renumber();
  sir::Function &F = **M->functions().begin();

  analysis::AnalysisManager AM;
  const analysis::CFG &C1 = AM.getResult<analysis::CFGAnalysis>(F);
  const analysis::CFG &C2 = AM.getResult<analysis::CFGAnalysis>(F);
  EXPECT_EQ(&C1, &C2);
  EXPECT_EQ(AM.counters().Misses, 1u);
  EXPECT_EQ(AM.counters().Hits, 1u);

  // RDG pulls CFG (hit) and ReachingDefs (miss); the nested
  // ReachingDefs compute consults the cached CFG again (another hit).
  AM.getResult<analysis::RDGAnalysis>(F);
  EXPECT_EQ(AM.counters().Misses, 3u); // rdg + reaching-defs.
  EXPECT_EQ(AM.counters().Hits, 3u);

  // A later ReachingDefs request is served from cache.
  AM.getResult<analysis::ReachingDefsAnalysis>(F);
  EXPECT_EQ(AM.counters().Hits, 4u);

  const auto &ByName = AM.countersByAnalysis();
  EXPECT_EQ(ByName.at("cfg").Misses, 1u);
  EXPECT_EQ(ByName.at("rdg").Misses, 1u);
}

TEST(AnalysisManagerTest, InvalidateFunctionForcesRecompute) {
  auto M = parse(fixtures::IntVectorSum);
  M->renumber();
  sir::Function &F = **M->functions().begin();

  analysis::AnalysisManager AM;
  AM.getResult<analysis::CFGAnalysis>(F);
  AM.invalidateFunction(F);
  EXPECT_EQ(AM.counters().Invalidations, 1u);
  AM.getResult<analysis::CFGAnalysis>(F);
  EXPECT_EQ(AM.counters().Misses, 2u);
}

TEST(AnalysisManagerTest, InvalidateDropsEverything) {
  auto M = parse(fixtures::IntVectorSum);
  M->renumber();
  sir::Function &F = **M->functions().begin();

  analysis::AnalysisManager AM;
  AM.getResult<analysis::CFGAnalysis>(F);

  // Without an invalidation (a pass that made no change) the entry
  // stays cached.
  AM.getResult<analysis::CFGAnalysis>(F);
  EXPECT_EQ(AM.counters().Hits, 1u);

  // invalidate() drops it: one invalidation, and the next fetch
  // recomputes.
  AM.invalidate();
  EXPECT_EQ(AM.counters().Invalidations, 1u);
  AM.getResult<analysis::CFGAnalysis>(F);
  EXPECT_EQ(AM.counters().Misses, 2u);

  // Every entry counts once, block weights included; an empty cache
  // counts nothing.
  AM.getResult<analysis::RDGAnalysis>(F); // + reaching-defs + rdg.
  AM.blockWeights(*M, nullptr);
  AM.invalidate();
  EXPECT_EQ(AM.counters().Invalidations, 5u);
  EXPECT_EQ(AM.countersByAnalysis().at("block-weights").Invalidations, 1u);
  AM.invalidate();
  EXPECT_EQ(AM.counters().Invalidations, 5u);
}

TEST(AnalysisManagerTest, InvalidateFunctionKeepsOtherEntries) {
  auto M = parse(fixtures::InvalidateForCall);
  M->renumber();
  ASSERT_GE(M->functions().size(), 2u);
  sir::Function &F = *M->functions()[0];
  sir::Function &G = *M->functions()[1];

  analysis::AnalysisManager AM;
  AM.getResult<analysis::RDGAnalysis>(F); // cfg + reaching-defs + rdg.
  AM.getResult<analysis::CFGAnalysis>(G);
  const analysis::BlockWeights &W = AM.blockWeights(*M, nullptr);

  // Dropping F drops all three of its entries and nothing else.
  AM.invalidateFunction(F);
  EXPECT_EQ(AM.counters().Invalidations, 3u);
  const uint64_t Hits = AM.counters().Hits;
  AM.getResult<analysis::CFGAnalysis>(G);
  EXPECT_EQ(&AM.blockWeights(*M, nullptr), &W);
  EXPECT_EQ(AM.counters().Hits, Hits + 2);
}

TEST(AnalysisManagerTest, LivenessWrapperSharesCfg) {
  auto M = parse(fixtures::IntVectorSum);
  M->renumber();
  sir::Function &F = **M->functions().begin();

  analysis::AnalysisManager AM;
  AM.getResult<analysis::CFGAnalysis>(F);
  AM.getResult<regalloc::LivenessAnalysis>(F);
  EXPECT_EQ(AM.counters().Hits, 1u); // Liveness consulted the cached CFG.
  EXPECT_EQ(AM.countersByAnalysis().at("liveness").Misses, 1u);
}

//===----------------------------------------------------------------------===//
// Default pipeline == legacy flow (byte-identical compiled IR).
//===----------------------------------------------------------------------===//

/// Hand-rolled replica of the pre-pass-manager compile sequence.
std::string legacyCompile(const sir::Module &Original,
                          const PipelineConfig &Config) {
  std::unique_ptr<sir::Module> M = Original.clone();
  if (Config.RunOptimizations)
    opt::optimizeModule(*M);
  vm::VM::Options ProfOpts;
  ProfOpts.CollectProfile = true;
  vm::VM Trainer(*M, ProfOpts);
  Trainer.run(Config.TrainArgs);
  analysis::AnalysisManager AM;
  partition::ModuleRewrite RW = partition::partitionModule(
      *M, Config.Scheme, &Trainer.profile(), Config.Costs, AM);
  if (Config.EnableFpArgPassing &&
      Config.Scheme == partition::Scheme::Advanced)
    partition::passArgsInFpRegisters(*M, RW);
  if (Config.RunRegisterAllocation)
    regalloc::allocateModule(*M, AM);
  return sir::toString(*M);
}

TEST(PassPipeline, DefaultMatchesLegacyFlow) {
  const char *Sources[] = {fixtures::IntVectorSum,
                           fixtures::InvalidateForCall,
                           fixtures::MemoryFreeRand};
  const partition::Scheme Schemes[] = {partition::Scheme::None,
                                       partition::Scheme::Basic,
                                       partition::Scheme::Advanced};
  for (const char *Src : Sources) {
    auto M = parse(Src);
    for (partition::Scheme S : Schemes) {
      for (bool FpArgs : {false, true}) {
        PipelineConfig Config;
        Config.Scheme = S;
        Config.EnableFpArgPassing = FpArgs;
        PipelineRun Run = compileAndMeasure(*M, Config);
        ASSERT_TRUE(Run.Errors.empty())
            << Run.Errors.front() << " scheme " << static_cast<int>(S);
        EXPECT_EQ(sir::toString(*Run.Compiled), legacyCompile(*M, Config))
            << "scheme " << static_cast<int>(S) << " fpargs " << FpArgs;
      }
    }
  }
}

TEST(PassPipeline, ExplicitDefaultTextMatchesImplicit) {
  auto M = parse(fixtures::InvalidateForCall);
  PipelineConfig Implicit;
  PipelineRun A = compileAndMeasure(*M, Implicit);
  PipelineConfig Explicit;
  Explicit.Passes = defaultPipelineText();
  PipelineRun B = compileAndMeasure(*M, Explicit);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(sir::toString(*A.Compiled), sir::toString(*B.Compiled));
}

TEST(PassPipeline, EnvOverrideIsHonored) {
  auto M = parse(fixtures::MemoryFreeRand);
  ScopedEnv Env("FPINT_PASSES", "profile,partition");
  PipelineConfig Config;
  Config.RunRegisterAllocation = false; // Text never allocates.
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  ASSERT_EQ(Run.PassStats.size(), 2u);
  EXPECT_EQ(Run.PassStats[0].Name, "profile");
  EXPECT_EQ(Run.PassStats[1].Name, "partition");
}

TEST(PassPipeline, BadPipelineTextIsAnError) {
  auto M = parse(fixtures::MemoryFreeRand);
  PipelineConfig Config;
  Config.Passes = "opt,no-such-pass";
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_FALSE(Run.ok());
  ASSERT_FALSE(Run.Errors.empty());
  EXPECT_NE(Run.Errors[0].find("pipeline:"), std::string::npos);
  EXPECT_NE(Run.Errors[0].find("no-such-pass"), std::string::npos);
}

TEST(PassPipeline, PerPassTelemetryIsRecorded) {
  auto M = parse(fixtures::InvalidateForCall);
  PipelineConfig Config; // Advanced scheme default.
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_TRUE(Run.ok());
  ASSERT_EQ(Run.PassStats.size(), 5u);
  EXPECT_EQ(Run.PassStats[0].Name, "opt");
  EXPECT_EQ(Run.PassStats[2].Name, "partition");
  EXPECT_EQ(Run.PassStats[4].Name, "regalloc");
  // The partitioner rewrote at least one function and consulted
  // manager-cached analyses while doing it.
  EXPECT_GT(Run.PassStats[2].Changes, 0u);
  EXPECT_GT(Run.PassStats[2].AnalysisMisses, 0u);
  EXPECT_GT(Run.PassStats[2].AnalysisHits, 0u);
  // Regalloc shares the manager: its CFG fetch for each function it
  // lowers is a fresh miss (the IR changed), never a stale reuse.
  EXPECT_GT(Run.PassStats[4].AnalysisMisses, 0u);
}

//===----------------------------------------------------------------------===//
// The production pipeline's analysis counters. These are the
// passes[].analysis_* fields of the Figure 9 golden
// (scripts/golden/fig9_speedup_4way.json): the cache the pipeline
// shares across passes must not start missing, hitting or dropping
// more than it does.
//===----------------------------------------------------------------------===//

struct CounterRow {
  unsigned Changes;
  uint64_t Hits, Misses, Invalidations;
};

CounterRow rowOf(const PipelineRun &Run, const std::string &Name) {
  for (const PassStat &P : Run.PassStats)
    if (P.Name == Name)
      return {P.Changes, P.AnalysisHits, P.AnalysisMisses,
              P.AnalysisInvalidations};
  ADD_FAILURE() << "no pass " << Name;
  return {};
}

void expectRow(const PipelineRun &Run, const std::string &Name,
               CounterRow Want) {
  CounterRow Got = rowOf(Run, Name);
  EXPECT_EQ(Got.Changes, Want.Changes) << Name;
  EXPECT_EQ(Got.Hits, Want.Hits) << Name;
  EXPECT_EQ(Got.Misses, Want.Misses) << Name;
  EXPECT_EQ(Got.Invalidations, Want.Invalidations) << Name;
}

TEST(PassPipeline, CompressAnalysisCountersMatchGolden) {
  workloads::Workload W = workloads::workloadByName("compress");
  auto Compile = [&](partition::Scheme S) {
    PipelineConfig Config;
    Config.Scheme = S;
    Config.TrainArgs = W.TrainArgs;
    Config.RefArgs = W.RefArgs;
    PipelineRun Run = compileAndMeasure(*W.M, Config);
    EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
    return Run;
  };

  PipelineRun Advanced = Compile(partition::Scheme::Advanced);
  expectRow(Advanced, "partition", {6, 2, 7, 7});
  expectRow(Advanced, "regalloc", {10, 2, 6, 6});

  PipelineRun Basic = Compile(partition::Scheme::Basic);
  expectRow(Basic, "partition", {2, 2, 7, 7});
  expectRow(Basic, "regalloc", {10, 2, 6, 6});

  PipelineRun Conventional = Compile(partition::Scheme::None);
  expectRow(Conventional, "partition", {0, 0, 0, 0});
  expectRow(Conventional, "regalloc", {10, 2, 6, 6});
}

//===----------------------------------------------------------------------===//
// Pipeline misuse is a typed compile error.
//===----------------------------------------------------------------------===//

std::unique_ptr<sir::Module> parseCorpus(const char *Rel) {
  std::ifstream In(std::string(FPINT_SOURCE_DIR) + "/tests/corpus/" + Rel);
  std::stringstream Text;
  Text << In.rdbuf();
  EXPECT_FALSE(Text.str().empty()) << Rel;
  return parse(Text.str().c_str());
}

/// Compiles corpus file \p Rel with pipeline \p Passes, expecting a
/// fatal compile error whose first message is \p Want.
void expectMisuse(const char *Rel, const char *Passes, const char *Want) {
  auto M = parseCorpus(Rel);
  PipelineConfig Config;
  Config.Passes = Passes;
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_FALSE(Run.ok()) << Rel << " " << Passes;
  ASSERT_FALSE(Run.Errors.empty());
  EXPECT_EQ(Run.Errors[0], Want) << Rel << " " << Passes;
}

TEST(PassPipeline, PartitioningTwiceIsACompileError) {
  expectMisuse("transform/mixed_midend.sir", "opt2,opt2",
               "partition: module is already partitioned");
  expectMisuse("transform/gvn_chain.sir",
               "profile,partition,partition,regalloc",
               "partition: module is already partitioned");
  expectMisuse("transform/licm_hoist.sir",
               "profile,partition,partition,regalloc",
               "partition: module is already partitioned");
}

TEST(PassPipeline, PartitioningAfterRegAllocIsACompileError) {
  expectMisuse("transform/inline_chain.sir", "profile,regalloc,partition",
               "partition: module is already register-allocated");
  expectMisuse("transform/unroll_partial.sir",
               "profile,regalloc,partition-basic",
               "partition: module is already register-allocated");
}

TEST(PassPipeline, ConventionalPartitionPassStaysANoOp) {
  // "partition" under the conventional scheme never rewrites, so it
  // may follow anything, and a real scheme may follow it.
  auto M = parseCorpus("transform/mixed_midend.sir");
  PipelineConfig Config;
  Config.Scheme = partition::Scheme::None;
  Config.Passes = "profile,partition,partition-advanced,regalloc";
  PipelineRun Run = compileAndMeasure(*M, Config);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
}

//===----------------------------------------------------------------------===//
// Verify-each-pass attribution.
//===----------------------------------------------------------------------===//

/// Deliberately corrupts the module: empties the final block of the
/// first function, so control falls off the end ("function may fall
/// off its final block").
const Pass CorruptingPass = {
    "corrupt-for-test",
    [](sir::Module &M, analysis::AnalysisManager &, PassState &) {
      sir::Function &F = **M.functions().begin();
      F.blocks().back()->instructions().clear();
      return 1u;
    }};

TEST(VerifyEachPass, AttributesCorruptionToPass) {
  registerPass(CorruptingPass);
  auto M = parse(fixtures::MemoryFreeRand);

  ScopedEnv Env("FPINT_VERIFY_EACH_PASS", "1");
  PipelineConfig Config;
  Config.Passes = "opt,corrupt-for-test,profile,partition,regalloc";
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_FALSE(Run.ok());
  ASSERT_FALSE(Run.Errors.empty());
  EXPECT_NE(Run.Errors[0].find("verify after pass 'corrupt-for-test'"),
            std::string::npos)
      << Run.Errors[0];
  // The pipeline stopped at the corrupting pass: no later stages ran.
  ASSERT_EQ(Run.PassStats.size(), 2u);
  EXPECT_EQ(Run.PassStats.back().Name, "corrupt-for-test");
}

TEST(VerifyEachPass, CleanPipelineUnaffected) {
  auto M = parse(fixtures::IntVectorSum);
  ScopedEnv Env("FPINT_VERIFY_EACH_PASS", "1");
  PipelineConfig Config;
  PipelineRun Run = compileAndMeasure(*M, Config);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
}

//===----------------------------------------------------------------------===//
// Fixpoint cap + telemetry.
//===----------------------------------------------------------------------===//

TEST(OptFixpoint, ReportsRoundsAndConvergence) {
  auto M = parse(fixtures::MemoryFreeRand);
  M->renumber();
  opt::OptReport R = opt::optimizeModule(*M);
  EXPECT_TRUE(R.converged());
  EXPECT_GE(R.TotalRounds, 1u);
  EXPECT_GE(R.MaxFunctionRounds, 1u);
  EXPECT_LE(R.MaxFunctionRounds, opt::OptOptions().MaxRounds);
}

/// A constant chain the optimizer has real work on: folding collapses
/// it to one li, DCE sweeps the leftovers, and a second round is
/// needed to prove the fixpoint.
const char *ConstChain = R"(
func main() {
entry:
  li %a, 6
  li %b, 7
  mul %c, %a, %b
  addi %d, %c, -2
  sll %e, %d, 1
  out %e
  ret
}
)";

TEST(OptFixpoint, CapCutsOffAndIsReported) {
  auto M = parse(ConstChain);
  M->renumber();
  opt::OptOptions Opts;
  Opts.MaxRounds = 1;
  opt::OptReport R = opt::optimizeModule(*M, Opts);
  EXPECT_EQ(R.MaxFunctionRounds, 1u);
  EXPECT_FALSE(R.converged());
  EXPECT_EQ(R.FunctionsHitCap, 1u);
}

TEST(FixpointCombinator, ConvergesAndRoundTrips) {
  auto M = parse(ConstChain);
  M->renumber();

  PassManager PM;
  std::string Error;
  ASSERT_TRUE(PM.parse("fixpoint(copy-prop,const-fold,cse,dce)", Error))
      << Error;
  EXPECT_EQ(PM.text(), "fixpoint(copy-prop,const-fold,cse,dce)");

  analysis::AnalysisManager AM;
  PassState State;
  std::vector<PassStat> Stats = PM.run(*M, AM, State);
  ASSERT_EQ(Stats.size(), 1u);
  EXPECT_GT(Stats[0].Changes, 0u);
  EXPECT_TRUE(State.Errors.empty());

  // Running the same fixpoint again finds nothing left to do.
  PassManager PM2;
  ASSERT_TRUE(PM2.parse("fixpoint(copy-prop,const-fold,cse,dce)", Error));
  std::vector<PassStat> Again = PM2.run(*M, AM, State);
  ASSERT_EQ(Again.size(), 1u);
  EXPECT_EQ(Again[0].Changes, 0u);
}

} // namespace
