//===- tools/fpint-fuzz.cpp - Differential fuzzing driver ------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fpint-fuzz: generates random sir modules and checks, for each, that
/// every partitioning pipeline variant preserves the program's exact
/// semantics (output stream, exit value, memory image, deterministic
/// trap) and that the timing simulator and stats subsystem agree on
/// the dynamic instruction counts per partition.
///
/// Every iteration runs in a forked sandbox (support::Supervised), so
/// a checker crash or hang fails only that iteration: the campaign
/// always runs to completion and the parent never aborts. Failures
/// are triaged into buckets -- mismatches by the oracle's verdict,
/// crashes and hangs by (signal, last oracle stage reached) -- and
/// the first instance of each bucket is shrunk with the
/// delta-debugging reducer and written to the regression corpus with
/// a replay command.
///
///   fpint-fuzz --iters 500 --seed 1
///   fpint-fuzz --one 0x1234abcd --preset memory     # replay one module
///   fpint-fuzz --iters 2000 --write-repro tests/corpus/regressions
///   fpint-fuzz --timeout-ms 2000                    # hang guard per iter
///
/// The base seed defaults to $FPINT_FUZZ_SEED (then 1); every failure
/// message prints the exact --one module seed that reproduces it.
/// --no-sandbox runs iterations in-process (for debuggers); a crash
/// then kills the campaign, so it is never the CI mode.
///
//===----------------------------------------------------------------------===//

#include "campaign/Journal.h"
#include "core/PassManager.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "support/Hash.h"
#include "support/Subprocess.h"
#include "testgen/Generator.h"
#include "testgen/Oracle.h"
#include "testgen/Reducer.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace fpint;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: fpint-fuzz [options]\n"
      "\n"
      "  --iters N            modules to generate and check (default 100)\n"
      "  --seed S             base seed (default: $FPINT_FUZZ_SEED, then 1)\n"
      "  --one S              check exactly one module with module seed S\n"
      "  --preset NAME        generator preset (default cycles through all);\n"
      "                       one of: default branchy memory fp calls tiny\n"
      "                       intonly\n"
      "  --write-repro DIR    where reduced repros go (default\n"
      "                       tests/corpus/regressions)\n"
      "  --timeout-ms N       wall-clock guard per sandboxed iteration\n"
      "                       (default 10000 or $FPINT_SANDBOX_TIMEOUT_MS;\n"
      "                       hangs become triaged repros)\n"
      "  --journal DIR        journal completed batches into DIR so an\n"
      "                       interrupted campaign resumes from the last\n"
      "                       completed batch, with the journaled base seed\n"
      "                       (see docs/CAMPAIGNS.md; ignored with --one)\n"
      "  --batch N            iterations per journaled batch (default 100)\n"
      "  --no-sandbox         run iterations in-process (debugging only;\n"
      "                       a checker crash then kills the campaign)\n"
      "  --no-reduce          report failures without shrinking\n"
      "  --no-timing          skip the simulator cross-checks (faster)\n"
      "  --passes TEXT        add a variant compiling with the given pass\n"
      "                       pipeline text (repeatable; see docs/PASSES.md;\n"
      "                       checked against the unpartitioned baseline)\n"
      "  --regalloc           add the register-allocator battery: both\n"
      "                       backends (regalloc, regalloc-linear) under\n"
      "                       the none/basic/advanced schemes\n"
      "  --midend             add the mid-end variant battery: gvn, licm,\n"
      "                       unroll, unroll<4>, inline each alone, plus the\n"
      "                       full opt2 preset (see docs/TRANSFORMS.md)\n"
      "  --keep-going         check all iterations even after a failure\n"
      "  --emit               print each generated module (debugging)\n"
      "  --quiet              only print failures and the final summary\n");
}

struct FuzzStats {
  uint64_t Modules = 0;
  uint64_t Skipped = 0;
  uint64_t DynInstrs = 0;
  uint64_t Mismatches = 0;
  uint64_t Crashes = 0;
  uint64_t Hangs = 0;
};

/// The FuzzStats counters a journaled batch record carries, in order.
constexpr std::pair<const char *, uint64_t FuzzStats::*> BatchCounters[] = {
    {"modules", &FuzzStats::Modules},       {"skipped", &FuzzStats::Skipped},
    {"dyn_instrs", &FuzzStats::DynInstrs},
    {"mismatches", &FuzzStats::Mismatches}, {"crashes", &FuzzStats::Crashes},
    {"hangs", &FuzzStats::Hangs}};

std::string sanitizeFileName(std::string S) {
  for (char &C : S)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return S;
}

/// FNV-1a over \p S, rendered as 8 hex digits (bucket keys).
std::string fnv8(const std::string &S) {
  uint32_t H = 2166136261u;
  for (unsigned char C : S) {
    H ^= C;
    H *= 16777619u;
  }
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", H);
  return Buf;
}

/// Everything the parent learns from one checked module.
struct IterOutcome {
  enum class Kind {
    Pass,         ///< Oracle ran, no mismatch.
    Skip,         ///< Baseline hit a resource limit; says nothing.
    Mismatch,     ///< Oracle found a semantic divergence.
    GeneratorBug, ///< Generated module failed the strict verifier.
    Crash,        ///< Checker died on a signal (or uncaught exception).
    Hang,         ///< Watchdog destroyed the checker.
    SpawnFailed,  ///< fork failed; infrastructure, not a finding.
  };
  Kind K = Kind::SpawnFailed;
  std::vector<std::string> Mismatches;
  std::string SkipReason;
  std::string LastStage; ///< Last oracle breadcrumb before death.
  int Signal = 0;        ///< Fatal signal for Crash.
  uint64_t DynInstrs = 0;
  std::string Describe; ///< Human-readable sandbox verdict.
};

/// The checker body; runs in the sandbox child (or in-process with
/// --no-sandbox). Streams breadcrumbs and results as prefixed lines
/// over \p Send so a mid-flight death still leaves triage data, and
/// ends with the verdict line ("V" + the IterOutcome::Kind number).
template <typename SendFn>
void checkModule(const sir::Module &M, const testgen::OracleOptions &BaseOpts,
                 const SendFn &Send) {
  auto Verdict = [&Send](IterOutcome::Kind K) {
    Send("V" + std::to_string(static_cast<int>(K)));
  };
  sir::VerifyOptions Strict;
  Strict.CheckDataflow = true;
  std::vector<std::string> Diags = sir::verify(M, Strict);
  if (!Diags.empty()) {
    Send("G" + Diags.front());
    return Verdict(IterOutcome::Kind::GeneratorBug);
  }

  testgen::OracleOptions Opts = BaseOpts;
  Opts.Progress = [&](const std::string &Stage) { Send("@" + Stage); };
  testgen::OracleReport Report = testgen::runOracle(M, Opts);
  Send("D" + std::to_string(Report.BaselineDynInstrs));
  if (Report.BaselineSkipped) {
    Send("S" + Report.BaselineError);
    return Verdict(IterOutcome::Kind::Skip);
  }
  for (const std::string &Msg : Report.Mismatches)
    Send("M" + Msg);
  Verdict(Report.Mismatches.empty() ? IterOutcome::Kind::Pass
                                    : IterOutcome::Kind::Mismatch);
}

/// Folds the streamed checker lines into \p Out; returns whether they
/// carried a verdict.
bool parseCheckerLines(const std::string &Payload, IterOutcome &Out) {
  bool HaveVerdict = false;
  size_t Pos = 0;
  while (Pos < Payload.size()) {
    size_t End = Payload.find('\n', Pos);
    if (End == std::string::npos)
      End = Payload.size();
    std::string Line = Payload.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty())
      continue;
    std::string Rest = Line.substr(1);
    switch (Line[0]) {
    case '@':
      Out.LastStage = Rest;
      break;
    case 'D':
      Out.DynInstrs = std::strtoull(Rest.c_str(), nullptr, 10);
      break;
    case 'S':
      Out.SkipReason = Rest;
      break;
    case 'M':
      Out.Mismatches.push_back(Rest);
      break;
    case 'G':
      Out.Mismatches.push_back("generator bug: " + Rest);
      break;
    case 'V':
      Out.K = static_cast<IterOutcome::Kind>(std::atoi(Rest.c_str()));
      HaveVerdict = true;
      break;
    default:
      break;
    }
  }
  return HaveVerdict;
}

/// Checks \p M under \p P -- in a forked sandbox, or in-process
/// without containment -- and classifies the result.
IterOutcome checkSupervised(const sir::Module &M,
                            const testgen::OracleOptions &Opts,
                            const support::Supervised::Policy &P) {
  IterOutcome Out;
  support::Supervised::Result R = support::Supervised::run(
      [&](support::Supervised::Sink &S) {
        checkModule(M, Opts,
                    [&S](const std::string &Line) { S.write(Line + "\n"); });
      },
      P,
      [&Out](const std::string &Payload, std::string &Why) {
        Out = IterOutcome();
        Why = "checker sent no verdict";
        return parseCheckerLines(Payload, Out);
      });
  if (R.ok()) {
    Out.Describe = P.InProcess ? "in-process" : "ok";
    return Out;
  }

  using Kind = support::Supervised::Failure::Kind;
  const support::Supervised::Failure &F = *R.Fail;
  Out = IterOutcome();
  parseCheckerLines(F.Payload, Out);
  Out.Describe = F.Describe;
  switch (F.K) {
  case Kind::Timeout:
    Out.K = IterOutcome::Kind::Hang;
    break;
  case Kind::Crash:
    Out.K = IterOutcome::Kind::Crash;
    Out.Signal = F.Signal;
    break;
  case Kind::SpawnFailed:
    Out.K = IterOutcome::Kind::SpawnFailed;
    break;
  default:
    // An uncaught exception, abnormal exit or verdict-less payload:
    // triage like a crash, with 0 in the signal slot.
    Out.K = IterOutcome::Kind::Crash;
    Out.Signal = 0;
    break;
  }
  return Out;
}

/// Stable bucket key for one failure: mismatches bucket on the first
/// verdict line, crashes/hangs on (signal, last oracle stage).
std::string bucketKey(const IterOutcome &Out) {
  switch (Out.K) {
  case IterOutcome::Kind::Mismatch:
  case IterOutcome::Kind::GeneratorBug:
    return "mismatch_" +
           fnv8(Out.Mismatches.empty() ? "?" : Out.Mismatches.front());
  case IterOutcome::Kind::Crash:
    return "crash_sig" + std::to_string(Out.Signal) + "_" +
           fnv8(Out.LastStage.empty() ? "(pre-oracle)" : Out.LastStage);
  case IterOutcome::Kind::Hang:
    return "hang_" +
           fnv8(Out.LastStage.empty() ? "(pre-oracle)" : Out.LastStage);
  default:
    return "none";
  }
}

const char *kindName(IterOutcome::Kind K) {
  switch (K) {
  case IterOutcome::Kind::Pass:
    return "pass";
  case IterOutcome::Kind::Skip:
    return "skip";
  case IterOutcome::Kind::Mismatch:
    return "MISMATCH";
  case IterOutcome::Kind::GeneratorBug:
    return "GENERATOR BUG";
  case IterOutcome::Kind::Crash:
    return "CRASH";
  case IterOutcome::Kind::Hang:
    return "HANG";
  case IterOutcome::Kind::SpawnFailed:
    return "spawn failed";
  }
  return "?";
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Iters = 100;
  uint64_t BaseSeed = 1;
  if (const char *Env = std::getenv("FPINT_FUZZ_SEED")) {
    if (std::optional<uint64_t> S = support::parseSeed(Env))
      BaseSeed = *S;
    else
      std::fprintf(stderr, "warning: ignoring FPINT_FUZZ_SEED='%s' (not a "
                           "decimal or 0x-hex seed)\n", Env);
  }
  bool HaveOne = false;
  uint64_t OneSeed = 0;
  std::string Preset; // Empty: cycle through all presets.
  std::vector<std::string> PassTexts; // Extra --passes variants.
  bool Midend = false;                // Append testgen::midendVariants().
  bool RegAlloc = false;              // Append testgen::regallocVariants().
  std::string ReproDir = "tests/corpus/regressions";
  std::string JournalDir;
  uint64_t BatchSize = 100;
  std::optional<int> TimeoutMs; // --timeout-ms; unset: the policy's.
  bool Sandbox = true, Reduce = true, CheckTiming = true, KeepGoing = false,
       Emit = false, Quiet = false;

  for (int A = 1; A < argc; ++A) {
    const char *Arg = argv[A];
    auto Value = [&]() -> const char * {
      if (A + 1 >= argc) {
        std::fprintf(stderr, "fpint-fuzz: %s needs a value\n", Arg);
        std::exit(2);
      }
      return argv[++A];
    };
    // A malformed number is a usage error, never a silent prefix.
    auto Number = [](std::optional<uint64_t> V) {
      if (!V) {
        usage();
        std::exit(2);
      }
      return *V;
    };
    if (!std::strcmp(Arg, "--iters"))
      Iters = Number(support::parseDecimal(Value(), 0, UINT64_MAX));
    else if (!std::strcmp(Arg, "--seed"))
      BaseSeed = Number(support::parseSeed(Value()));
    else if (!std::strcmp(Arg, "--one")) {
      HaveOne = true;
      OneSeed = Number(support::parseSeed(Value()));
    } else if (!std::strcmp(Arg, "--preset"))
      Preset = Value();
    else if (!std::strcmp(Arg, "--write-repro"))
      ReproDir = Value();
    else if (!std::strcmp(Arg, "--timeout-ms"))
      TimeoutMs = static_cast<int>(Number(support::parseDecimal(
          Value(), 1, support::Supervised::MaxTimeoutMs)));
    else if (!std::strcmp(Arg, "--journal"))
      JournalDir = Value();
    else if (!std::strcmp(Arg, "--batch"))
      BatchSize = Number(support::parseDecimal(Value(), 1, UINT64_MAX));
    else if (!std::strcmp(Arg, "--no-sandbox"))
      Sandbox = false;
    else if (!std::strcmp(Arg, "--no-reduce"))
      Reduce = false;
    else if (!std::strcmp(Arg, "--no-timing"))
      CheckTiming = false;
    else if (!std::strcmp(Arg, "--passes"))
      PassTexts.push_back(Value());
    else if (!std::strcmp(Arg, "--midend"))
      Midend = true;
    else if (!std::strcmp(Arg, "--regalloc"))
      RegAlloc = true;
    else if (!std::strcmp(Arg, "--keep-going"))
      KeepGoing = true;
    else if (!std::strcmp(Arg, "--emit"))
      Emit = true;
    else if (!std::strcmp(Arg, "--quiet"))
      Quiet = true;
    else {
      usage();
      return 2;
    }
  }

  const std::vector<std::string> &Presets = testgen::presetNames();
  testgen::OracleOptions OracleOpts;
  OracleOpts.CheckTiming = CheckTiming;
  for (const std::string &Text : PassTexts) {
    // Reject malformed text up front instead of once per iteration.
    std::vector<std::unique_ptr<core::ModulePass>> Parsed;
    std::string ParseError;
    if (!core::parsePipeline(Text, Parsed, ParseError)) {
      std::fprintf(stderr, "fpint-fuzz: bad --passes: %s\n",
                   ParseError.c_str());
      return 2;
    }
    testgen::VariantSpec V;
    V.Name = "passes:" + Text;
    V.Config.Passes = Text;
    // The gated built-ins honor the config: advanced partitioning for
    // the generic "partition" name, and register allocation (plus the
    // oracle's timing cross-check) only when the text allocates.
    V.Config.Scheme = partition::Scheme::Advanced;
    V.Config.RunRegisterAllocation =
        Text.find("regalloc") != std::string::npos;
    V.Config.EnableFpArgPassing =
        Text.find("fp-arg-passing") != std::string::npos;
    OracleOpts.Variants.push_back(std::move(V));
  }
  if (Midend) {
    std::vector<testgen::VariantSpec> MV = testgen::midendVariants();
    OracleOpts.Variants.insert(OracleOpts.Variants.end(),
                               std::make_move_iterator(MV.begin()),
                               std::make_move_iterator(MV.end()));
  }
  if (RegAlloc) {
    std::vector<testgen::VariantSpec> RV = testgen::regallocVariants();
    OracleOpts.Variants.insert(OracleOpts.Variants.end(),
                               std::make_move_iterator(RV.begin()),
                               std::make_move_iterator(RV.end()));
  }
  support::Supervised::Policy Policy = testgen::fuzzPolicy(TimeoutMs);
  Policy.InProcess = !Sandbox;
  FuzzStats Stats;
  std::map<std::string, uint64_t> Buckets;
  int Exit = 0;

  // --journal: resume an interrupted campaign from its last completed
  // batch. The campaign identity covers everything that changes what
  // the batches check -- iteration count, preset, variant battery,
  // batch size -- but NOT the seed: on resume the journaled header's
  // seed is adopted, so a restarted nightly run continues the exact
  // random sequence it started with (docs/CAMPAIGNS.md).
  const bool UseJournal = !JournalDir.empty() && !HaveOne;
  campaign::Journal Journal;
  std::set<uint64_t> DoneBatches;
  if (UseJournal) {
    support::ContentKey Key;
    Key.add("fpint-fuzz")
        .add(campaign::JournalSchema)
        .add(std::to_string(Iters))
        .add(Preset);
    for (const std::string &Text : PassTexts)
      Key.add("passes:" + Text);
    Key.add(std::to_string(Midend));
    // Folded only when on so pre-existing campaign journals keep their
    // identity (the flag did not exist when they were written).
    if (RegAlloc)
      Key.add("regalloc");
    Key.add(std::to_string(CheckTiming)).add(std::to_string(BatchSize));
    const std::string CampaignKey = Key.hex();

    char SeedBuf[32];
    std::snprintf(SeedBuf, sizeof(SeedBuf), "0x%" PRIx64, BaseSeed);
    json::Value Seed = json::Value::object();
    Seed.set("seed", SeedBuf);
    campaign::Journal::CampaignLog Log;
    std::string Err;
    if (!Journal.openCampaign(JournalDir + "/journal.wal", CampaignKey, Seed,
                              Log, &Err)) {
      std::fprintf(stderr, "fpint-fuzz: journal: %s\n", Err.c_str());
      return 2;
    }
    if (Log.Discarded)
      std::fprintf(stderr, "fpint-fuzz: journal belongs to a different "
                           "campaign; starting fresh\n");
    // A resumed campaign continues the random sequence it started with.
    BaseSeed = support::parseSeed(Log.Header.strOr("seed", "1").c_str())
                   .value_or(BaseSeed);
    for (const json::Value &R : Log.Records) {
      if (R.strOr("type", "") != "batch")
        continue;
      DoneBatches.insert(static_cast<uint64_t>(R.numberOr("index", 0)));
      for (const auto &[Name, Field] : BatchCounters)
        Stats.*Field += static_cast<uint64_t>(R.numberOr(Name, 0));
      Exit = std::max(Exit, static_cast<int>(R.numberOr("exit", 0)));
      const json::Value *B = R.find("buckets");
      if (B && B->isObject())
        for (const auto &Member : B->members())
          Buckets[Member.first] +=
              static_cast<uint64_t>(Member.second.number());
    }
    if (!DoneBatches.empty())
      std::fprintf(stderr,
                   "fpint-fuzz: resuming campaign (base seed 0x%" PRIx64
                   "): %zu batch(es) already complete\n",
                   BaseSeed, DoneBatches.size());
  }

  auto Check = [&](const sir::Module &M) {
    return checkSupervised(M, OracleOpts, Policy);
  };

  const uint64_t Total = HaveOne ? 1 : Iters;
  const uint64_t Step = UseJournal ? BatchSize : (Total ? Total : 1);
  bool Stop = false;
  for (uint64_t BatchStart = 0; BatchStart < Total && !Stop;
       BatchStart += Step) {
    const uint64_t BatchIdx = BatchStart / Step;
    const uint64_t BatchEnd = std::min(BatchStart + Step, Total);
    if (UseJournal && DoneBatches.count(BatchIdx))
      continue;
    const FuzzStats Before = Stats;
    const std::map<std::string, uint64_t> BucketsBefore = Buckets;

    for (uint64_t It = BatchStart; It < BatchEnd; ++It) {
      uint64_t ModSeed =
          HaveOne ? OneSeed : testgen::moduleSeed(BaseSeed, It);
      const std::string &PresetName =
          !Preset.empty() ? Preset : Presets[It % Presets.size()];
      testgen::GenConfig Config = testgen::presetConfig(PresetName);

      std::unique_ptr<sir::Module> M = testgen::generateModule(Config, ModSeed);
      std::string Text = sir::toString(*M);
      if (Emit)
        std::printf("# seed=0x%" PRIx64 " preset=%s\n%s\n", ModSeed,
                    PresetName.c_str(), Text.c_str());

      IterOutcome Out = Check(*M);
      ++Stats.Modules;
      Stats.DynInstrs += Out.DynInstrs;

      if (Out.K == IterOutcome::Kind::Pass)
        continue;
      if (Out.K == IterOutcome::Kind::Skip) {
        ++Stats.Skipped;
        if (!Quiet)
          std::fprintf(stderr, "skip seed=0x%" PRIx64 " iter=%" PRIu64 ": %s\n",
                       ModSeed, It, Out.SkipReason.c_str());
        continue;
      }
      if (Out.K == IterOutcome::Kind::SpawnFailed) {
        std::fprintf(stderr,
                     "fpint-fuzz: fork failed at iter %" PRIu64 "; stopping\n",
                     It);
        Exit = 2;
        Stop = true;
        break;
      }

      // A finding. Count, triage into a bucket, report.
      switch (Out.K) {
      case IterOutcome::Kind::Crash:
        ++Stats.Crashes;
        break;
      case IterOutcome::Kind::Hang:
        ++Stats.Hangs;
        break;
      default:
        ++Stats.Mismatches;
        break;
      }
      Exit = 1;
      std::string Bucket = bucketKey(Out);
      bool FirstInBucket = Buckets[Bucket]++ == 0;

      std::fprintf(stderr,
                   "%s seed=0x%" PRIx64 " iter=%" PRIu64
                   " preset=%s bucket=%s (%s)\n",
                   kindName(Out.K), ModSeed, It, PresetName.c_str(),
                   Bucket.c_str(), Out.Describe.c_str());
      if (!Out.LastStage.empty())
        std::fprintf(stderr, "  last oracle stage: %s\n", Out.LastStage.c_str());
      for (const std::string &Msg : Out.Mismatches)
        std::fprintf(stderr, "  %s\n", Msg.c_str());
      std::fprintf(stderr,
                   "  reproduce: fpint-fuzz --one 0x%" PRIx64 " --preset %s\n",
                   ModSeed, PresetName.c_str());

      if (Reduce && FirstInBucket) {
        // Shrink while the candidate stays in the same bucket. Crash and
        // hang probes run sandboxed even under --no-sandbox (an
        // in-process crash probe would kill the reducer itself); hang
        // probes get a tightened watchdog so reduction stays bounded.
        const IterOutcome::Kind WantKind = Out.K;
        const int WantSignal = Out.Signal;
        support::Supervised::Policy ProbePolicy = Policy;
        if (WantKind == IterOutcome::Kind::Hang)
          ProbePolicy.Limits.WallMs = std::min(Policy.Limits.WallMs, 1500);
        ProbePolicy.InProcess =
            WantKind == IterOutcome::Kind::Mismatch && !Sandbox;
        testgen::InterestingPredicate SameBucket =
            [&](const sir::Module &Candidate) {
              IterOutcome Probe =
                  checkSupervised(Candidate, OracleOpts, ProbePolicy);
              if (Probe.K != WantKind)
                return false;
              if (WantKind == IterOutcome::Kind::Crash)
                return Probe.Signal == WantSignal;
              return true;
            };
        testgen::ReduceOutcome Reduced = testgen::reduceModule(Text, SameBucket);
        std::fprintf(stderr, "  reduced to %u instructions (%u probes)\n",
                     Reduced.InstrCount, Reduced.Probes);

        char Name[160];
        std::snprintf(Name, sizeof(Name), "seed_0x%" PRIx64 "_%s_%s.sir",
                      ModSeed, sanitizeFileName(PresetName).c_str(),
                      sanitizeFileName(Bucket).c_str());
        std::string Path = ReproDir + "/" + Name;
        std::ofstream OutFile(Path);
        if (OutFile) {
          OutFile << "# fpint-fuzz regression (auto-reduced)\n"
                  << "# kind=" << kindName(Out.K) << " bucket=" << Bucket
                  << "\n"
                  << "# seed=0x" << std::hex << ModSeed << std::dec
                  << " preset=" << PresetName << "\n"
                  << "# replay: fpint-fuzz --one 0x" << std::hex << ModSeed
                  << std::dec << " --preset " << PresetName << "\n";
          if (!Out.LastStage.empty())
            OutFile << "# last oracle stage: " << Out.LastStage << "\n";
          for (const std::string &Msg : Out.Mismatches)
            OutFile << "# " << Msg << "\n";
          OutFile << Reduced.Text;
          std::fprintf(stderr, "  repro written to %s\n", Path.c_str());
        } else {
          std::fprintf(stderr, "  could not write %s\n", Path.c_str());
        }
      }
      if (!KeepGoing) {
        Stop = true;
        break;
      }
    }

    // One fully-completed batch = one durable unit of progress. An
    // interrupted batch (finding with !KeepGoing, fork failure, or the
    // harness dying) is deliberately not journaled: the next run
    // re-executes it from its first iteration.
    if (UseJournal && !Stop) {
      json::Value R = json::Value::object();
      R.set("type", "batch");
      R.set("index", BatchIdx);
      for (const auto &[Name, Field] : BatchCounters)
        R.set(Name, Stats.*Field - Before.*Field);
      R.set("exit", Exit);
      json::Value BucketDeltas = json::Value::object();
      for (const auto &B : Buckets) {
        auto PrevIt = BucketsBefore.find(B.first);
        const uint64_t Prev =
            PrevIt == BucketsBefore.end() ? 0 : PrevIt->second;
        if (B.second > Prev)
          BucketDeltas.set(B.first, B.second - Prev);
      }
      R.set("buckets", std::move(BucketDeltas));
      std::string Err;
      if (!Journal.append(R, &Err)) {
        std::fprintf(stderr, "fpint-fuzz: journal: %s\n", Err.c_str());
        Exit = 2;
        Stop = true;
      }
    }
  }

  std::printf("fpint-fuzz: %" PRIu64 " modules, %" PRIu64 " skipped, %" PRIu64
              " dynamic instructions checked, %" PRIu64
              " mismatches, %" PRIu64 " crashes, %" PRIu64
              " hangs (base seed 0x%" PRIx64 ")\n",
              Stats.Modules, Stats.Skipped, Stats.DynInstrs, Stats.Mismatches,
              Stats.Crashes, Stats.Hangs, BaseSeed);
  for (const auto &B : Buckets)
    std::printf("  bucket %s: %" PRIu64 " hit(s)\n", B.first.c_str(),
                B.second);
  return Exit;
}
