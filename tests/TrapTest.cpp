//===- tests/TrapTest.cpp - Typed VM trap taxonomy ------------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trap taxonomy itself (names, classification) plus negative VM
/// tests: every abnormal way a module can stop -- including malformed
/// modules the verifier would reject but the VM may still be handed
/// directly -- must surface as a typed trap, never as an assert or a
/// crash of the harness process.
///
//===----------------------------------------------------------------------===//

#include "sir/Parser.h"
#include "stats/StatsRegistry.h"
#include "vm/Trap.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::vm;

namespace {

std::unique_ptr<sir::Module> parseOrDie(const char *Src) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

const TrapKind AllKinds[] = {
    TrapKind::OobLoad,           TrapKind::OobStore,
    TrapKind::UnknownGlobal,     TrapKind::UnknownCallee,
    TrapKind::BadArgCount,       TrapKind::NoMain,
    TrapKind::BadMainArity,      TrapKind::NoEntryBlock,
    TrapKind::ControlFellOffEnd, TrapKind::FuelExhausted,
    TrapKind::CallDepthExceeded, TrapKind::StackOverflow};

TEST(Trap, NamesRoundTrip) {
  for (TrapKind K : AllKinds) {
    EXPECT_NE(std::string(trapKindName(K)), "none");
    EXPECT_EQ(trapKindFromName(trapKindName(K)), K);
  }
  EXPECT_EQ(std::string(trapKindName(TrapKind::None)), "none");
  EXPECT_EQ(trapKindFromName("definitely_not_a_trap"), TrapKind::None);
}

TEST(Trap, Classification) {
  // Resource traps and harness setup errors are never deterministic;
  // everything else (except None) is.
  for (TrapKind K : AllKinds) {
    bool Resource = K == TrapKind::FuelExhausted ||
                    K == TrapKind::CallDepthExceeded ||
                    K == TrapKind::StackOverflow;
    bool Setup = K == TrapKind::NoMain || K == TrapKind::BadMainArity;
    EXPECT_EQ(isResourceTrap(K), Resource) << trapKindName(K);
    EXPECT_EQ(isDeterministicTrap(K), !Resource && !Setup)
        << trapKindName(K);
  }
  EXPECT_FALSE(isResourceTrap(TrapKind::None));
  EXPECT_FALSE(isDeterministicTrap(TrapKind::None));
}

TEST(Trap, OobLoadIsTyped) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %p, -4096
  lw %v, 0(%p)
  out %v
  ret
}
)");
  VM::Result R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::OobLoad);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_EQ(R.Error, R.Trap.message());
}

TEST(Trap, OobStoreIsTyped) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %p, 268435456
  li %v, 1
  sw %v, 0(%p)
  ret
}
)");
  VM::Result R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::OobStore);
}

TEST(Trap, BadArgCountTrapsInsteadOfAsserting) {
  // The verifier rejects this call statically, but the VM can be
  // handed unverified modules (fuzzer mutants, hand-written tests);
  // the arity mismatch must degrade to a trap, not an assert.
  auto M = parseOrDie(R"(
func helper(%a, %b) {
entry:
  add %s, %a, %b
  ret %s
}

func main() {
entry:
  li %x, 1
  call %r, helper(%x)
  out %r
  ret
}
)");
  VM::Result R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::BadArgCount);
  EXPECT_NE(R.Error.find("helper"), std::string::npos);
}

TEST(Trap, UnknownCalleeTrapsVmDirect) {
  auto M = parseOrDie(R"(
func main() {
entry:
  call %r, nosuch()
  out %r
  ret
}
)");
  VM::Result R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::UnknownCallee);
}

TEST(Trap, MainArityIsSetupErrorNotProgramTrap) {
  auto M = parseOrDie(R"(
func main(%n) {
entry:
  out %n
  ret
}
)");
  VM::Result R = runModule(*M, /*MainArgs=*/{});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::BadMainArity);
  EXPECT_FALSE(isDeterministicTrap(R.Trap.Kind));
}

TEST(Trap, NoMain) {
  auto M = parseOrDie(R"(
func notmain() {
entry:
  ret
}
)");
  VM::Result R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::NoMain);
}

TEST(Trap, FuelExhaustedIsResource) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %t, 1
loop:
  bne %t, %zero, loop
  ret
}
)");
  VM::Options Opts;
  Opts.MaxSteps = 100;
  VM Machine(*M, Opts);
  VM::Result R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::FuelExhausted);
  EXPECT_TRUE(isResourceTrap(R.Trap.Kind));
}

TEST(Trap, CallDepthGuardFiresBeforeNativeStack) {
  auto M = parseOrDie(R"(
func main() {
entry:
  call %r, main()
  out %r
  ret
}
)");
  // Guest calls run on the VM's own frame stack, so runaway recursion
  // trips the depth cap in every build, sanitizers included.
  VM::Result R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::CallDepthExceeded)
      << trapKindName(R.Trap.Kind);
  EXPECT_TRUE(isResourceTrap(R.Trap.Kind));
}

TEST(Trap, CallDepthCapIsExact) {
  // main runs at depth 0 and f(n) at depth 1 calls down to f(0) at
  // depth n + 1.
  auto M = parseOrDie(R"(
func f(%n) {
entry:
  blez %n, base
  addi %m, %n, -1
  call %r, f(%m)
  addi %s, %r, 1
  ret %s
base:
  ret %n
}

func main(%n) {
entry:
  call %r, f(%n)
  out %r
  ret %r
}
)");
  const int32_t Deepest = static_cast<int32_t>(VM::MaxCallDepth) - 1;
  VM::Result R = runModule(*M, {Deepest});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitValue, Deepest);
  EXPECT_EQ(R.Output, std::vector<int32_t>{Deepest});

  R = runModule(*M, {Deepest + 1});
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Trap.Kind, TrapKind::CallDepthExceeded)
      << trapKindName(R.Trap.Kind);
  EXPECT_TRUE(R.Output.empty());
}

TEST(Trap, KindIsRecordedInTelemetryJson) {
  stats::StatsRegistry Reg;
  core::PipelineConfig Cfg;
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::SimStats Stats;
  Reg.record("trapper", Cfg, Machine, Stats, TrapKind::OobLoad);
  std::string Json = Reg.reportJson("trap_test").dump();
  EXPECT_NE(Json.find("\"trap\""), std::string::npos);
  EXPECT_NE(Json.find("oob_load"), std::string::npos);
}

} // namespace
