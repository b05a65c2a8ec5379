//===- tests/VMTest.cpp - Functional interpreter tests --------------------===//

#include "sir/IRBuilder.h"
#include "sir/Parser.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace fpint;
using namespace fpint::sir;
using namespace fpint::vm;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

TEST(VM, ArithmeticBasics) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 7
  li %b, 5
  add %s, %a, %b
  sub %d, %a, %b
  mul %p, %a, %b
  div %q, %a, %b
  rem %r, %a, %b
  out %s
  out %d
  out %p
  out %q
  out %r
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{12, 2, 35, 1, 2}));
}

TEST(VM, WrappingAndShifts) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %max, 2147483647
  addi %w, %max, 1
  out %w
  li %a, -8
  sra %x, %a, 1
  srl %y, %a, 28
  sll %z, %a, 1
  out %x
  out %y
  out %z
  li %b, 3
  sllv %v, %a, %b
  out %v
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output,
            (std::vector<int32_t>{INT32_MIN, -4, 15, -16, -64}));
}

TEST(VM, DivisionByZeroIsTotal) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 42
  li %z, 0
  div %q, %a, %z
  rem %r, %a, %z
  out %q
  out %r
  li %min, -2147483648
  li %m1, -1
  div %q2, %min, %m1
  out %q2
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{0, 42, 0}));
}

TEST(VM, ComparisonsAndBranches) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, -3
  li %b, 2
  slt %s, %a, %b
  sltu %u, %a, %b
  out %s
  out %u
  bltz %a, neg
  out %b
  ret
neg:
  li %one, 1
  out %one
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  // -3 < 2 signed; 0xFFFFFFFD > 2 unsigned.
  EXPECT_EQ(R.Output, (std::vector<int32_t>{1, 0, 1}));
}

TEST(VM, GlobalsAndByteMemory) {
  auto M = parseOrDie(R"(
global words 4 = 100 200 300
global bytes 2

func main() {
entry:
  lw %a, words+4
  out %a
  li %v, 300
  sw %v, words+12
  lw %b, words+12
  out %b
  li %c, 513
  sb %c, bytes
  lbu %d, bytes
  out %d
  li %n, -1
  sb %n, bytes+1
  lb %e, bytes+1
  lbu %f, bytes+1
  out %e
  out %f
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{200, 300, 1, -1, 255}));
}

TEST(VM, RegisterIndirectAddressing) {
  auto M = parseOrDie(R"(
global tab 8 = 5 10 15 20 25 30 35 40

func main() {
entry:
  la %base, tab
  li %i, 0
  li %sum, 0
loop:
  sll %off, %i, 2
  add %p, %base, %off
  lw %v, 0(%p)
  add %sum, %sum, %v
  addi %i, %i, 1
  slti %t, %i, 8
  bne %t, %zero, loop
  out %sum
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{180}));
}

TEST(VM, CallsArgumentsAndReturnValues) {
  auto M = parseOrDie(R"(
func fib(%n) {
entry:
  slti %t, %n, 2
  beq %t, %zero, rec
  ret %n
rec:
  addi %n1, %n, -1
  call %a, fib(%n1)
  addi %n2, %n, -2
  call %b, fib(%n2)
  add %s, %a, %b
  ret %s
}

func main() {
entry:
  li %n, 10
  call %r, fib(%n)
  out %r
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{55}));
}

TEST(VM, MainArguments) {
  auto M = parseOrDie(R"(
func main(%x, %y) {
entry:
  add %s, %x, %y
  out %s
  ret %s
}
)");
  VM Machine(*M);
  auto R = Machine.run({30, 12});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{42}));
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(VM, FramesIsolatePerInvocation) {
  auto M = parseOrDie(R"(
func helper(%depth) {
entry:
  sw %depth, [frame+0]
  blez %depth, base
  addi %d1, %depth, -1
  call %ignored, helper(%d1)
base:
  lw %back, [frame+0]
  ret %back
}

func main() {
entry:
  li %n, 5
  call %r, helper(%n)
  out %r
  ret
}
)");
  // Each invocation's frame slot must be private: after the recursive
  // call, the outer frame still holds its own depth.
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{5}));
}

TEST(VM, FloatingPointPipeline) {
  auto M = parseOrDie(R"(
global fv 2

func main() {
entry:
  fli %a, 1.5
  fli %b, 2.25
  fadd %c, %a, %b
  s.s %c, fv
  l.s %d, fv
  fmul %e, %d, %d
  fcmplt %t, %a, %e
  fbeqz %t, skip
  li %yes, 1
  out %yes
skip:
  cp_to_int %bits, %e
  out %bits
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Output.size(), 2u);
  EXPECT_EQ(R.Output[0], 1);
  float E;
  static_assert(sizeof(float) == 4);
  std::memcpy(&E, &R.Output[1], 4);
  EXPECT_FLOAT_EQ(E, 3.75f * 3.75f);
}

TEST(VM, IntToFloatConversions) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 7
  cp_to_fp %fbits, %i
  cvtif %f, %fbits
  fadd %g, %f, %f
  cvtfi %gi, %g
  cp_to_int %out, %gi
  out %out
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{14}));
}

TEST(VM, FpaAssignedCodeComputesIntegerResults) {
  // FPa-offloaded integer arithmetic operates on integer bit patterns
  // held in FP registers; results must match plain integer execution.
  auto M = parseOrDie(R"(
func main() {
entry:
  li,a %x, 1000
  addi,a %y, %x, -58
  sll,a %z, %y, 2
  andi,a %w, %z, 4095
  out,a %w
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{(((1000 - 58) << 2) & 4095)}));
}

TEST(VM, ProfileCountsBlocks) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 0
  li %n, 17
loop:
  addi %i, %i, 1
  slt %t, %i, %n
  bne %t, %zero, loop
  out %i
  ret
}
)");
  VM::Options Opts;
  Opts.CollectProfile = true;
  VM Machine(*M, Opts);
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  const Function *F = M->functionByName("main");
  const BasicBlock *Entry = F->blocks()[0].get();
  const BasicBlock *Loop = F->blocks()[1].get();
  EXPECT_EQ(Machine.profile().countOf(Entry), 1u);
  EXPECT_EQ(Machine.profile().countOf(Loop), 17u);
  EXPECT_EQ(Machine.profile().DynInstrs, R.Steps);
}

TEST(VM, TraceRecordsBranchOutcomesAndAddresses) {
  auto M = parseOrDie(R"(
global g 1 = 11

func main() {
entry:
  li %i, 0
loop:
  addi %i, %i, 1
  slti %t, %i, 3
  bne %t, %zero, loop
  lw %v, g
  out %v
  ret
}
)");
  VM::Options Opts;
  Opts.CollectTrace = true;
  VM Machine(*M, Opts);
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  unsigned Branches = 0, Taken = 0, Loads = 0;
  for (const TraceEntry &TE : Machine.trace().entries()) {
    if (TE.I->isCondBranch()) {
      ++Branches;
      Taken += TE.Taken;
    }
    if (TE.I->isLoad()) {
      ++Loads;
      EXPECT_EQ(TE.MemAddr, Machine.globalAddress("g"));
    }
  }
  EXPECT_EQ(Branches, 3u); // Loop runs three iterations.
  EXPECT_EQ(Taken, 2u);
  EXPECT_EQ(Loads, 1u);
  // PCs are 4-byte spaced and monotone within a straight-line block.
  ASSERT_GE(Machine.trace().size(), 2u);
  EXPECT_EQ(Machine.trace().entry(1).Pc, Machine.trace().entry(0).Pc + 4);
}

TEST(VM, InfiniteLoopHitsBudget) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 1
spin:
  add %a, %a, %a
  jmp spin
}
)");
  VM::Options Opts;
  Opts.MaxSteps = 1000;
  VM Machine(*M, Opts);
  auto R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(VM, OutOfBoundsAccessFails) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %p, -4
  lw %v, 0(%p)
  out %v
  ret
}
)");
  auto R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(VM, DeepRecursionGuard) {
  auto M = parseOrDie(R"(
func f(%n) {
entry:
  addi %m, %n, 1
  call %r, f(%m)
  ret %r
}

func main() {
entry:
  li %z, 0
  call %r, f(%z)
  ret
}
)");
  VM Machine(*M);
  auto R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("depth"), std::string::npos);
}

} // namespace
