//===- tests/DominatorLoopTest.cpp - DominatorTree and LoopInfo -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-built CFG fixtures for the mid-end's structural analyses:
/// immediate dominators and DFS-interval dominance queries on diamonds,
/// loops and unreachable blocks; natural-loop discovery (nesting,
/// preheaders, latches, exits) on nested and multi-latch loops,
/// including the irreducible-looking shape that must produce no
/// natural loop at all; and the AnalysisManager contract that
/// invalidate() drops "cfg", "domtree" and "loops" together.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "sir/Parser.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::analysis;
using namespace fpint::sir;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

using U = std::vector<unsigned>;

//===----------------------------------------------------------------------===//
// DominatorTree
//===----------------------------------------------------------------------===//

TEST(DominatorTree, DiamondWithUnreachable) {
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  blez %x, left
right:
  jmp join
left:
  jmp join
dead:
  jmp join
join:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  // entry=0, right=1, left=2, dead=3, join=4.
  AnalysisManager AM;
  const DominatorTree &DT = AM.getResult<DominatorTreeAnalysis>(F);

  EXPECT_EQ(DT.idom(0), 0u);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 0u);
  EXPECT_EQ(DT.idom(4), 0u); // Join: neither arm dominates it.
  EXPECT_EQ(DT.children(0), (U{1, 2, 4}));
  EXPECT_TRUE(DT.children(1).empty());
  EXPECT_TRUE(DT.children(4).empty());

  EXPECT_TRUE(DT.dominates(0, 4));
  EXPECT_TRUE(DT.properlyDominates(0, 1));
  EXPECT_FALSE(DT.dominates(1, 4));
  EXPECT_FALSE(DT.dominates(2, 4));
  EXPECT_FALSE(DT.properlyDominates(4, 4));

  // The unreachable block is outside the tree: self-idom, no children,
  // dominated by (and dominating) only itself.
  EXPECT_FALSE(DT.isReachable(3));
  EXPECT_EQ(DT.idom(3), 3u);
  EXPECT_TRUE(DT.children(3).empty());
  EXPECT_TRUE(DT.dominates(3, 3));
  EXPECT_FALSE(DT.dominates(3, 4));
  EXPECT_FALSE(DT.dominates(0, 3));

  // Pre-order covers exactly the reachable blocks, entry first.
  EXPECT_EQ(DT.preorder().size(), 4u);
  EXPECT_EQ(DT.preorder()[0], 0u);
}

TEST(DominatorTree, SelfLoopHeaderDominatesExit) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 0
loop:
  addi %i, %i, 1
  slti %c, %i, 4
  bne %c, %zero, loop
exit:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  // entry=0, loop=1, exit=2.
  AnalysisManager AM;
  const DominatorTree &DT = AM.getResult<DominatorTreeAnalysis>(F);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 1u);
}

//===----------------------------------------------------------------------===//
// LoopInfo
//===----------------------------------------------------------------------===//

TEST(LoopInfo, NestedLoops) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 0
outer:
  li %j, 0
inner:
  addi %j, %j, 1
  slti %tj, %j, 10
  bne %tj, %zero, inner
  addi %i, %i, 1
  slti %ti, %i, 10
  bne %ti, %zero, outer
  ret
}
)");
  const Function &F = *M->functionByName("main");
  // entry=0, outer=1, inner=2, after-inner=3 (outer latch), after=4.
  AnalysisManager AM;
  const LoopInfo &LI = AM.getResult<LoopInfoAnalysis>(F);
  ASSERT_EQ(LI.loops().size(), 2u);

  // Outermost first: loops()[0] is the outer loop.
  const Loop &Outer = LI.loops()[0];
  const Loop &Inner = LI.loops()[1];
  EXPECT_EQ(Outer.Header, 1u);
  EXPECT_EQ(Outer.Blocks, (U{1, 2, 3}));
  EXPECT_EQ(Outer.Latches, (U{3}));
  EXPECT_EQ(Outer.Parent, Loop::NoLoop);
  EXPECT_EQ(Outer.Depth, 1u);
  EXPECT_EQ(Outer.Preheader, 0u);
  EXPECT_EQ(Outer.Exiting, (U{3}));
  EXPECT_EQ(Outer.Exits, (U{4}));

  EXPECT_EQ(Inner.Header, 2u);
  EXPECT_EQ(Inner.Blocks, (U{2}));
  EXPECT_EQ(Inner.Latches, (U{2}));
  EXPECT_EQ(Inner.Parent, 0);
  EXPECT_EQ(Inner.Depth, 2u);
  EXPECT_EQ(Inner.Preheader, 1u); // The outer header feeds it directly.
  EXPECT_EQ(Inner.Exiting, (U{2}));
  EXPECT_EQ(Inner.Exits, (U{3}));

  EXPECT_TRUE(Outer.contains(2));
  EXPECT_FALSE(Inner.contains(3));
  EXPECT_EQ(LI.innermostLoop(2), 1);
  EXPECT_EQ(LI.innermostLoop(3), 0);
  EXPECT_EQ(LI.innermostLoop(0), Loop::NoLoop);
  EXPECT_EQ(LI.depth(2), 2u);
  EXPECT_EQ(LI.depth(3), 1u);
  EXPECT_EQ(LI.depth(4), 0u);
}

TEST(LoopInfo, MultiLatchMergesIntoOneLoop) {
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  li %i, 0
head:
  addi %i, %i, 1
  blez %x, latch2
mid:
  slti %t, %i, 5
  bne %t, %zero, head
  jmp exit
latch2:
  slti %t2, %i, 7
  bne %t2, %zero, head
exit:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  // entry=0, head=1, mid=2, anon-jmp=3, latch2=4, exit=5.
  AnalysisManager AM;
  const LoopInfo &LI = AM.getResult<LoopInfoAnalysis>(F);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];
  EXPECT_EQ(L.Header, 1u);
  EXPECT_EQ(L.Latches, (U{2, 4}));
  EXPECT_EQ(L.Blocks, (U{1, 2, 4}));
  EXPECT_EQ(L.Preheader, 0u);
  EXPECT_EQ(L.Exiting, (U{2, 4}));
  EXPECT_EQ(L.Exits, (U{3, 5}));
}

TEST(LoopInfo, IrreducibleShapeHasNoNaturalLoop) {
  // The cycle a <-> b is entered at both a and b, so neither endpoint
  // of the b->a edge is dominated by the other: no back edge, no loop.
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  blez %x, b
a:
  jmp b
b:
  blez %x, a
c:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  AnalysisManager AM;
  const LoopInfo &LI = AM.getResult<LoopInfoAnalysis>(F);
  EXPECT_TRUE(LI.loops().empty());
  EXPECT_EQ(LI.innermostLoop(1), Loop::NoLoop);
  EXPECT_EQ(LI.innermostLoop(2), Loop::NoLoop);
}

TEST(LoopInfo, NoPreheaderWhenEntryEdgeIsShared) {
  // Two outside predecessors reach the header: no preheader.
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  blez %x, head
other:
  jmp head
head:
  addi %i, %i, 1
  slti %t, %i, 3
  bne %t, %zero, head
exit:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  AnalysisManager AM;
  const LoopInfo &LI = AM.getResult<LoopInfoAnalysis>(F);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Preheader, Loop::NoBlock);
}

TEST(LoopInfo, NoPreheaderWhenOutsidePredBranches) {
  // The unique outside predecessor has a second successor, so hoisting
  // into it would execute on the bypass path: no preheader.
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  blez %x, exit
head:
  addi %i, %i, 1
  slti %t, %i, 3
  bne %t, %zero, head
exit:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  AnalysisManager AM;
  const LoopInfo &LI = AM.getResult<LoopInfoAnalysis>(F);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Header, 1u);
  EXPECT_EQ(LI.loops()[0].Preheader, Loop::NoBlock);
}

//===----------------------------------------------------------------------===//
// AnalysisManager integration
//===----------------------------------------------------------------------===//

TEST(DominatorLoopAnalyses, InvalidateDropsLoopsWithCfg) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 0
loop:
  addi %i, %i, 1
  slti %c, %i, 4
  bne %c, %zero, loop
exit:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  AnalysisManager AM;

  // Computing "loops" computes "domtree" and "cfg" through the manager.
  AM.getResult<LoopInfoAnalysis>(F);
  auto MissesOf = [&](const char *Name) {
    auto It = AM.countersByAnalysis().find(Name);
    return It == AM.countersByAnalysis().end() ? uint64_t(0)
                                               : It->second.Misses;
  };
  auto InvalidationsOf = [&](const char *Name) {
    auto It = AM.countersByAnalysis().find(Name);
    return It == AM.countersByAnalysis().end() ? uint64_t(0)
                                               : It->second.Invalidations;
  };
  EXPECT_EQ(MissesOf("cfg"), 1u);
  EXPECT_EQ(MissesOf("domtree"), 1u);
  EXPECT_EQ(MissesOf("loops"), 1u);

  // Cached: no further misses.
  AM.getResult<LoopInfoAnalysis>(F);
  AM.getResult<DominatorTreeAnalysis>(F);
  EXPECT_EQ(MissesOf("loops"), 1u);
  EXPECT_EQ(MissesOf("domtree"), 1u);

  // invalidate() drops all three, each counted once.
  AM.invalidate();
  EXPECT_EQ(InvalidationsOf("cfg"), 1u);
  EXPECT_EQ(InvalidationsOf("domtree"), 1u);
  EXPECT_EQ(InvalidationsOf("loops"), 1u);

  // Everything recomputes from scratch.
  AM.getResult<LoopInfoAnalysis>(F);
  EXPECT_EQ(MissesOf("cfg"), 2u);
  EXPECT_EQ(MissesOf("domtree"), 2u);
  EXPECT_EQ(MissesOf("loops"), 2u);
}

} // namespace
