//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the HELIX transformation itself: normalization, Wait/Signal
/// placement invariants, Step-6 signal minimization, lowering, inlining,
/// and — the key end-to-end property — sequential equivalence of the
/// transformed program on every workload idiom.
///
//===----------------------------------------------------------------------===//

#include "helix/HelixTransform.h"
#include "helix/Inliner.h"
#include "helix/Normalize.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "sim/Interpreter.h"
#include "workloads/WorkloadBuilder.h"

#include <gtest/gtest.h>

#include <set>

using namespace helix;

namespace {

std::unique_ptr<Module> parse(const char *Text) {
  ParseResult R = parseModule(Text);
  EXPECT_TRUE(R.succeeded()) << R.Error;
  return std::move(R.M);
}

const char *AccumLoop = R"(
global @a 64

func @main(0) {
entry:
  r0 = mov 0
  r7 = mov 0
  br hdr
hdr:
  r1 = cmplt r0, 64
  condbr r1, body, exit
body:
  r2 = add @a, r0
  r3 = load r2
  r7 = add r7, r3
  store r3, r2
  r0 = add r0, 1
  br hdr
exit:
  ret r7
}
)";

TEST(Normalize, PrologueIsHeaderForWhileLoops) {
  auto M = parse(AccumLoop);
  AnalysisManager AM(*M);
  Function *F = M->findFunction("main");
  NormalizedLoop NL = normalizeLoop(AM, F, F->findBlock("hdr"));
  ASSERT_TRUE(NL.Valid);
  EXPECT_EQ(NL.Prologue.size(), 1u);
  EXPECT_EQ(NL.Prologue[0]->name(), "hdr");
  EXPECT_EQ(NL.Body.size(), 1u);
  EXPECT_EQ(NL.Body[0]->name(), "body");
  EXPECT_EQ(NL.Latch->name(), "body");
}

TEST(Normalize, MergesMultipleLatches) {
  auto M = parse(R"(
func @main(0) {
entry:
  r0 = mov 0
  br hdr
hdr:
  r1 = cmplt r0, 10
  condbr r1, a, exit
a:
  r2 = and r0, 1
  r0 = add r0, 1
  condbr r2, hdr, b
b:
  br hdr
exit:
  ret r0
}
)");
  AnalysisManager AM(*M);
  Function *F = M->findFunction("main");
  NormalizedLoop NL = normalizeLoop(AM, F, F->findBlock("hdr"));
  ASSERT_TRUE(NL.Valid);
  // A unique latch now exists and the function still verifies.
  EXPECT_EQ(verifyFunction(*F), "");
  CFGInfo CFG(F);
  unsigned BackEdges = 0;
  for (BasicBlock *P : CFG.predecessors(F->findBlock("hdr")))
    if (P != F->entry() && P->name() != "entry")
      ++BackEdges;
  EXPECT_EQ(BackEdges, 1u);
}

TEST(Transform, BottomTestLoopDegeneratesToEmptyBody) {
  auto M = parse(R"(
func @main(0) {
entry:
  r0 = mov 0
  br body
body:
  r0 = add r0, 1
  r1 = cmplt r0, 10
  condbr r1, body, exit
exit:
  ret r0
}
)");
  AnalysisManager AM(*M);
  Function *F = M->findFunction("main");
  NormalizedLoop NL = normalizeLoop(AM, F, F->findBlock("body"));
  ASSERT_TRUE(NL.Valid);
  // Everything can reach the exit without the back edge: all prologue.
  EXPECT_TRUE(NL.Body.empty());
}

TEST(Transform, AccumulatorLoopGetsOneSegment) {
  auto M = parse(AccumLoop);
  AnalysisManager AM(*M);
  Function *F = M->findFunction("main");
  HelixOptions Opts;
  auto PLI = parallelizeLoop(AM, F, F->findBlock("hdr"), Opts);
  ASSERT_TRUE(PLI.has_value());
  EXPECT_EQ(PLI->Segments.size(), 1u);
  EXPECT_EQ(PLI->SlotOfReg.size(), 1u); // r7
  EXPECT_TRUE(PLI->SlotOfReg.count(7));
  EXPECT_FALSE(PLI->IterStarts.empty());
  EXPECT_TRUE(PLI->SelfStartingPrologue); // counted loop
  EXPECT_EQ(verifyFunction(*F), "");
}

TEST(Transform, WaitBeforeSignalOnEveryPath) {
  auto M = parse(AccumLoop);
  AnalysisManager AM(*M);
  Function *F = M->findFunction("main");
  HelixOptions Opts;
  auto PLI = parallelizeLoop(AM, F, F->findBlock("hdr"), Opts);
  ASSERT_TRUE(PLI.has_value());
  // Within every block, for each segment, no Signal precedes a Wait-less
  // region: scan blocks and check local ordering.
  for (BasicBlock *BB : PLI->LoopBlocks) {
    std::set<int64_t> Waited;
    for (Instruction *I : *BB) {
      if (I->opcode() == Opcode::Wait)
        Waited.insert(I->imm());
      if (I->opcode() == Opcode::SignalOp && !Waited.count(I->imm())) {
        // A preceding Wait must then exist in a dominating block; accept
        // only if some Wait for this segment exists at all.
        const SequentialSegment *S = PLI->segmentOf(I->imm());
        ASSERT_NE(S, nullptr);
        EXPECT_FALSE(S->Waits.empty());
      }
    }
  }
}

TEST(Transform, SignalOptReducesSynchronization) {
  // Two loads of the same location + a store: naive insertion creates
  // multiple wait/signal pairs; Step 6 must collapse them.
  auto M = parse(R"(
global @h 8

func @main(0) {
entry:
  r0 = mov 0
  br hdr
hdr:
  r1 = cmplt r0, 16
  condbr r1, body, exit
body:
  r2 = and r0, 7
  r3 = add @h, r2
  r4 = load r3
  r5 = add r4, 1
  store r5, r3
  r6 = load r3
  r0 = add r0, 1
  br hdr
exit:
  ret r0
}
)");
  auto Clone = cloneModule(*M);

  HelixOptions WithOpt;
  AnalysisManager AM1(*M);
  Function *F1 = M->findFunction("main");
  auto P1 = parallelizeLoop(AM1, F1, F1->findBlock("hdr"), WithOpt);
  ASSERT_TRUE(P1.has_value());

  HelixOptions NoOpt;
  NoOpt.EnableSignalOpt = false;
  AnalysisManager AM2(*Clone);
  Function *F2 = Clone->findFunction("main");
  auto P2 = parallelizeLoop(AM2, F2, F2->findBlock("hdr"), NoOpt);
  ASSERT_TRUE(P2.has_value());

  EXPECT_LT(P1->NumWaitsKept + P1->NumSignalsKept,
            P2->NumWaitsKept + P2->NumSignalsKept);
  EXPECT_LE(P1->Segments.size(), P2->Segments.size());
  EXPECT_GT(P1->NumWaitsInserted, 0u);
}

TEST(Transform, PointerChaseIsNotSelfStarting) {
  auto M = parse(R"(
global @list 34

func @main(0) {
entry:
  r0 = load @list
  r7 = mov 0
  br hdr
hdr:
  r1 = cmpne r0, 0
  condbr r1, body, exit
body:
  r2 = add r0, 1
  r3 = load r2
  r7 = add r7, r3
  r0 = load r0
  br hdr
exit:
  ret r7
}
)");
  AnalysisManager AM(*M);
  Function *F = M->findFunction("main");
  HelixOptions Opts;
  auto PLI = parallelizeLoop(AM, F, F->findBlock("hdr"), Opts);
  ASSERT_TRUE(PLI.has_value());
  EXPECT_FALSE(PLI->SelfStartingPrologue);
  EXPECT_GE(PLI->SlotOfReg.size(), 1u); // the node pointer crosses iterations
}

TEST(Inliner, PreservesSemantics) {
  auto M = parse(R"(
func @helper(2) {
entry:
  r2 = cmplt r0, r1
  condbr r2, lt, ge
lt:
  r3 = add r0, 100
  ret r3
ge:
  r4 = sub r0, r1
  ret r4
}

func @main(0) {
entry:
  r0 = call @helper(3, 5)
  r1 = call @helper(9, 5)
  r2 = add r0, r1
  ret r2
}
)");
  Interpreter I0(*M);
  int64_t Ref = I0.run().ReturnValue.asInt();

  Function *Main = M->findFunction("main");
  Instruction *FirstCall = nullptr;
  for (Instruction *I : *Main->entry())
    if (I->isCall()) {
      FirstCall = I;
      break;
    }
  ASSERT_NE(FirstCall, nullptr);
  ASSERT_TRUE(inlineCall(Main, FirstCall));
  EXPECT_EQ(verifyModule(*M), "");

  Interpreter I1(*M);
  ExecResult R = I1.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), Ref);
}

TEST(Inliner, RefusesDirectRecursion) {
  auto M = parse(R"(
func @rec(1) {
entry:
  r1 = cmplt r0, 1
  condbr r1, base, again
base:
  ret 0
again:
  r2 = sub r0, 1
  r3 = call @rec(r2)
  ret r3
}

func @main(0) {
entry:
  r0 = call @rec(3)
  ret r0
}
)");
  Function *Rec = M->findFunction("rec");
  Instruction *SelfCall = nullptr;
  for (BasicBlock *BB : *Rec)
    for (Instruction *I : *BB)
      if (I->isCall())
        SelfCall = I;
  ASSERT_NE(SelfCall, nullptr);
  EXPECT_FALSE(inlineCall(Rec, SelfCall));
}

/// The decisive property: for every workload idiom, the HELIX-transformed
/// program interpreted *sequentially* computes exactly the same result as
/// the original (sync operations are no-ops; slot traffic is identity).
class SequentialEquivalence
    : public ::testing::TestWithParam<KernelIdiom> {};

TEST_P(SequentialEquivalence, TransformPreservesResult) {
  WorkloadSpec Spec;
  Spec.Name = "t";
  Spec.Seed = 99;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2, false, {{GetParam(), 60, 24, 16}}}};
  auto M = buildWorkload(Spec);

  Interpreter I0(*M);
  ExecResult Ref = I0.run();
  ASSERT_TRUE(Ref.Ok) << Ref.Error;

  // Transform every loop of the kernel function.
  AnalysisManager AM(*M);
  Function *Kernel = nullptr;
  for (Function *F : *M)
    if (F->name().find(".k0.") != std::string::npos)
      Kernel = F;
  ASSERT_NE(Kernel, nullptr);
  std::vector<BasicBlock *> Headers;
  for (unsigned L = 0; L != AM.get<LoopInfo>(Kernel).numLoops(); ++L)
    Headers.push_back(AM.get<LoopInfo>(Kernel).loop(L)->header());
  HelixOptions Opts;
  unsigned Transformed = 0;
  for (BasicBlock *H : Headers)
    if (parallelizeLoop(AM, Kernel, H, Opts))
      ++Transformed;
  EXPECT_GE(Transformed, 1u);
  EXPECT_EQ(verifyModule(*M), "");

  Interpreter I1(*M);
  ExecResult After = I1.run();
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.ReturnValue.asInt(), Ref.ReturnValue.asInt());
}

INSTANTIATE_TEST_SUITE_P(
    AllIdioms, SequentialEquivalence,
    ::testing::Values(KernelIdiom::DoAll, KernelIdiom::DoAllFP,
                      KernelIdiom::Reduction, KernelIdiom::PointerChase,
                      KernelIdiom::Histogram, KernelIdiom::Stencil,
                      KernelIdiom::Branchy, KernelIdiom::Nested2D,
                      KernelIdiom::TwoAccum));

/// Property sweep: random transform option combinations must all preserve
/// sequential semantics on a mixed workload. Bits 0 and 2 of the mask pick
/// the switches; all 16 masks run because each also seeds a different
/// workload.
class OptionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(OptionSweep, AnyStepCombinationIsSound) {
  unsigned Mask = GetParam();
  WorkloadSpec Spec;
  Spec.Name = "mix";
  Spec.Seed = Mask * 7 + 1;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2,
                  false,
                  {{KernelIdiom::Histogram, 40, 20, 16},
                   {KernelIdiom::Stencil, 40, 20, 16},
                   {KernelIdiom::Reduction, 40, 20, 16}}}};
  auto M = buildWorkload(Spec);
  Interpreter I0(*M);
  int64_t Ref = I0.run().ReturnValue.asInt();

  HelixOptions Opts;
  Opts.EnableInlining = Mask & 1;
  Opts.EnableSignalOpt = Mask & 4;

  AnalysisManager AM(*M);
  unsigned Count = 0;
  for (Function *F : *M) {
    if (F->name().find(".k") == std::string::npos)
      continue;
    std::vector<BasicBlock *> Headers;
    LoopInfo &LI = AM.get<LoopInfo>(F);
    for (unsigned L = 0; L != LI.numLoops(); ++L)
      Headers.push_back(LI.loop(L)->header());
    for (BasicBlock *H : Headers)
      if (parallelizeLoop(AM, F, H, Opts))
        ++Count;
  }
  EXPECT_GE(Count, 3u);
  Interpreter I1(*M);
  ExecResult R = I1.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), Ref);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, OptionSweep,
                         ::testing::Range(0u, 16u));

} // namespace
