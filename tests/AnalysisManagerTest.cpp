//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the lazy, preservation-aware analysis manager: lazy
/// single-analysis construction, dependency-cascade invalidation,
/// per-pass preservation honoured across the HELIX sequence (proved via
/// the build/hit counters), the strictly-fewer-dominator-rebuilds
/// acceptance gate against the conservative invalidate-all baseline,
/// epoch/staleness bookkeeping, and heap-layout-independent determinism.
///
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"
#include "analysis/ValueRange.h"
#include "fuzz/ProgramGenerator.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "pipeline/PipelineBuilder.h"
#include "workloads/WorkloadBuilder.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

std::unique_ptr<Module> parse(const char *Text) {
  ParseResult R = parseModule(Text);
  EXPECT_TRUE(R.succeeded()) << R.Error;
  return std::move(R.M);
}

/// Two independent single-loop kernels plus a driver: the shape where
/// preservation pays — transforming one function must not drop the other
/// function's analyses.
const char *TwoKernels = R"(
global @a 64
global @b 64

func @k0(0) {
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

func @k1(0) {
entry:
  r0 = mov 0
  r7 = mov 0
  br hdr
hdr:
  r1 = cmplt r0, 64
  condbr r1, body, exit
body:
  r2 = add @b, r0
  r3 = load r2
  r7 = add r7, r3
  store r3, r2
  r0 = add r0, 1
  br hdr
exit:
  ret r7
}

func @main(0) {
entry:
  r0 = call @k0()
  r1 = call @k1()
  r2 = add r0, r1
  ret r2
}
)";

//===----------------------------------------------------------------------===//
// Laziness.
//===----------------------------------------------------------------------===//

TEST(AnalysisManager, BuildsOnlyWhatIsRequested) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  Function *K0 = M->findFunction("k0");

  AM.get<DominatorTree>(K0);
  // DomTree pulls in its CFG input and nothing else.
  EXPECT_TRUE(AM.isCached<CFGInfo>(K0));
  EXPECT_TRUE(AM.isCached<DominatorTree>(K0));
  EXPECT_FALSE(AM.isCached<LoopInfo>(K0));
  EXPECT_FALSE(AM.isCached<Liveness>(K0));
  EXPECT_FALSE(AM.hasModuleAnalyses());
  // Other functions are untouched.
  EXPECT_FALSE(AM.isCached<CFGInfo>(M->findFunction("k1")));

  EXPECT_EQ(AM.stats(AnalysisKind::CFG).Built, 1u);
  EXPECT_EQ(AM.stats(AnalysisKind::DomTree).Built, 1u);
  EXPECT_EQ(AM.stats(AnalysisKind::Loops).Built, 0u);
  EXPECT_EQ(AM.stats(AnalysisKind::Liveness).Built, 0u);

  // A second request is a pure cache hit.
  AM.get<DominatorTree>(K0);
  EXPECT_EQ(AM.stats(AnalysisKind::DomTree).Built, 1u);
  EXPECT_EQ(AM.stats(AnalysisKind::DomTree).Hits, 1u);
}

TEST(AnalysisManager, ModuleAnalysesBuildTheirDependencies) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  AM.get<MemEffects>();
  EXPECT_TRUE(AM.isCached<CallGraph>());
  EXPECT_TRUE(AM.isCached<PointsToAnalysis>());
  EXPECT_TRUE(AM.isCached<MemEffects>());
  EXPECT_EQ(AM.stats(AnalysisKind::CallGraph).Built, 1u);
  EXPECT_EQ(AM.stats(AnalysisKind::PointsTo).Built, 1u);
  EXPECT_EQ(AM.stats(AnalysisKind::MemEffects).Built, 1u);
  // No per-function analysis was needed for them.
  EXPECT_EQ(AM.numCachedFunctionAnalyses(), 0u);
}

//===----------------------------------------------------------------------===//
// Dependency-cascade invalidation.
//===----------------------------------------------------------------------===//

TEST(AnalysisManager, InvalidationCascadesAlongDependencies) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  Function *K0 = M->findFunction("k0");
  Function *K1 = M->findFunction("k1");
  AM.get<LoopInfo>(K0);
  AM.get<Liveness>(K0);
  AM.get<LoopInfo>(K1);
  AM.get<MemEffects>();

  // Claiming to preserve LoopInfo while abandoning its CFG input is
  // incoherent; the closure drops LoopInfo (and DomTree, Liveness) too.
  PreservedAnalyses PA = PreservedAnalyses::all().abandon<CFGInfo>();
  AM.invalidate(K0, PA);
  EXPECT_FALSE(AM.isCached<CFGInfo>(K0));
  EXPECT_FALSE(AM.isCached<DominatorTree>(K0));
  EXPECT_FALSE(AM.isCached<LoopInfo>(K0));
  EXPECT_FALSE(AM.isCached<Liveness>(K0));
  // Function-scoped invalidation: K1 and the module analyses survive.
  EXPECT_TRUE(AM.isCached<LoopInfo>(K1));
  EXPECT_TRUE(AM.isCached<MemEffects>());

  // Abandoning only Liveness drops exactly Liveness (no dependents).
  AM.get<LoopInfo>(K0);
  AM.get<Liveness>(K0);
  AM.invalidate(K0, PreservedAnalyses::all().abandon<Liveness>());
  EXPECT_TRUE(AM.isCached<LoopInfo>(K0));
  EXPECT_FALSE(AM.isCached<Liveness>(K0));

  // Abandoning the call graph cascades through points-to to mem-effects.
  AM.invalidate(K0, PreservedAnalyses::all().abandon<CallGraph>());
  EXPECT_FALSE(AM.isCached<CallGraph>());
  EXPECT_FALSE(AM.isCached<PointsToAnalysis>());
  EXPECT_FALSE(AM.isCached<MemEffects>());
  // ...while K0's function analyses were preserved.
  EXPECT_TRUE(AM.isCached<LoopInfo>(K0));
}

TEST(AnalysisManager, ValueRangeCascadesWithCFGButSurvivesLiveness) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  Function *K0 = M->findFunction("k0");
  Function *K1 = M->findFunction("k1");
  AM.get<ValueRangeAnalysis>(K0);
  AM.get<ValueRangeAnalysis>(K1);
  AM.get<Liveness>(K0);

  // ValueRange consumes CFG + DomTree + LoopInfo: abandoning the CFG must
  // cascade all the way down to it — a stale range fact on a rewritten
  // CFG would silently disprove real dependences.
  AM.invalidate(K0, PreservedAnalyses::all().abandon<CFGInfo>());
  EXPECT_FALSE(AM.isCached<ValueRangeAnalysis>(K0));
  EXPECT_TRUE(AM.isCached<ValueRangeAnalysis>(K1)); // function-scoped

  // Abandoning LoopInfo alone also drops ValueRange (widening seeds and
  // header identification come from it)...
  AM.get<ValueRangeAnalysis>(K0);
  AM.invalidate(K0, PreservedAnalyses::all().abandon<LoopInfo>());
  EXPECT_FALSE(AM.isCached<ValueRangeAnalysis>(K0));

  // ...while Liveness is not an input: ValueRange survives its loss.
  AM.get<ValueRangeAnalysis>(K0);
  AM.invalidate(K0, PreservedAnalyses::all().abandon<Liveness>());
  EXPECT_TRUE(AM.isCached<ValueRangeAnalysis>(K0));
  EXPECT_FALSE(AM.isCached<Liveness>(K0));
}

TEST(AnalysisManager, DefaultInvalidateDropsFunctionAndModule) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  Function *K0 = M->findFunction("k0");
  Function *K1 = M->findFunction("k1");
  AM.get<Liveness>(K0);
  AM.get<Liveness>(K1);
  AM.get<PointsToAnalysis>();
  uint64_t Epoch = AM.invalidationEpoch();

  AM.invalidate(K0);
  EXPECT_FALSE(AM.isCached<Liveness>(K0));
  EXPECT_FALSE(AM.isCached<PointsToAnalysis>());
  EXPECT_TRUE(AM.isCached<Liveness>(K1)); // other functions survive
  EXPECT_GT(AM.invalidationEpoch(), Epoch);

  AM.invalidateAll();
  EXPECT_FALSE(AM.isCached<Liveness>(K1));
  EXPECT_EQ(AM.numCachedFunctionAnalyses(), 0u);
  EXPECT_FALSE(AM.hasModuleAnalyses());
}

TEST(AnalysisManager, ConservativeModeNukesEverything) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  AM.setConservativeInvalidation(true);
  Function *K0 = M->findFunction("k0");
  Function *K1 = M->findFunction("k1");
  AM.get<LoopInfo>(K0);
  AM.get<LoopInfo>(K1);
  AM.get<CallGraph>();
  // Even a fully-preserving-but-liveness invalidation behaves like
  // invalidateAll in baseline mode.
  AM.invalidate(K0, PreservedAnalyses::all().abandon<Liveness>());
  EXPECT_FALSE(AM.isCached<LoopInfo>(K0));
  EXPECT_FALSE(AM.isCached<LoopInfo>(K1));
  EXPECT_FALSE(AM.isCached<CallGraph>());
}

//===----------------------------------------------------------------------===//
// Preservation honoured across the HELIX pass sequence.
//===----------------------------------------------------------------------===//

TEST(AnalysisManager, TransformPreservesOtherFunctionsAnalyses) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  Function *K0 = M->findFunction("k0");
  Function *K1 = M->findFunction("k1");
  // Like the fuzz driver: collect targets up front (builds both loop
  // infos), then transform.
  BasicBlock *H0 = AM.get<LoopInfo>(K0).loop(0)->header();
  AM.get<LoopInfo>(K1);
  ASSERT_EQ(AM.stats(AnalysisKind::DomTree).Built, 2u);

  HelixOptions Opts;
  ASSERT_TRUE(parallelizeLoop(AM, K0, H0, Opts).has_value());

  // K0 was mutated: its analyses are gone. K1's survived every pass —
  // signal-opt rewrote K0's instructions but declared the structural
  // analyses preserved, and wait-signal/lower invalidated K0 only.
  EXPECT_FALSE(AM.isCached<DominatorTree>(K0));
  EXPECT_TRUE(AM.isCached<DominatorTree>(K1));
  EXPECT_TRUE(AM.isCached<LoopInfo>(K1));

  // The counters agree: both dominator trees were built exactly once, and
  // transforming K1 now hits its cache instead of rebuilding.
  EXPECT_EQ(AM.stats(AnalysisKind::DomTree).Built, 2u);
  BasicBlock *H1 = AM.get<LoopInfo>(K1).loop(0)->header();
  ASSERT_TRUE(parallelizeLoop(AM, K1, H1, Opts).has_value());
  EXPECT_EQ(AM.stats(AnalysisKind::DomTree).Built, 2u);

  // Lowering created storage globals: memory-sensitive module analyses
  // must not have survived any transform.
  EXPECT_FALSE(AM.isCached<PointsToAnalysis>());
  EXPECT_FALSE(AM.isCached<MemEffects>());
}

/// The acceptance gate: the same two-loop transform under the
/// conservative invalidate-all baseline rebuilds the dominator tree
/// strictly more often — and produces bit-identical results.
TEST(AnalysisManager, StrictlyFewerDomTreeBuildsThanBaseline) {
  auto Run = [](bool Conservative) {
    auto M = parse(TwoKernels);
    AnalysisManager AM(*M);
    AM.setConservativeInvalidation(Conservative);
    std::vector<std::pair<Function *, BasicBlock *>> Targets;
    for (Function *F : *M)
      for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
        Targets.push_back({F, L->header()});
    HelixOptions Opts;
    unsigned Done = 0;
    for (auto &[F, H] : Targets)
      Done += parallelizeLoop(AM, F, H, Opts).has_value();
    EXPECT_EQ(Done, 2u);
    return std::make_pair(AM.stats(AnalysisKind::DomTree).Built,
                          M->toString());
  };
  auto [PreservingBuilds, PreservingIR] = Run(false);
  auto [BaselineBuilds, BaselineIR] = Run(true);
  EXPECT_LT(PreservingBuilds, BaselineBuilds);
  EXPECT_EQ(PreservingIR, BaselineIR); // invalidation policy is invisible
}

/// Pipeline edition of the same gate, through the model-profile sweep and
/// transform stage of the standard pipeline on a quickstart-style
/// two-kernel workload. The transform stage builds function analyses
/// lazily per loop (so dominator builds are already minimal — the
/// dominator delta is pinned by StrictlyFewerDomTreeBuildsThanBaseline
/// and bench_pass_performance's BM_AnalysisPreservation, where targets
/// are collected up front); what the stage-reported counters must show
/// is the module layer: the call graph survives each loop's transform
/// under preservation and is rebuilt per loop under the baseline.
TEST(AnalysisManager, PipelineTransformCountersBeatBaseline) {
  WorkloadSpec Spec;
  Spec.Name = "quickstart2k";
  Spec.Seed = 11;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2,
                  false,
                  {{KernelIdiom::Reduction, 60, 24, 16},
                   {KernelIdiom::Stencil, 60, 24, 16}}}};
  auto M = buildWorkload(Spec);

  auto CallGraphBuilt = [&](bool Conservative) {
    PipelineConfig C;
    // main -> phase loop -> kernel loops: the kernels sit at dynamic
    // level 3, one per kernel function, so both get chosen.
    C.Selection.ForceNestingLevel = 3;
    C.ConservativeAnalysisInvalidation = Conservative;
    PipelineContext Ctx(*M, C);
    PipelineReport R = PipelineBuilder::standard().run(Ctx);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_GE(Ctx.TransformedLoops.size(), 2u);
    uint64_t Built = 0;
    for (const AnalysisCounterReport &A : R.TransformAnalysisCounters)
      if (A.Analysis == "call-graph")
        Built = A.Built;
    EXPECT_GT(Built, 0u);
    return Built;
  };
  EXPECT_LT(CallGraphBuilt(false), CallGraphBuilt(true));
}

//===----------------------------------------------------------------------===//
// Determinism.
//===----------------------------------------------------------------------===//

TEST(AnalysisManager, TransformSequenceIsHeapLayoutIndependent) {
  // The old per-function cache was keyed by Function* in an ordered map,
  // so anything iterating it depended on heap layout. The new storage is
  // iteration-free; transforming two identical clones (different
  // allocation addresses) must produce identical IR and identical
  // counters.
  for (uint64_t Seed : {3ull, 7ull, 19ull}) {
    auto A = generateProgram(Seed);
    auto B = cloneModule(*A);
    auto Transform = [](Module &M) {
      AnalysisManager AM(M);
      std::vector<std::pair<Function *, BasicBlock *>> Targets;
      for (Function *F : M)
        for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
          Targets.push_back({F, L->header()});
      HelixOptions Opts;
      for (auto &[F, H] : Targets)
        (void)parallelizeLoop(AM, F, H, Opts);
      return AM.counterReport();
    };
    std::vector<AnalysisCounterReport> CA = Transform(*A);
    std::vector<AnalysisCounterReport> CB = Transform(*B);
    EXPECT_EQ(A->toString(), B->toString()) << "seed " << Seed;
    ASSERT_EQ(CA.size(), CB.size());
    for (size_t K = 0; K != CA.size(); ++K) {
      EXPECT_EQ(CA[K].Analysis, CB[K].Analysis);
      EXPECT_EQ(CA[K].Built, CB[K].Built) << CA[K].Analysis;
      EXPECT_EQ(CA[K].Hits, CB[K].Hits) << CA[K].Analysis;
      EXPECT_EQ(CA[K].Invalidated, CB[K].Invalidated) << CA[K].Analysis;
    }
  }
}

//===----------------------------------------------------------------------===//
// Counter reports.
//===----------------------------------------------------------------------===//

TEST(AnalysisManager, CounterReportAndMerge) {
  auto M = parse(TwoKernels);
  AnalysisManager AM(*M);
  AM.get<LoopInfo>(M->findFunction("k0"));
  std::vector<AnalysisCounterReport> R = AM.counterReport();
  ASSERT_EQ(R.size(), NumAnalysisKinds);
  EXPECT_EQ(R[unsigned(AnalysisKind::DomTree)].Analysis, "dom-tree");
  EXPECT_EQ(R[unsigned(AnalysisKind::DomTree)].Built, 1u);

  std::vector<AnalysisCounterReport> Sum;
  mergeAnalysisCounters(Sum, R);
  mergeAnalysisCounters(Sum, R);
  ASSERT_EQ(Sum.size(), NumAnalysisKinds);
  EXPECT_EQ(Sum[unsigned(AnalysisKind::DomTree)].Built, 2u);
  EXPECT_EQ(Sum[unsigned(AnalysisKind::CFG)].Built, 2u);
}

} // namespace
