//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the composable pipeline API: stage composition and ordering,
/// pipeline-string parse/print round trips, stage-result caching across
/// configuration sweeps, analysis invalidation after the transform stage,
/// and the loop-pass manager.
///
//===----------------------------------------------------------------------===//

#include "helix/HelixTransform.h"
#include "helix/LoopPasses.h"
#include "ir/IRBuilder.h"
#include "pipeline/PipelineBuilder.h"
#include "pipeline/Stages.h"
#include "workloads/WorkloadBuilder.h"

#include <gtest/gtest.h>

#include <set>

using namespace helix;

namespace {

const char *FullPipeline = "profile,candidates,model-profile,select,transform,"
                           "check,validate,simulate";

//===----------------------------------------------------------------------===//
// Composition and pipeline strings.
//===----------------------------------------------------------------------===//

TEST(PipelineString, ParsePrintRoundTrip) {
  std::string Err;
  Pipeline P = PipelineBuilder().parse(FullPipeline).build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(P.str(), FullPipeline);

  // Parsing the printed form again reproduces it (fixed point).
  Pipeline P2 = PipelineBuilder().parse(P.str()).build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(P2.str(), P.str());

  // Whitespace is tolerated.
  Pipeline P3 =
      PipelineBuilder().parse(" profile , candidates ").build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(P3.str(), "profile,candidates");
}

TEST(PipelineString, ShorthandCompletesDependencies) {
  // The builder inserts missing dependencies before their dependents, so
  // the issue-style shorthand builds the full eight-stage pipeline.
  std::string Err;
  Pipeline P = PipelineBuilder()
                   .parse("profile,select,transform,validate,simulate")
                   .build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(P.str(), FullPipeline);

  // Even "simulate" alone pulls in everything.
  Pipeline P2 = PipelineBuilder().parse("simulate").build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(P2.str(), FullPipeline);
}

TEST(PipelineString, RejectsUnknownStage) {
  std::string Err;
  Pipeline P = PipelineBuilder().parse("profile,frobnicate").build(&Err);
  EXPECT_TRUE(P.empty());
  EXPECT_NE(Err.find("frobnicate"), std::string::npos);
}

TEST(PipelineString, RejectsDuplicatesAndOrderViolations) {
  std::string Err;
  Pipeline Dup = PipelineBuilder().parse("profile,profile").build(&Err);
  EXPECT_TRUE(Dup.empty());
  EXPECT_FALSE(Err.empty());

  // "profile" listed after "transform": transform's dependency completion
  // already placed profile earlier, so the explicit mention is an error.
  Pipeline Ord = PipelineBuilder().parse("transform,profile").build(&Err);
  EXPECT_TRUE(Ord.empty());
  EXPECT_NE(Err.find("profile"), std::string::npos);
}

TEST(PipelineString, StandardMatchesRegistry) {
  EXPECT_EQ(PipelineBuilder::standard().str(), FullPipeline);
  for (const std::string &Name : PipelineBuilder::standardStageNames())
    EXPECT_NE(PipelineBuilder::createStage(Name), nullptr) << Name;
  EXPECT_EQ(PipelineBuilder::createStage("nope"), nullptr);
}

//===----------------------------------------------------------------------===//
// Partial pipelines and stage ordering at run time.
//===----------------------------------------------------------------------===//

TEST(PipelineRun, PartialPipelineProducesPartialArtifacts) {
  auto M = buildSpecWorkload("gzip");
  ASSERT_NE(M, nullptr);
  PipelineContext Ctx(*M, PipelineConfig());

  std::string Err;
  Pipeline P = PipelineBuilder().parse("profile,candidates").build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  PipelineReport R = P.run(Ctx);
  ASSERT_TRUE(R.Ok) << R.Error;

  EXPECT_GT(R.SeqCycles, 0u);
  EXPECT_GT(R.NumCandidates, 0u);
  EXPECT_NE(Ctx.LNG, nullptr);
  EXPECT_FALSE(Ctx.Candidates.empty());
  // Later-stage artifacts were never produced.
  EXPECT_EQ(Ctx.Transformed, nullptr);
  EXPECT_TRUE(R.Loops.empty());

  // Extending the run on the same context reuses both completed stages.
  Pipeline Full = PipelineBuilder::standard();
  PipelineReport R2 = Full.run(Ctx);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(Ctx.timesExecuted("profile"), 1u);
  EXPECT_EQ(Ctx.timesReused("profile"), 1u);
  EXPECT_FALSE(R2.Loops.empty());
}

TEST(PipelineRun, InstrumentationSeesEveryStageSlot) {
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M, PipelineConfig());

  std::vector<std::string> Seen;
  std::vector<bool> Cached;
  std::string Err;
  Pipeline P = PipelineBuilder()
                   .parse(FullPipeline)
                   .instrument([&](const PipelineContext::StageRun &R) {
                     Seen.push_back(R.Name);
                     Cached.push_back(R.Cached);
                   })
                   .build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;

  ASSERT_TRUE(P.run(Ctx).Ok);
  ASSERT_EQ(Seen.size(), 8u);
  EXPECT_EQ(Seen.front(), "profile");
  EXPECT_EQ(Seen.back(), "simulate");
  for (bool C : Cached)
    EXPECT_FALSE(C); // first run executes everything

  // The profiling and validation stages attribute interpreter work.
  for (const PipelineContext::StageRun &R : Ctx.history())
    if (R.Name == "profile" || R.Name == "validate") {
      EXPECT_GT(R.InterpretedInstructions, 0u) << R.Name;
    }

  // Second run with the unchanged config: everything is a cache hit.
  Seen.clear();
  Cached.clear();
  ASSERT_TRUE(P.run(Ctx).Ok);
  ASSERT_EQ(Cached.size(), 8u);
  for (bool C : Cached)
    EXPECT_TRUE(C);
}

TEST(PipelineRun, EmptyPipelineReportsError) {
  // A failed build() yields an empty pipeline; running it must not look
  // like a successful (default-report) data point.
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M);
  Pipeline Bad = PipelineBuilder().parse("profile,frobnicate").build();
  ASSERT_TRUE(Bad.empty());
  PipelineReport R = Bad.run(Ctx);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("empty pipeline"), std::string::npos) << R.Error;
}

TEST(PipelineRun, FullyCachedPartialRunDoesNotReportStaleDownstream) {
  // Regression: when the new config changes the key of a stage that is
  // downstream of (and absent from) a fully cache-hitting partial
  // pipeline, the stale simulation numbers must still be swept.
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M, PipelineConfig());
  ASSERT_TRUE(PipelineBuilder::standard().run(Ctx).Ok);

  PipelineConfig B = PipelineConfig();
  B.Selection.SignalCycles = 110.0; // changes only select's key
  Ctx.setConfig(B);
  Pipeline P = PipelineBuilder().parse("candidates").build();
  PipelineReport R = P.run(Ctx); // every stage in P is a cache hit
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.NumCandidates, 0u);
  EXPECT_TRUE(R.Loops.empty());
  EXPECT_DOUBLE_EQ(R.Speedup, 1.0);
  EXPECT_FALSE(R.OutputsMatch);

  // Resuming the full pipeline under B matches a fresh context.
  PipelineReport RB = PipelineBuilder::standard().run(Ctx);
  PipelineConfig DC;
  DC.Selection.SignalCycles = 110.0;
  PipelineReport Fresh = PipelineBuilder::standard().run(*M, DC);
  ASSERT_TRUE(RB.Ok && Fresh.Ok);
  EXPECT_DOUBLE_EQ(RB.Speedup, Fresh.Speedup);
  EXPECT_EQ(RB.Loops.size(), Fresh.Loops.size());
}

TEST(PipelineRun, FailedRunSweepsDownstreamOutsidePipelineToo) {
  // Regression: when a stage fails, report fields owned by downstream
  // stages must be reset even when those stages are not part of the
  // failing (partial) pipeline.
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M, PipelineConfig());
  PipelineReport Full = PipelineBuilder::standard().run(Ctx);
  ASSERT_TRUE(Full.Ok);
  ASSERT_GT(Full.Speedup, 1.0);

  PipelineConfig B = PipelineConfig();
  B.MaxInterpInstructions = 1000; // no training/validation run can finish
  Ctx.setConfig(B);
  Pipeline P = PipelineBuilder().parse("validate").build(); // no simulate
  PipelineReport R = P.run(Ctx);
  ASSERT_FALSE(R.Ok);
  // The cap now applies to the profile training run too (it used to be
  // ignored there), so the chain fails at its first stage.
  EXPECT_NE(R.Error.find("sequential profiling run failed"),
            std::string::npos)
      << R.Error;
  // simulate is outside this pipeline, yet its stale fields are swept.
  EXPECT_DOUBLE_EQ(R.Speedup, 1.0);
  EXPECT_TRUE(R.Loops.empty());
  EXPECT_EQ(R.ParCycles, 0u);
  EXPECT_FALSE(R.OutputsMatch);
}

TEST(PipelineRun, TransformTerminalRunDropsStaleTraces) {
  // Regression: when transform re-runs in a pipeline without validate,
  // the context must not keep the previous run's TraceCollector, whose
  // LoopTraces point into the replaced TransformedLoops.
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M, PipelineConfig());
  ASSERT_TRUE(PipelineBuilder::standard().run(Ctx).Ok);
  ASSERT_NE(Ctx.Traces, nullptr);

  PipelineConfig B = PipelineConfig();
  B.Helix.EnableSignalOpt = false; // changes transform's cache key
  Ctx.setConfig(B);
  Pipeline P = PipelineBuilder().parse("transform").build();
  ASSERT_TRUE(P.run(Ctx).Ok);
  EXPECT_EQ(Ctx.Traces, nullptr);
}

TEST(PipelineRun, PartialRunResetsStaleDownstreamReportFields) {
  // After a full run, a partial run under a new config must not return
  // the earlier configuration's simulation numbers as if current.
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M, PipelineConfig());
  PipelineReport Full = PipelineBuilder::standard().run(Ctx);
  ASSERT_TRUE(Full.Ok);
  ASSERT_FALSE(Full.Loops.empty());

  PipelineConfig B = PipelineConfig();
  B.Selection.ForceNestingLevel = 2;
  Ctx.setConfig(B);
  Pipeline Sel = PipelineBuilder().parse("select").build();
  PipelineReport Partial = Sel.run(Ctx);
  ASSERT_TRUE(Partial.Ok) << Partial.Error;
  // Upstream fields stay (still valid for config B)...
  EXPECT_EQ(Partial.SeqCycles, Full.SeqCycles);
  EXPECT_GT(Partial.NumCandidates, 0u);
  // ...but downstream fields are back to defaults, not config A's values.
  EXPECT_TRUE(Partial.Loops.empty());
  EXPECT_DOUBLE_EQ(Partial.Speedup, 1.0);
  EXPECT_FALSE(Partial.OutputsMatch);
  EXPECT_EQ(Partial.ParCycles, 0u);
}

//===----------------------------------------------------------------------===//
// Stage-result caching across configuration sweeps.
//===----------------------------------------------------------------------===//

TEST(PipelineCache, SelectionSweepReusesProfilingStages) {
  // The Figure 12/13 ablation shape: sweep the assumed signal latency.
  // Everything up to and including model profiling must run exactly once.
  auto M = buildSpecWorkload("art");
  ASSERT_NE(M, nullptr);
  PipelineContext Ctx(*M, PipelineConfig());
  Pipeline P = PipelineBuilder::standard();

  const double Latencies[3] = {0.0, 4.0, 110.0};
  std::vector<PipelineReport> Reports;
  for (double S : Latencies) {
    PipelineConfig C = PipelineConfig();
    C.Selection.SignalCycles = S;
    Ctx.setConfig(C);
    PipelineReport R = P.run(Ctx);
    ASSERT_TRUE(R.Ok) << R.Error;
    Reports.push_back(R);
  }

  EXPECT_EQ(Ctx.timesExecuted("profile"), 1u);
  EXPECT_EQ(Ctx.timesReused("profile"), 2u);
  EXPECT_EQ(Ctx.timesExecuted("candidates"), 1u);
  EXPECT_EQ(Ctx.timesExecuted("model-profile"), 1u);
  // Selection and everything downstream re-ran per configuration point.
  EXPECT_EQ(Ctx.timesExecuted("select"), 3u);
  EXPECT_EQ(Ctx.timesExecuted("simulate"), 3u);

  // Cached sweeps must agree with from-scratch runs.
  for (unsigned K = 0; K != 3; ++K) {
    PipelineConfig DC;
    DC.Selection.SignalCycles = Latencies[K];
    PipelineReport Fresh = PipelineBuilder::standard().run(*M, DC);
    ASSERT_TRUE(Fresh.Ok);
    EXPECT_DOUBLE_EQ(Reports[K].Speedup, Fresh.Speedup);
    EXPECT_EQ(Reports[K].OutputsMatch, Fresh.OutputsMatch);
    EXPECT_EQ(Reports[K].Loops.size(), Fresh.Loops.size());
  }
}

TEST(PipelineCache, TransformKnobInvalidatesModelProfilingButNotProfile) {
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M, PipelineConfig());
  Pipeline P = PipelineBuilder::standard();
  ASSERT_TRUE(P.run(Ctx).Ok);

  PipelineConfig C = PipelineConfig();
  C.Helix.EnableSignalOpt = false; // Figure-10 style ablation point
  Ctx.setConfig(C);
  ASSERT_TRUE(P.run(Ctx).Ok);

  EXPECT_EQ(Ctx.timesExecuted("profile"), 1u); // training run reused
  EXPECT_EQ(Ctx.timesExecuted("candidates"), 1u);
  // The model profiles code produced by the (changed) transformation.
  EXPECT_EQ(Ctx.timesExecuted("model-profile"), 2u);
  EXPECT_EQ(Ctx.timesExecuted("transform"), 2u);
}

TEST(PipelineCache, PartialRunInvalidatesDownstreamOfOtherPipelines) {
  // Regression: an upstream stage re-running as part of a *different*
  // (shorter) pipeline must invalidate downstream results recorded by an
  // earlier full run, even when the downstream stages' own config keys
  // are unchanged.
  auto M = buildSpecWorkload("gzip");
  PipelineContext Ctx(*M, PipelineConfig());
  Pipeline Full = PipelineBuilder::standard();
  ASSERT_TRUE(Full.run(Ctx).Ok);

  PipelineConfig B = PipelineConfig();
  B.Selection.ForceNestingLevel = 2; // changes only select's key
  Ctx.setConfig(B);
  std::string Err;
  Pipeline PartialSelect = PipelineBuilder().parse("select").build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_TRUE(PartialSelect.run(Ctx).Ok);

  PipelineReport RB = Full.run(Ctx);
  ASSERT_TRUE(RB.Ok) << RB.Error;
  // transform's key did not change, but its input (Chosen) did: it must
  // have re-run, and the result must match a from-scratch run bit for
  // bit.
  EXPECT_EQ(Ctx.timesExecuted("transform"), 2u);
  PipelineConfig DC;
  DC.Selection.ForceNestingLevel = 2;
  PipelineReport Fresh = PipelineBuilder::standard().run(*M, DC);
  ASSERT_TRUE(Fresh.Ok);
  EXPECT_DOUBLE_EQ(RB.Speedup, Fresh.Speedup);
  EXPECT_EQ(RB.Loops.size(), Fresh.Loops.size());
  EXPECT_EQ(RB.OutputsMatch, Fresh.OutputsMatch);
}

TEST(PipelineCache, NearbyDoubleKnobsGetDistinctKeys) {
  // Regression: keys serialize doubles at full precision, so knobs that
  // differ beyond 6 significant digits still invalidate the stage.
  SelectionStage S;
  PipelineConfig A, B;
  A.Selection.SignalCycles = 110.0;
  B.Selection.SignalCycles = 110.0000001;
  EXPECT_NE(S.cacheKey(A), S.cacheKey(B));

  CandidateStage C;
  PipelineConfig F1, F2;
  F1.Selection.MinLoopCycleFraction = 0.002;
  F2.Selection.MinLoopCycleFraction = 0.0020000001;
  EXPECT_NE(C.cacheKey(F1), C.cacheKey(F2));
}

//===----------------------------------------------------------------------===//
// Analysis invalidation after the transform stage.
//===----------------------------------------------------------------------===//

TEST(PipelineInvalidation, TransformStageLeavesNoStaleAnalyses) {
  auto M = buildSpecWorkload("art");
  PipelineContext Ctx(*M, PipelineConfig());
  std::string Err;
  Pipeline P = PipelineBuilder().parse("transform").build(&Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_TRUE(P.run(Ctx).Ok);
  ASSERT_FALSE(Ctx.TransformedLoops.empty());

  // parallelizeLoop mutates functions of the transformed module; the
  // passes must have invalidated everything a mutation can touch: the
  // transformed functions' own analyses (the last mutating pass drops
  // them and nothing rebuilds them afterwards) and the memory-sensitive
  // module analyses (lowering created storage globals). The call graph
  // may legitimately survive — no transform changes call sites.
  ASSERT_NE(Ctx.TransformedAM, nullptr);
  AnalysisManager &TAM = *Ctx.TransformedAM;
  EXPECT_GT(TAM.invalidationEpoch(), 0u);
  EXPECT_FALSE(TAM.isCached<PointsToAnalysis>());
  EXPECT_FALSE(TAM.isCached<MemEffects>());
  for (const auto &[Node, PLI] : Ctx.TransformedLoops) {
    (void)Node;
    EXPECT_FALSE(TAM.isCached<CFGInfo>(PLI.F));
    EXPECT_FALSE(TAM.isCached<DominatorTree>(PLI.F));
    EXPECT_FALSE(TAM.isCached<LoopInfo>(PLI.F));
    EXPECT_FALSE(TAM.isCached<Liveness>(PLI.F));
  }
  // And the counters prove invalidation was *not* wholesale: dominator
  // trees were reused across the per-loop pass sequences.
  EXPECT_GT(TAM.stats(AnalysisKind::DomTree).Hits, 0u);

  // The pristine module's analyses were not touched by the transform.
  for (const auto &[Node, PLI] : Ctx.TransformedLoops) {
    (void)Node;
    EXPECT_NE(PLI.F->parent(), Ctx.Pristine.get());
  }
}

//===----------------------------------------------------------------------===//
// Loop-pass manager.
//===----------------------------------------------------------------------===//

/// for (i = 0; i < 512; ++i) sum += i  — a minimal parallelizable loop.
std::unique_ptr<Module> tinyLoopModule() {
  auto M = std::make_unique<Module>();
  Function *F = M->createFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Hdr = F->createBlock("hdr");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  using Op = Operand;
  B.setInsertPoint(Entry);
  B.br(Hdr);
  B.setInsertPoint(Hdr);
  unsigned I = F->allocReg(), Sum = F->allocReg();
  unsigned C = B.cmpLT(Op::reg(I), Op::immInt(512));
  B.condBr(Op::reg(C), Body, Exit);
  B.setInsertPoint(Body);
  B.binaryTo(Sum, Opcode::Add, Op::reg(Sum), Op::reg(I));
  B.binaryTo(I, Opcode::Add, Op::reg(I), Op::immInt(1));
  B.br(Hdr);
  B.setInsertPoint(Exit);
  B.ret(Op::reg(Sum));
  return M;
}

TEST(LoopPasses, StandardSequenceNamesAndOrder) {
  LoopPassManager PM;
  addStandardHelixLoopPasses(PM);
  const std::vector<std::string> Expected = {
      "normalize",   "dependence", "inline", "characterize",
      "wait-signal", "signal-opt", "lower",  "finalize"};
  EXPECT_EQ(PM.passNames(), Expected);
}

// Note: parallelizeLoop *delegates* to the standard pass list, so this is
// not an old-vs-new equivalence check; it guards the API wiring — a
// hand-assembled manager must keep producing the wrapper's results even
// if the wrapper later gains extra passes or setup.
TEST(LoopPasses, HandAssembledManagerMatchesWrapper) {
  auto M1 = tinyLoopModule();
  AnalysisManager AM1(*M1);
  HelixOptions Opts;
  std::optional<ParallelLoopInfo> Direct = parallelizeLoop(
      AM1, M1->findFunction("main"), M1->findFunction("main")->findBlock("hdr"),
      Opts);
  ASSERT_TRUE(Direct.has_value());

  auto M2 = tinyLoopModule();
  AnalysisManager AM2(*M2);
  LoopPassManager PM;
  addStandardHelixLoopPasses(PM);
  std::optional<ParallelLoopInfo> ViaManager = PM.run(
      AM2, M2->findFunction("main"), M2->findFunction("main")->findBlock("hdr"),
      Opts);
  ASSERT_TRUE(ViaManager.has_value());

  EXPECT_EQ(Direct->NumDepsCarried, ViaManager->NumDepsCarried);
  EXPECT_EQ(Direct->NumSignalsInserted, ViaManager->NumSignalsInserted);
  EXPECT_EQ(Direct->NumSignalsKept, ViaManager->NumSignalsKept);
  EXPECT_EQ(Direct->Segments.size(), ViaManager->Segments.size());
  EXPECT_EQ(Direct->CodeSizeInstrs, ViaManager->CodeSizeInstrs);

  // Explicit invalidation: nothing stale is left behind for the mutated
  // function, and the memory-sensitive module analyses are gone too
  // (lowering created a storage global the old points-to cannot know).
  Function *Main2 = M2->findFunction("main");
  EXPECT_FALSE(AM2.isCached<CFGInfo>(Main2));
  EXPECT_FALSE(AM2.isCached<LoopInfo>(Main2));
  EXPECT_FALSE(AM2.isCached<PointsToAnalysis>());
  EXPECT_FALSE(AM2.isCached<MemEffects>());
  EXPECT_GT(AM2.invalidationEpoch(), 0u);
}

TEST(LoopPasses, CustomPassCanBeComposed) {
  struct CountingPass : LoopPass {
    unsigned *Calls;
    explicit CountingPass(unsigned *Calls) : Calls(Calls) {}
    const char *name() const override { return "count"; }
    PassResult run(AnalysisManager &, LoopPassState &S) override {
      ++*Calls;
      EXPECT_TRUE(S.NL.Valid); // runs after normalize
      return preservingAll();
    }
  };

  unsigned Calls = 0;
  LoopPassManager PM;
  addStandardHelixLoopPasses(PM);
  PM.add(std::make_unique<CountingPass>(&Calls));
  EXPECT_EQ(PM.size(), 9u);

  auto M = tinyLoopModule();
  AnalysisManager AM(*M);
  HelixOptions Opts;
  ASSERT_TRUE(PM.run(AM, M->findFunction("main"),
                     M->findFunction("main")->findBlock("hdr"), Opts)
                  .has_value());
  EXPECT_EQ(Calls, 1u);
}

TEST(LoopPasses, AbortsOnNonLoopHeader) {
  auto M = tinyLoopModule();
  AnalysisManager AM(*M);
  HelixOptions Opts;
  LoopPassManager PM;
  addStandardHelixLoopPasses(PM);
  // "entry" heads no loop: normalize must abort the pass sequence.
  EXPECT_FALSE(PM.run(AM, M->findFunction("main"),
                      M->findFunction("main")->findBlock("entry"), Opts)
                   .has_value());
}

TEST(Instrumentation, TransformStageReportsPassTimings) {
  // The transform stage attributes its wall time to the individual HELIX
  // steps (loop-pass timing); a standard run over a benchmark that
  // chooses loops must surface every standard pass at least once.
  auto M = buildSpecWorkload("art");
  PipelineReport R = PipelineBuilder::standard().run(*M, PipelineConfig());
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_FALSE(R.Loops.empty());
  ASSERT_FALSE(R.TransformPassTimings.empty());
  // One invocation per pass per transformed loop, accumulated.
  std::set<std::string> Names;
  for (const LoopPassTiming &T : R.TransformPassTimings) {
    EXPECT_GE(T.Invocations, unsigned(R.Loops.size())) << T.Pass;
    EXPECT_GE(T.Millis, 0.0);
    Names.insert(T.Pass);
  }
  for (const char *Expected :
       {"normalize", "dependence", "inline", "characterize", "wait-signal",
        "signal-opt", "lower", "finalize"})
    EXPECT_TRUE(Names.count(Expected)) << Expected;
}

} // namespace
