//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the decoded execution engine against the retained
/// tree-walk reference: ExecResult fields, observer event streams, loop
/// traces and runtime statistics must match instruction-for-instruction on
/// every workload idiom, plus decode/cache semantics and a fuzz smoke
/// running all three oracle legs on the engine.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "fuzz/Fuzzer.h"
#include "helix/HelixTransform.h"
#include "ir/Clone.h"
#include "ir/IRParser.h"
#include "runtime/ThreadedRuntime.h"
#include "sim/Interpreter.h"
#include "sim/TraceCollector.h"
#include "sim/TreeWalkInterpreter.h"
#include "workloads/WorkloadBuilder.h"

#include <gtest/gtest.h>

using namespace helix;

namespace {

void expectResultsEqual(const ExecResult &Ref, const ExecResult &Got) {
  EXPECT_EQ(Ref.Ok, Got.Ok) << Ref.Error << " vs " << Got.Error;
  EXPECT_EQ(Ref.Error, Got.Error);
  EXPECT_EQ(Ref.BudgetExhausted, Got.BudgetExhausted);
  EXPECT_TRUE(Ref.ReturnValue == Got.ReturnValue);
  EXPECT_EQ(Ref.Cycles, Got.Cycles);
  EXPECT_EQ(Ref.Instructions, Got.Instructions);
}

void expectTracesEqual(const TraceCollector &Ref, const TraceCollector &Got) {
  EXPECT_EQ(Ref.outsideCycles(), Got.outsideCycles());
  ASSERT_EQ(Ref.traces().size(), Got.traces().size());
  for (size_t L = 0; L != Ref.traces().size(); ++L) {
    const LoopTraces &RT = Ref.traces()[L];
    const LoopTraces &GT = Got.traces()[L];
    ASSERT_EQ(RT.Invocations.size(), GT.Invocations.size()) << "loop " << L;
    for (size_t V = 0; V != RT.Invocations.size(); ++V) {
      const InvocationTrace &RI = RT.Invocations[V];
      const InvocationTrace &GI = GT.Invocations[V];
      EXPECT_EQ(RI.SeqCycles, GI.SeqCycles);
      ASSERT_EQ(RI.Iterations.size(), GI.Iterations.size())
          << "loop " << L << " invocation " << V;
      for (size_t I = 0; I != RI.Iterations.size(); ++I) {
        const IterationTrace &RIt = RI.Iterations[I];
        const IterationTrace &GIt = GI.Iterations[I];
        EXPECT_EQ(RIt.TotalCycles, GIt.TotalCycles);
        EXPECT_EQ(RIt.PrologueCycles, GIt.PrologueCycles);
        EXPECT_EQ(RIt.SegmentCycles, GIt.SegmentCycles);
        EXPECT_EQ(RIt.NumLoads, GIt.NumLoads);
        ASSERT_EQ(RIt.Events.size(), GIt.Events.size())
            << "loop " << L << " invocation " << V << " iteration " << I;
        for (size_t E = 0; E != RIt.Events.size(); ++E) {
          EXPECT_EQ(RIt.Events[E].K, GIt.Events[E].K);
          EXPECT_EQ(RIt.Events[E].A, GIt.Events[E].A);
          EXPECT_EQ(RIt.Events[E].C, GIt.Events[E].C);
        }
      }
    }
  }
}

/// Transforms every loop of every kernel function of \p M (in a clone) and
/// returns the clone plus loop metadata.
struct Prepared {
  std::unique_ptr<Module> M;
  std::vector<ParallelLoopInfo> Loops;
};

Prepared prepare(const Module &Original) {
  Prepared Out;
  CloneMap Map;
  Out.M = cloneModule(Original, &Map);
  AnalysisManager AM(*Out.M);
  HelixOptions Opts;
  std::vector<std::pair<Function *, BasicBlock *>> Targets;
  for (Function *F : *Out.M) {
    if (F->name().find(".k") == std::string::npos)
      continue;
    for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
      Targets.push_back({F, L->header()});
  }
  for (auto &[F, H] : Targets) {
    auto PLI = parallelizeLoop(AM, F, H, Opts);
    if (PLI)
      Out.Loops.push_back(std::move(*PLI));
  }
  return Out;
}

std::unique_ptr<Module> idiomWorkload(KernelIdiom Idiom) {
  WorkloadSpec Spec;
  Spec.Name = "exec";
  Spec.Seed = 11;
  Spec.MainRepeat = 2;
  Spec.Phases = {{2, false, {{Idiom, 80, 30, 16}}}};
  return buildWorkload(Spec);
}

class DecodedIdiom : public ::testing::TestWithParam<KernelIdiom> {};

/// Plain sequential execution: decoded run must match the tree-walk run in
/// result, error, cycle and instruction accounting.
TEST_P(DecodedIdiom, SequentialMatchesTreeWalk) {
  auto M = idiomWorkload(GetParam());
  TreeWalkInterpreter Ref(*M);
  ExecResult RefR = Ref.run();
  Interpreter Dec(*M);
  ExecResult DecR = Dec.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;
  expectResultsEqual(RefR, DecR);
}

/// The tracing driver: run the transformed module under a TraceCollector
/// on both engines; every invocation, iteration and event must agree.
TEST_P(DecodedIdiom, TracesMatchTreeWalk) {
  auto M = idiomWorkload(GetParam());
  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);

  TraceCollector RefTC(Ptrs);
  TreeWalkInterpreter Ref(*P.M);
  Ref.setObserver(&RefTC);
  ExecResult RefR = Ref.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;

  TraceCollector DecTC(Ptrs);
  Interpreter Dec(*P.M);
  Dec.setObserver(&DecTC);
  ExecResult DecR = Dec.run();

  expectResultsEqual(RefR, DecR);
  expectTracesEqual(RefTC, DecTC);
}

/// The threaded driver: decoded workers must compute the sequential
/// checksum, and the runtime statistics (invocations, iterations, signals)
/// must be thread-count invariant — every iteration executes the same
/// decoded code no matter which worker runs it.
TEST_P(DecodedIdiom, ThreadedMatchesSequentialAndStatsAreStable) {
  auto M = idiomWorkload(GetParam());
  TreeWalkInterpreter Ref(*M);
  ExecResult RefR = Ref.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;

  Prepared P = prepare(*M);
  ASSERT_FALSE(P.Loops.empty());
  std::vector<const ParallelLoopInfo *> Ptrs;
  for (auto &L : P.Loops)
    Ptrs.push_back(&L);

  RuntimeStats First;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    RuntimeStats Stats;
    ExecResult R = runThreaded(*P.M, Ptrs, Threads, &Stats);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.ReturnValue == RefR.ReturnValue) << "threads " << Threads;
    EXPECT_GT(Stats.ParallelInvocations, 0u);
    EXPECT_GT(Stats.ParallelIterations, 0u);
    if (Threads == 1u) {
      First = Stats;
      continue;
    }
    EXPECT_EQ(Stats.ParallelInvocations, First.ParallelInvocations);
    EXPECT_EQ(Stats.ParallelIterations, First.ParallelIterations);
    EXPECT_EQ(Stats.SignalsSent, First.SignalsSent);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllIdioms, DecodedIdiom,
    ::testing::Values(KernelIdiom::DoAll, KernelIdiom::DoAllFP,
                      KernelIdiom::Reduction, KernelIdiom::PointerChase,
                      KernelIdiom::Histogram, KernelIdiom::Stencil,
                      KernelIdiom::Branchy, KernelIdiom::Nested2D,
                      KernelIdiom::TwoAccum));

/// Observer event streams must be identical element-for-element: same
/// instructions in the same order with the same costs, same edges.
TEST(ExecEngine, ObserverStreamMatchesTreeWalk) {
  struct Recorder : ExecObserver {
    std::vector<std::pair<const Instruction *, unsigned>> Instrs;
    std::vector<std::pair<const BasicBlock *, const BasicBlock *>> Edges;
    std::vector<unsigned> Depths;
    void onInstruction(const Instruction *I, unsigned Cycles,
                       ExecState &S) override {
      Instrs.push_back({I, Cycles});
      Depths.push_back(S.callDepth());
    }
    void onEdge(const BasicBlock *From, const BasicBlock *To,
                ExecState &) override {
      Edges.push_back({From, To});
    }
  };

  auto M = buildSpecWorkload("mcf");
  Recorder Ref, Dec;
  TreeWalkInterpreter RefI(*M);
  RefI.setObserver(&Ref);
  ASSERT_TRUE(RefI.run().Ok);
  Interpreter DecI(*M);
  DecI.setObserver(&Dec);
  ASSERT_TRUE(DecI.run().Ok);

  ASSERT_EQ(Ref.Instrs.size(), Dec.Instrs.size());
  EXPECT_TRUE(Ref.Instrs == Dec.Instrs);
  EXPECT_TRUE(Ref.Edges == Dec.Edges);
  EXPECT_TRUE(Ref.Depths == Dec.Depths);
}

TEST(ExecEngine, TrapsMatchTreeWalk) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = mov 5\n  r1 = div r0, 0\n  ret r1\n}\n");
  ASSERT_TRUE(P.succeeded());
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  expectResultsEqual(Ref.run(), Dec.run());
}

TEST(ExecEngine, BudgetMatchesTreeWalk) {
  ParseResult P = parseModule("func @main(0) {\nentry:\n  br entry\n}\n");
  ASSERT_TRUE(P.succeeded());
  TreeWalkInterpreter Ref(*P.M);
  Ref.setMaxInstructions(1234);
  Interpreter Dec(*P.M);
  Dec.setMaxInstructions(1234);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  EXPECT_TRUE(RefR.BudgetExhausted);
  expectResultsEqual(RefR, DecR);
}

TEST(ExecEngine, FunctionArgumentsAndNamedEntryPoints) {
  ParseResult P = parseModule("func @addmul(2) {\nentry:\n  r2 = add r0, r1\n"
                              "  r3 = mul r2, r0\n  ret r3\n}\n"
                              "func @main(0) {\nentry:\n  ret 0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Interpreter Dec(*P.M);
  ExecResult R = Dec.run("addmul", {Value::ofInt(3), Value::ofInt(4)});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ReturnValue.asInt(), 21);
  EXPECT_FALSE(Dec.run("nosuch").Ok);
  EXPECT_FALSE(Dec.run("addmul", {Value::ofInt(1)}).Ok); // arity mismatch
}

TEST(ExecEngine, DecodeCacheHitsAndInvalidation) {
  ParseResult P = parseModule(
      "func @main(0) {\nentry:\n  r0 = add 40, 2\n  ret r0\n}\n");
  ASSERT_TRUE(P.succeeded());
  Module &M = *P.M;

  DecodeCache &Cache = DecodeCache::global();
  Cache.invalidate(M);
  uint64_t Decodes0 = Cache.decodes(), Hits0 = Cache.hits();

  auto A = Cache.get(M);
  auto B = Cache.get(M);
  EXPECT_EQ(A.get(), B.get()); // same decode served twice
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);
  EXPECT_EQ(Cache.hits(), Hits0 + 1);

  // Engines running the same module share the decode...
  Interpreter I1(M), I2(M);
  EXPECT_EQ(&I1.program(), &I2.program());
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);

  // ...until the module is mutated: the structural fingerprint changes and
  // the cache re-decodes instead of serving stale code.
  uint64_t FPBefore = ExecProgram::fingerprintModule(M);
  Module &Mut = M;
  Mut.function(0)->block(0)->instr(0)->setImm(7); // any semantic change
  EXPECT_NE(ExecProgram::fingerprintModule(M), FPBefore);
  auto C = Cache.get(M);
  EXPECT_NE(A.get(), C.get());
  EXPECT_EQ(Cache.decodes(), Decodes0 + 2);
}

TEST(ExecEngine, DecodePreResolvesOperandsAndTargets) {
  ParseResult P = parseModule(R"(
global @g 4 = {10, 20, 30}

func @main(0) {
entry:
  r0 = add @g, 1
  r1 = load r0
  br next
next:
  ret r1
}
)");
  ASSERT_TRUE(P.succeeded());
  ExecProgram Prog(*P.M);
  const DecodedFunction *Main = Prog.findFunction("main");
  ASSERT_NE(Main, nullptr);
  ASSERT_EQ(Main->code().size(), 4u);
  // The global operand became a pooled constant holding its base address.
  EXPECT_TRUE(Main->code()[0].Ops[0] & ConstOperandBit);
  EXPECT_EQ(Prog.constants()[Main->code()[0].Ops[0] & ~ConstOperandBit].asInt(),
            int64_t(Prog.globalBase(0)));
  // The branch target is a flat PC, pointing at the ret.
  EXPECT_EQ(Main->code()[2].Op, Opcode::Br);
  EXPECT_EQ(Main->code()[2].Succ1, 3u);
  EXPECT_EQ(Main->code()[3].Op, Opcode::Ret);
}

//===----------------------------------------------------------------------===//
// Budget cutoffs
//===----------------------------------------------------------------------===//

/// Records the reference's instruction stream with per-instruction costs.
struct StreamRecorder : ExecObserver {
  std::vector<const Instruction *> Instrs;
  std::vector<uint64_t> CyclePrefix{0}; ///< cycles of Instrs[0..K)
  void onInstruction(const Instruction *I, unsigned Cycles,
                     ExecState &) override {
    Instrs.push_back(I);
    CyclePrefix.push_back(CyclePrefix.back() + Cycles);
  }
};

/// The instruction \p Ctx resumes at after a budget stop.
const Instruction *resumeInstr(const ExecContext &Ctx) {
  const ExecContext::Frame &Fr = Ctx.Frames.back();
  return Fr.F->SrcOf[Fr.PC];
}

/// A budget cutoff must leave the engine exactly where the tree-walk
/// reference stops: same steps, cycles and error, and a resume PC naming
/// the instruction the reference would execute next. Swept over every step
/// of the idiom, so cutoffs land on every position of a straight-line
/// segment as well as on branches, calls and returns.
TEST(ExecEngine, BudgetCutoffsMatchTreeWalk) {
  auto M = idiomWorkload(KernelIdiom::Branchy);
  // With budget B the reference has executed exactly Stream.Instrs[0..B)
  // and would execute Stream.Instrs[B] next.
  StreamRecorder Stream;
  TreeWalkInterpreter Full(*M);
  Full.setObserver(&Stream);
  ExecResult FullR = Full.run();
  ASSERT_TRUE(FullR.Ok) << FullR.Error;
  const uint64_t Total = FullR.Instructions;
  ASSERT_EQ(Stream.Instrs.size(), Total);

  ExecProgram Prog(*M);
  const DecodedFunction *Main = Prog.findFunction("main");
  ASSERT_NE(Main, nullptr);

  // Every step: one engine context resumed one step at a time, so the
  // sweep stays linear in the run length. Each stop is compared with the
  // reference's state after the same number of steps.
  {
    PrivateExecMemory Mem(Prog);
    ExecContext Ctx;
    Ctx.pushFrame(*Main);
    for (uint64_t B = 1; B < Total; ++B) {
      Ctx.MaxSteps = B;
      Ctx.Error.clear();
      Ctx.BudgetExhausted = false;
      ASSERT_EQ(runEngine(Prog, Mem, Ctx, DefaultExecHooks()),
                ExecStop::Trapped)
          << "budget " << B;
      ASSERT_TRUE(Ctx.BudgetExhausted) << "budget " << B;
      ASSERT_EQ(Ctx.Steps, B);
      ASSERT_EQ(Ctx.Cycles, Stream.CyclePrefix[B]) << "budget " << B;
      ASSERT_EQ(Ctx.Error, formatStr("instruction budget exhausted (%llu)",
                                     (unsigned long long)B));
      ASSERT_EQ(resumeInstr(Ctx), Stream.Instrs[B]) << "budget " << B;
    }
    Ctx.MaxSteps = Total;
    EXPECT_EQ(runEngine(Prog, Mem, Ctx, DefaultExecHooks()),
              ExecStop::Returned);
    EXPECT_EQ(Ctx.Steps, Total);
    EXPECT_EQ(Ctx.Cycles, FullR.Cycles);
    EXPECT_TRUE(Ctx.Returned == FullR.ReturnValue);
  }

  // Fresh budgeted runs of both engines side by side: every budget through
  // the first kernel iterations, then a stride through the run and around
  // its end.
  std::vector<uint64_t> Budgets = {Total - 2, Total - 1, Total};
  for (uint64_t B = 1; B < Total; B += B < 600 ? 1 : 97)
    Budgets.push_back(B);
  for (uint64_t B : Budgets) {
    TreeWalkInterpreter Ref(*M);
    Ref.setMaxInstructions(B);
    ExecResult RefR = Ref.run();
    PrivateExecMemory Mem(Prog);
    ExecContext Ctx;
    Ctx.MaxSteps = B;
    Ctx.pushFrame(*Main);
    ExecStop Stop = runEngine(Prog, Mem, Ctx, DefaultExecHooks());
    EXPECT_EQ(Stop == ExecStop::Returned, RefR.Ok) << "budget " << B;
    EXPECT_EQ(Ctx.Steps, RefR.Instructions) << "budget " << B;
    EXPECT_EQ(Ctx.Cycles, RefR.Cycles) << "budget " << B;
    EXPECT_EQ(Ctx.Error, RefR.Error) << "budget " << B;
    EXPECT_EQ(Ctx.BudgetExhausted, RefR.BudgetExhausted) << "budget " << B;
    if (Stop != ExecStop::Returned) {
      EXPECT_EQ(resumeInstr(Ctx), Stream.Instrs[B]) << "budget " << B;
    }
  }
}

/// An observed run decodes its module once: observers see the same decoded
/// program an unobserved run executes, not a second variant of it.
TEST(ExecEngine, ObservedRunDecodesOnce) {
  auto M = idiomWorkload(KernelIdiom::Reduction);
  DecodeCache &Cache = DecodeCache::global();
  Cache.clear();
  DecodeCache::Counters C0 = Cache.counters();

  StreamRecorder Stream;
  Interpreter Observed(*M);
  Observed.setObserver(&Stream);
  ExecResult R = Observed.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Stream.Instrs.size(), R.Instructions);
  Interpreter Plain(*M);
  EXPECT_TRUE(Plain.run().ReturnValue == R.ReturnValue);

  DecodeCache::Counters C1 = Cache.counters();
  EXPECT_EQ(C1.Decodes - C0.Decodes, 1u);
  EXPECT_EQ(C1.BodyHits - C0.BodyHits, 0u);
  EXPECT_EQ(&Observed.program(), &Plain.program());
}

//===----------------------------------------------------------------------===//
// Register windows
//===----------------------------------------------------------------------===//

/// A deep recursive chain: thousands of live frames means thousands of
/// live register windows stacked in one contiguous RegStack. The sum must
/// match the tree-walk reference exactly (and arithmetic: n(n+1)/2).
TEST(ExecEngine, RegisterWindowsSurviveDeepCallChains) {
  ParseResult P = parseModule(R"(
func @sum(1) {
entry:
  r1 = cmple r0, 0
  condbr r1, base, rec
base:
  ret 0
rec:
  r2 = sub r0, 1
  r3 = call @sum(r2)
  r4 = add r3, r0
  ret r4
}
func @main(0) {
entry:
  r0 = call @sum(3000)
  ret r0
}
)");
  ASSERT_TRUE(P.succeeded()) << P.Error;
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  ASSERT_TRUE(RefR.Ok) << RefR.Error;
  EXPECT_EQ(RefR.ReturnValue.asInt(), 3000 * 3001 / 2);
  expectResultsEqual(RefR, DecR);
}

/// A trap deep inside a call chain: the error, the step/cycle accounting
/// at the trap point, and the interpreter's ability to run again cleanly
/// afterwards must all match the reference.
TEST(ExecEngine, TrapMidCallChainUnwindsLikeTreeWalk) {
  ParseResult P = parseModule(R"(
func @down(1) {
entry:
  r1 = cmple r0, 0
  condbr r1, boom, rec
boom:
  r2 = div 1, 0
  ret r2
rec:
  r3 = sub r0, 1
  r4 = call @down(r3)
  ret r4
}
func @main(0) {
entry:
  r0 = call @down(40)
  ret r0
}
)");
  ASSERT_TRUE(P.succeeded()) << P.Error;
  TreeWalkInterpreter Ref(*P.M);
  Interpreter Dec(*P.M);
  ExecResult RefR = Ref.run(), DecR = Dec.run();
  EXPECT_FALSE(RefR.Ok);
  expectResultsEqual(RefR, DecR);
  // A fresh run on the same engine starts from a clean window stack.
  expectResultsEqual(Ref.run(), Dec.run());
}

//===----------------------------------------------------------------------===//
// Content-addressed decode
//===----------------------------------------------------------------------===//

/// Two structurally identical modules (separate parses, different Module
/// objects) must share one decoded body: the second get() is a body hit,
/// not a decode, and both instances point at the same ExecCodeBody.
TEST(ExecEngine, ContentAddressedDecodeSharesBodies) {
  const char *Text = R"(
global @caddr_g 3 = {5, 6, 7}

func @main(0) {
entry:
  r0 = add @caddr_g, 2
  r1 = load r0
  ret r1
}
)";
  ParseResult P1 = parseModule(Text), P2 = parseModule(Text);
  ASSERT_TRUE(P1.succeeded() && P2.succeeded());
  ASSERT_NE(P1.M.get(), P2.M.get());
  EXPECT_EQ(ExecProgram::fingerprintModule(*P1.M),
            ExecProgram::fingerprintModule(*P2.M));

  DecodeCache &Cache = DecodeCache::global();
  Cache.invalidate(*P1.M);
  Cache.invalidate(*P2.M);
  uint64_t Decodes0 = Cache.decodes(), BodyHits0 = Cache.bodyHits();

  auto A = Cache.get(*P1.M);
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1);
  auto B = Cache.get(*P2.M);
  EXPECT_EQ(Cache.decodes(), Decodes0 + 1) << "second module re-decoded";
  EXPECT_EQ(Cache.bodyHits(), BodyHits0 + 1);

  EXPECT_NE(A.get(), B.get()); // distinct instances (per-Module tables)...
  EXPECT_EQ(A->sharedBody().get(), B->sharedBody().get()); // ...one body

  // Both instances execute, and agree.
  Interpreter I1(*P1.M), I2(*P2.M);
  ExecResult R1 = I1.run(), R2 = I2.run();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_TRUE(R1.ReturnValue == R2.ReturnValue);
  EXPECT_EQ(R1.ReturnValue.asInt(), 7);
}

/// All three fuzz-oracle legs (sequential, transform-then-sequential,
/// threaded 2/4/6) run on the decoded engine: a campaign must stay
/// divergence-free. Smaller under TSan, where each case costs ~10x.
#if defined(__SANITIZE_THREAD__)
constexpr unsigned SmokeRuns = 60;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr unsigned SmokeRuns = 60;
#else
constexpr unsigned SmokeRuns = 500;
#endif
#else
constexpr unsigned SmokeRuns = 500;
#endif

TEST(ExecEngine, FuzzSmokeAllLegsDivergenceFree) {
  FuzzOptions Opt;
  Opt.Seed = 0xEC0DE;
  Opt.Runs = SmokeRuns;
  Opt.Shrink = false;
  FuzzSummary S = runFuzzCampaign(Opt);
  EXPECT_EQ(S.Divergent, 0u);
  EXPECT_EQ(S.Clean + S.Inconclusive, S.Runs);
}

} // namespace
