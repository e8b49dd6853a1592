//===- perfbench.cpp - End-to-end and per-layer benchmark -----------------===//
//
// One process runs one workload from a seeded generator:
//
//   suite-run      runThreaded (4 workers) of each transformed suite module,
//                  next to a sequential Interpreter::run of the original
//   fuzz           runDifferential on a pool of generated programs
//   serve-sweep    an in-process ServeServer driven by two ServeClients
//
// Every operation is checked against an independent reference (the
// TreeWalkInterpreter on the original module, computed during set-up).
// The last line of stdout is one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Layer numbers come from
// timing calls into each module's public functions here, outside src/.
// README.md in this directory documents every metric.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialRunner.h"
#include "fuzz/ProgramGenerator.h"
#include "ir/IRParser.h"
#include "obs/Trace.h"
#include "pipeline/PipelineBuilder.h"
#include "runtime/ThreadedRuntime.h"
#include "serve/ServeClient.h"
#include "serve/ServeServer.h"
#include "sim/Interpreter.h"
#include "sim/TreeWalkInterpreter.h"
#include "support/Random.h"
#include "workloads/WorkloadBuilder.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace helix;

namespace {

// --- Measurement helpers ----------------------------------------------------

double nowMs() {
  static const auto T0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

struct Usage {
  double CpuMs = 0, SysMs = 0, MinFlt = 0, MaxRssMb = 0;
};

Usage usageNow() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Ms = [](timeval T) { return double(T.tv_sec) * 1e3 + T.tv_usec / 1e3; };
  Usage R;
  R.SysMs = Ms(U.ru_stime);
  R.CpuMs = Ms(U.ru_utime) + R.SysMs;
  R.MinFlt = double(U.ru_minflt);
  R.MaxRssMb = double(U.ru_maxrss) / 1024.0;
  return R;
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double geoMean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-12));
  return std::exp(LogSum / double(V.size()));
}

/// Deterministic Fisher-Yates over [0, N): the visiting order of one round.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

uint64_t mixSeed(uint64_t A, uint64_t B) {
  return Rng(A * 0x9E3779B97F4A7C15ull + B).next();
}

/// Independent reference: the tree-walk interpreter on a private clone-free
/// run of the original module, never the engine under test.
ExecResult referenceRun(Module &M, uint64_t MaxSteps = 0) {
  TreeWalkInterpreter TW(M);
  if (MaxSteps)
    TW.setMaxInstructions(MaxSteps);
  return TW.run();
}

/// The src/ module whose code does a pipeline stage's work.
const char *stageLayer(const std::string &Stage) {
  if (Stage == "profile" || Stage == "validate")
    return "exec";
  if (Stage == "candidates")
    return "analysis";
  if (Stage == "check")
    return "check";
  if (Stage == "simulate")
    return "sim";
  return "helix"; // model-profile, select, transform
}

const char *const TraceLayers[] = {"exec",  "analysis", "helix",
                                   "check", "sim",      "runtime",
                                   "fuzz",  "serve"};

using Counts = std::map<std::string, uint64_t>;

// --- Shared run state -------------------------------------------------------

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".";
  std::string ExactOut;
};

/// Everything one run measures. Serve clients report from two threads, so
/// every mutation goes through the mutex.
class Bench {
public:
  explicit Bench(Options O) : Opt(std::move(O)) {}

  const Options Opt;
  obs::TraceRecorder Rec{size_t(1) << 20};

  /// One finished operation on \p Input: its latency sample and its root
  /// span.
  void opDone(const std::string &Input, double StartMs, double EndMs,
              double LatencyMs) {
    std::lock_guard<std::mutex> G(M);
    ++Attempted;
    if (!Warming)
      OpMs.push_back(LatencyMs);
    record("op", "op " + Input, StartMs, EndMs);
  }

  /// Time spent in one call into \p Layer: counted towards the layer's
  /// call-site time, and a span when tracing.
  void span(const char *Layer, const std::string &Name, double StartMs,
            double EndMs) {
    std::lock_guard<std::mutex> G(M);
    if (!Warming)
      LayerMs[Layer] += EndMs - StartMs;
    record(Layer, Name, StartMs, EndMs);
  }

  void add(const std::string &Key, double V) {
    std::lock_guard<std::mutex> G(M);
    if (!Warming)
      Sum[Key] += V;
  }

  void max(const std::string &Key, double V) {
    std::lock_guard<std::mutex> G(M);
    if (!Warming)
      Sum[Key] = std::max(Sum[Key], V);
  }

  double sum(const std::string &Key) const {
    auto It = Sum.find(Key);
    return It == Sum.end() ? 0.0 : It->second;
  }

  void fail(const std::string &Input, const std::string &Why) {
    std::lock_guard<std::mutex> G(M);
    if (++Failed <= 10)
      std::fprintf(stderr, "perfbench: %s: FAILED: %s\n", Input.c_str(),
                   Why.c_str());
  }

  /// Deterministic counts of one timed operation on \p Input. Every timed
  /// visit of an input must repeat the counts of the first. (Warm-up visits
  /// differ by design: they fill the serve daemon's stage cache.)
  void exact(const std::string &Input, const Counts &C) {
    std::lock_guard<std::mutex> G(M);
    if (Warming)
      return;
    auto [It, New] = Exact.emplace(Input, C);
    if (New || It->second == C)
      return;
    if (++Drifts <= 10)
      for (const auto &[K, V] : C) {
        auto Old = It->second.find(K);
        if (Old == It->second.end() || Old->second != V)
          std::fprintf(stderr,
                       "perfbench: %s: exact count %s drifted to %llu\n",
                       Input.c_str(), K.c_str(), (unsigned long long)V);
      }
  }

  // Accumulated over the whole run (warm-up excluded).
  std::map<std::string, double> Sum;
  uint64_t Attempted = 0, Failed = 0, Drifts = 0;
  std::map<std::string, Counts> Exact;
  bool Warming = true;

  // Reset per measured phase.
  std::vector<double> OpMs;
  std::map<std::string, double> LayerMs;

private:
  void record(const char *Cat, const std::string &Name, double StartMs,
              double EndMs) {
    if (!Rec.enabled())
      return;
    obs::TraceEvent E;
    E.Name = Name;
    E.Cat = Cat;
    E.Tid = obs::TraceRecorder::currentThreadId();
    E.StartMicros = uint64_t(StartMs * 1000.0);
    E.DurMicros = uint64_t(std::max(0.0, EndMs - StartMs) * 1000.0);
    Rec.record(std::move(E));
  }

  std::mutex M;
};

/// Self time per span category: a span's duration minus what its direct
/// children on the same thread cover. The "op" category's self time is the
/// part of an operation no layer span accounts for.
std::map<std::string, double> selfTimesMs(std::vector<obs::TraceEvent> Ev) {
  std::sort(Ev.begin(), Ev.end(),
            [](const obs::TraceEvent &A, const obs::TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartMicros != B.StartMicros)
                return A.StartMicros < B.StartMicros;
              if (A.DurMicros != B.DurMicros)
                return A.DurMicros > B.DurMicros;
              return (A.Cat == "op") > (B.Cat == "op");
            });
  struct Open {
    size_t Idx;
    uint64_t End, Covered;
  };
  std::map<std::string, double> Self;
  std::vector<Open> Stack;
  auto Close = [&] {
    const Open &O = Stack.back();
    const obs::TraceEvent &E = Ev[O.Idx];
    Self[E.Cat] += double(E.DurMicros - std::min(O.Covered, E.DurMicros)) /
                   1000.0;
    Stack.pop_back();
  };
  for (size_t I = 0; I != Ev.size(); ++I) {
    const obs::TraceEvent &E = Ev[I];
    while (!Stack.empty() && (Ev[Stack.back().Idx].Tid != E.Tid ||
                              Stack.back().End <= E.StartMicros))
      Close();
    if (!Stack.empty())
      Stack.back().Covered += E.DurMicros;
    Stack.push_back({I, E.StartMicros + E.DurMicros, 0});
  }
  while (!Stack.empty())
    Close();
  return Self;
}

// --- Workloads --------------------------------------------------------------

using Metrics = std::map<std::string, double>;

class Workload {
public:
  explicit Workload(Bench &B) : B(B) {}
  virtual ~Workload() = default;
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Builds the inputs and their reference outputs. Repeated; the median
  /// of its wall times is setup_s.
  virtual void prepare() = 0;
  /// Program-side set-up, then one untimed operation per distinct input.
  virtual void warm() = 0;
  /// One whole round: every distinct input once, in a seeded order.
  virtual void round(uint64_t Index) = 0;
  virtual void phaseBegin() {}
  virtual void phaseEnd() {}
  /// Per-layer metrics from the run's accumulators, \p Ops timed ops.
  virtual void layerMetrics(Metrics &Out, double Ops) = 0;

protected:
  Bench &B;
};

/// The 13 suite modules and their reference results.
struct Suite {
  std::vector<std::string> Names;
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<Value> Refs;

  void build(Bench &B) {
    Names.clear();
    Modules.clear();
    Refs.clear();
    for (const WorkloadSpec &S : spec2000Suite()) {
      Names.push_back(S.Name);
      Modules.push_back(buildWorkload(S));
      ExecResult R = referenceRun(*Modules.back());
      if (!R.Ok)
        B.fail(S.Name, "reference run: " + R.Error);
      Refs.push_back(R.ReturnValue);
    }
  }
};

// suite-run -----------------------------------------------------------------

/// Median wall time of runThreaded on a module with no loops: the runtime's
/// fixed cost per call.
double emptyCallMs() {
  ParseResult P = parseModule("func @main(0) {\nentry:\n  ret 0\n}\n");
  if (!P.M)
    return 0.0;
  std::vector<double> Ms;
  for (int I = 0; I != 9; ++I) {
    double T0 = nowMs();
    runThreaded(*P.M, {}, 4);
    Ms.push_back(nowMs() - T0);
  }
  return percentile(Ms, 0.5);
}

class SuiteRun : public Workload {
public:
  using Workload::Workload;

  void prepare() override { S.build(B); }

  void warm() override {
    Pipeline P = PipelineBuilder::standard();
    PipelineConfig Cfg;
    Cfg.NumCores = 4;
    for (size_t I = 0; I != S.Modules.size(); ++I) {
      Ctxs.push_back(std::make_unique<PipelineContext>(*S.Modules[I], Cfg));
      PipelineReport R = P.run(*Ctxs.back());
      if (!R.Ok || !Ctxs.back()->Transformed)
        B.fail(S.Names[I], "set-up compile: " + R.Error);
      std::vector<const ParallelLoopInfo *> L;
      for (const auto &[Node, Info] : Ctxs.back()->TransformedLoops)
        L.push_back(&Info);
      Loops.push_back(std::move(L));
    }
    for (size_t I = 0; I != S.Modules.size(); ++I)
      op(I);
    if (B.Opt.Trace)
      EmptyMs = emptyCallMs();
  }

  void round(uint64_t Index) override {
    for (size_t I : seededOrder(S.Modules.size(), mixSeed(B.Opt.Seed, Index)))
      op(I);
  }

  void layerMetrics(Metrics &Out, double Ops) override {
    std::vector<double> Speedups;
    for (const std::string &Name : S.Names) {
      double Seq = B.sum("seq." + Name), Thr = B.sum("thr." + Name);
      double X = Thr > 0 ? Seq / Thr : 0.0;
      Out["runtime." + Name + ".wall_speedup"] = X;
      Speedups.push_back(X);
    }
    Out["runtime.wall_speedup"] = geoMean(Speedups);
    Out["runtime.empty_call_ms"] = EmptyMs;
    Out["runtime.minflt_per_op"] = B.sum("runtime.minflt") / Ops;
    Out["runtime.sys_ms_per_op"] = B.sum("runtime.sys_ms") / Ops;
    Out["runtime.iterations_per_op"] = B.sum("runtime.iterations") / Ops;
    Out["runtime.signals_per_op"] = B.sum("runtime.signals") / Ops;
    if (double Iters = B.sum("runtime.iterations"))
      Out["runtime.ns_per_iteration"] =
          (B.sum("runtime.thr_ms") - EmptyMs * Ops) * 1e6 / Iters;
    Out["exec.seq_ms"] = B.sum("exec.seq_ms") / Ops;
    Out["exec.instrs_per_op"] = B.sum("exec.instrs") / Ops;
    if (double Ms = B.sum("exec.seq_ms"))
      Out["exec.minstr_per_s"] = B.sum("exec.instrs") / Ms / 1e3;
  }

private:
  void op(size_t I) {
    const std::string &Name = S.Names[I];
    double Start = nowMs();
    Interpreter Seq(*S.Modules[I]);
    ExecResult SR = Seq.run();
    double SeqEnd = nowMs();
    B.span("exec", "sequential " + Name, Start, SeqEnd);

    Usage U0 = usageNow();
    RuntimeStats St;
    double ThrStart = nowMs();
    ExecResult TR = runThreaded(*Ctxs[I]->Transformed, Loops[I], 4, &St);
    double End = nowMs();
    Usage U1 = usageNow();
    B.span("runtime", "runThreaded " + Name, ThrStart, End);
    B.opDone(Name, Start, End, End - ThrStart);

    if (!SR.Ok || !(SR.ReturnValue == S.Refs[I]))
      B.fail(Name, "sequential result differs from the reference " + SR.Error);
    if (!TR.Ok || !(TR.ReturnValue == S.Refs[I]))
      B.fail(Name, "threaded result differs from the reference " + TR.Error);

    B.add("seq." + Name, SeqEnd - Start);
    B.add("thr." + Name, End - ThrStart);
    B.add("exec.seq_ms", SeqEnd - Start);
    B.add("exec.instrs", double(SR.Instructions));
    B.add("runtime.thr_ms", End - ThrStart);
    B.add("runtime.minflt", U1.MinFlt - U0.MinFlt);
    B.add("runtime.sys_ms", U1.SysMs - U0.SysMs);
    B.add("runtime.iterations", double(St.ParallelIterations));
    B.add("runtime.signals", double(St.SignalsSent));
    B.exact(Name, {{"exec.instrs", SR.Instructions},
                   {"runtime.invocations", St.ParallelInvocations},
                   {"runtime.iterations", St.ParallelIterations},
                   {"runtime.signals", St.SignalsSent}});
  }

  Suite S;
  std::vector<std::unique_ptr<PipelineContext>> Ctxs;
  std::vector<std::vector<const ParallelLoopInfo *>> Loops;
  double EmptyMs = 0;
};

// fuzz ----------------------------------------------------------------------

class Fuzz : public Workload {
public:
  /// Programs per round. About 100 ms each, so a round is a few seconds.
  static constexpr size_t PoolSize = 24;

  explicit Fuzz(Bench &B) : Workload(B) {
    // Two worker counts, both within the host's 4 cores.
    Cfg.ThreadCounts = {2, 4};
    for (size_t J = 0; J != PoolSize; ++J)
      Seeds.push_back(mixSeed(B.Opt.Seed, 1000 + J));
  }

  void prepare() override {
    Refs.clear();
    for (uint64_t Seed : Seeds) {
      std::unique_ptr<Module> M = generateProgram(Seed);
      Refs.push_back(referenceRun(*M, Cfg.MaxInstructions));
    }
  }

  void warm() override {
    for (size_t J = 0; J != PoolSize; ++J)
      op(J);
    if (B.Opt.Trace)
      EmptyMs = emptyCallMs();
  }

  void round(uint64_t Index) override {
    for (size_t J : seededOrder(PoolSize, mixSeed(B.Opt.Seed, Index)))
      op(J);
  }

  void layerMetrics(Metrics &Out, double Ops) override {
    Out["fuzz.generate_ms"] = B.sum("fuzz.generate_ms") / Ops;
    Out["fuzz.differential_ms"] = B.sum("fuzz.differential_ms") / Ops;
    Out["fuzz.loops_transformed_per_op"] = B.sum("fuzz.loops") / Ops;
    Out["fuzz.inconclusive_frac"] = B.sum("fuzz.inconclusive") / Ops;
    Out["helix.pass_ms_per_op"] = B.sum("helix.pass_ms") / Ops;
    Out["analysis.builds_per_op"] = B.sum("analysis.builds") / Ops;
    Out["analysis.hits_per_op"] = B.sum("analysis.hits") / Ops;
    Out["check.loops_checked_per_op"] = B.sum("check.loops") / Ops;
    Out["check.dep_witnessed_per_op"] = B.sum("check.dep_witnessed") / Ops;
    Out["exec.instrs_per_op"] = B.sum("exec.instrs") / Ops;
    Out["runtime.empty_call_ms"] = EmptyMs;
    Out["runtime.minflt_per_op"] = B.sum("runtime.minflt") / Ops;
    Out["runtime.sys_ms_per_op"] = B.sum("runtime.sys_ms") / Ops;
  }

private:
  void op(size_t J) {
    std::string Name = "case" + std::to_string(J);
    double Start = nowMs();
    std::unique_ptr<Module> M = generateProgram(Seeds[J]);
    double GenEnd = nowMs();
    Usage U0 = usageNow();
    DiffOutcome D = runDifferential(*M, Cfg);
    double End = nowMs();
    Usage U1 = usageNow();
    B.span("fuzz", "generate " + Name, Start, GenEnd);
    B.span("fuzz", "differential " + Name, GenEnd, End);
    double PassMs = 0;
    for (const LoopPassTiming &T : D.PassTimings)
      PassMs += T.Millis;
    // The transforms run inside runDifferential; only their total is known,
    // so their span sits at its start.
    B.span("helix", "transform passes " + Name, GenEnd,
           std::min(End, GenEnd + PassMs));
    B.opDone(Name, Start, End, End - Start);

    const ExecResult &Ref = Refs[J];
    if (D.Divergence)
      B.fail(Name, "divergence: " + D.Detail);
    else if (D.SeqOk != Ref.Ok ||
             (Ref.Ok && (Ref.ReturnValue.IsFloat ||
                         Ref.ReturnValue.I != D.SeqChecksum)))
      B.fail(Name, "sequential checksum differs from the reference");

    uint64_t Built = 0, Hits = 0;
    for (const AnalysisCounterReport &A : D.AnalysisCounters) {
      Built += A.Built;
      Hits += A.Hits;
    }
    B.add("fuzz.generate_ms", GenEnd - Start);
    B.add("fuzz.differential_ms", End - GenEnd);
    B.add("fuzz.loops", D.LoopsTransformed);
    B.add("fuzz.inconclusive", D.Inconclusive ? 1 : 0);
    B.add("helix.pass_ms", PassMs);
    B.add("analysis.builds", double(Built));
    B.add("analysis.hits", double(Hits));
    B.add("check.loops", D.StaticLoopsChecked);
    B.add("check.dep_witnessed", D.DepWitnessed);
    B.add("exec.instrs", double(D.SeqInstructions));
    B.add("runtime.minflt", U1.MinFlt - U0.MinFlt);
    B.add("runtime.sys_ms", U1.SysMs - U0.SysMs);
    B.exact(Name, {{"fuzz.loops", D.LoopsTransformed},
                   {"fuzz.inconclusive", D.Inconclusive},
                   {"analysis.builds", Built},
                   {"analysis.hits", Hits},
                   {"check.loops", D.StaticLoopsChecked},
                   {"check.dep_witnessed", D.DepWitnessed},
                   {"exec.instrs", D.SeqInstructions}});
  }

  DiffConfig Cfg;
  std::vector<uint64_t> Seeds;
  std::vector<ExecResult> Refs;
  double EmptyMs = 0;
};

// serve-sweep ---------------------------------------------------------------

class ServeSweep : public Workload {
public:
  /// Signal-latency points each suite module is requested at.
  static constexpr double Grid[] = {0, 4, 10, 20, 40, 80, 110};
  static constexpr size_t GridSize = sizeof(Grid) / sizeof(Grid[0]);
  static constexpr unsigned Clients = 2;

  explicit ServeSweep(Bench &B) : Workload(B) {}

  ~ServeSweep() override {
    Conns.clear();
    if (Server)
      Server->stop();
  }

  void prepare() override {
    Suite S;
    S.build(B);
    Texts.clear();
    for (auto &M : S.Modules)
      Texts.push_back(M->toString());
    Names = S.Names;
    Fresh.clear();
    for (size_t J = 0; J != Names.size(); ++J) {
      std::unique_ptr<Module> M =
          generateProgram(mixSeed(B.Opt.Seed, 7000 + J));
      Fresh.push_back(M->toString());
    }
    // The text each request carries must encode the reference program.
    for (size_t I = 0; I != Texts.size(); ++I) {
      ParseResult P = parseModule(Texts[I]);
      if (!P.M || !(referenceRun(*P.M).ReturnValue == S.Refs[I]))
        B.fail(Names[I], "module text does not round-trip");
    }
  }

  void warm() override {
    ServeServerConfig C;
    C.SocketPath =
        B.Opt.OutDir + "/serve-" + std::to_string(getpid()) + ".sock";
    ::unlink(C.SocketPath.c_str());
    C.Workers = 2;
    Server = std::make_unique<ServeServer>(C);
    std::string Err;
    if (!Server->start(&Err)) {
      B.fail("serve", "start: " + Err);
      return;
    }
    for (unsigned K = 0; K != Clients; ++K) {
      Conns.push_back(std::make_unique<ServeClient>());
      if (!Conns.back()->connect(C.SocketPath, &Err))
        B.fail("serve", "connect: " + Err);
    }
    // Every suite key once. Training runs one module at a time, so which
    // trainings overlap (and with them the peak RSS) does not depend on
    // timing; the other grid points then reuse the cached training stages.
    for (size_t I = 0; I != Names.size(); ++I)
      send(*Conns[0], {I, 0, false, 0});
    std::vector<Request> Rest;
    for (size_t I = 0; I != Names.size(); ++I)
      for (size_t G = 1; G != GridSize; ++G)
        Rest.push_back({I, G, false, 0});
    issue(Rest);
  }

  void round(uint64_t Index) override {
    // Per round: every (module, grid point) once and one fresh program per
    // module, so 1 request in 8 misses the cache by construction.
    std::vector<Request> Warm;
    for (size_t I = 0; I != Names.size(); ++I)
      for (size_t G = 0; G != GridSize; ++G)
        Warm.push_back({I, G, false, Index});
    std::vector<Request> All;
    std::vector<size_t> Order =
        seededOrder(Warm.size(), mixSeed(B.Opt.Seed, Index));
    for (size_t K = 0; K != Order.size(); ++K) {
      All.push_back(Warm[Order[K]]);
      if (K % GridSize == GridSize - 1)
        All.push_back({K / GridSize, (K / GridSize) % GridSize, true, Index});
    }
    issue(All);
  }

  void phaseBegin() override {
    Stats0 = Server ? Server->stats() : ServeStats();
  }

  void phaseEnd() override {
    if (!Server)
      return;
    ServeStats S1 = Server->stats();
    B.add("serve.cache_hits", double(S1.CacheHits - Stats0.CacheHits));
    B.add("serve.cache_lookups", double(S1.CacheHits - Stats0.CacheHits +
                                        S1.CacheMisses - Stats0.CacheMisses));
    B.add("serve.cache_stores", double(S1.CacheStores - Stats0.CacheStores));
    B.add("serve.coalesced", double(S1.Coalesced - Stats0.Coalesced));
    B.add("serve.rejected", double(S1.Rejected - Stats0.Rejected));
    B.add("serve.decodes", double(S1.DecodeDecodes - Stats0.DecodeDecodes));
  }

  void layerMetrics(Metrics &Out, double Ops) override {
    Out["serve.overhead_ms"] = B.sum("serve.overhead_ms") / Ops;
    for (const std::string &Stage : PipelineBuilder::standardStageNames())
      Out["serve." + Stage + "_ms"] = B.sum("serve.stage." + Stage) / Ops;
    if (double L = B.sum("serve.cache_lookups"))
      Out["serve.cache_hit_frac"] = B.sum("serve.cache_hits") / L;
    Out["serve.cache_stores_per_op"] = B.sum("serve.cache_stores") / Ops;
    Out["serve.coalesced_frac"] = B.sum("serve.coalesced") / Ops;
    Out["serve.rejected_frac"] = B.sum("serve.rejected") / Ops;
    Out["serve.decodes_per_op"] = B.sum("serve.decodes") / Ops;
    Out["helix.pass_ms_per_op"] = B.sum("helix.pass_ms") / Ops;
    Out["analysis.builds_per_op"] = B.sum("analysis.builds") / Ops;
    Out["analysis.hits_per_op"] = B.sum("analysis.hits") / Ops;
    Out["check.loops_checked_per_op"] = B.sum("check.loops") / Ops;
    Out["check.dep_witnessed_per_op"] = B.sum("check.dep_witnessed") / Ops;
    Out["sim.speedup_geomean"] = std::exp(B.sum("sim.log_speedup") / Ops);
    Out["sim.model_error_max_pct"] = B.sum("sim.model_error_max_pct");
    if (double Ms = B.sum("exec.instr_ms"))
      Out["exec.minstr_per_s"] = B.sum("exec.instrs") / Ms / 1e3;
    Out["exec.instrs_per_op"] = B.sum("exec.instrs") / Ops;
  }

private:
  struct Request {
    size_t Module, GridPoint;
    bool Fresh;
    uint64_t Round;
  };

  /// Splits \p All between the clients (even positions to client 0, odd to
  /// client 1). Keys are distinct within a call, so no two requests in
  /// flight coalesce, and every call ends before the next starts.
  void issue(const std::vector<Request> &All) {
    std::vector<std::thread> Threads;
    for (unsigned K = 0; K != Conns.size(); ++K)
      Threads.emplace_back([this, K, &All] {
        for (size_t P = K; P < All.size(); P += Conns.size())
          send(*Conns[K], All[P]);
      });
    for (std::thread &T : Threads)
      T.join();
  }

  void send(ServeClient &Client, const Request &Q) {
    std::string Key = Q.Fresh ? "fresh" + std::to_string(Q.Module)
                              : Names[Q.Module] + "@" +
                                    std::to_string(int(Grid[Q.GridPoint]));
    std::string Text;
    if (Q.Fresh)
      // A global no code reads makes the program new to the stage cache
      // while leaving its work unchanged.
      Text = Fresh[Q.Module] + "global @perfbench_fresh_r" +
             std::to_string(Q.Round) + " 1\n";
    ConfigOverrides O;
    O.NumCores = 4;
    O.ModelProfileThreads = 1;
    O.SignalCycles = Grid[Q.GridPoint];
    ServeResponse Resp;
    std::string Err;
    double Start = nowMs();
    bool Sent = Client.connected() &&
                Client.run(Q.Fresh ? Text : Texts[Q.Module], "", O, Resp, &Err);
    double End = nowMs();
    B.opDone(Key, Start, End, End - Start);
    B.span("serve", "request " + Key, Start, End);
    if (!Sent) {
      B.fail(Key, "transport: " + Err);
      return;
    }
    if (!Resp.Ok || !Resp.HasReport) {
      B.fail(Key, "refused or failed: " + Resp.Error);
      return;
    }
    if (!Resp.Report.OutputsMatch)
      B.fail(Key, "transformed outputs do not match");

    // The server's stage times, laid end to end inside the round trip.
    Counts C;
    double Cursor = Start, StagesMs = 0, InstrMs = 0;
    uint64_t Instrs = 0, Executed = 0;
    for (const StageSummary &S : Resp.Stages) {
      StagesMs += S.WallMillis;
      double To = std::min(End, Cursor + S.WallMillis);
      if (S.WallMillis > 0)
        B.span(stageLayer(S.Name), S.Name, Cursor, To);
      Cursor = To;
      if (S.Source == "executed") {
        B.add("serve.stage." + S.Name, S.WallMillis);
        ++Executed;
      }
      Instrs += S.InterpretedInstructions;
      if (S.InterpretedInstructions)
        InstrMs += S.WallMillis;
      C["source." + S.Name] = S.Source == "executed" ? 1 : 0;
    }
    B.add("serve.overhead_ms", End - Start - StagesMs);
    B.add("exec.instrs", double(Instrs));
    B.add("exec.instr_ms", InstrMs);
    C["exec.instrs"] = Instrs;
    C["serve.executed_stages"] = Executed;
    C["serve.coalesced"] = Resp.Coalesced;
    addReport(Resp.Report, C);
    B.exact(Key, C);
  }

  /// The report fields the layer metrics read, and their exact counts.
  void addReport(const PipelineReport &R, Counts &C) {
    double PassMs = 0;
    for (const LoopPassTiming &T : R.TransformPassTimings)
      PassMs += T.Millis;
    uint64_t Built = 0, Hits = 0;
    for (const auto *V :
         {&R.TransformAnalysisCounters, &R.ModelProfileAnalysisCounters})
      for (const AnalysisCounterReport &A : *V) {
        Built += A.Built;
        Hits += A.Hits;
      }
    B.add("helix.pass_ms", PassMs);
    B.add("analysis.builds", double(Built));
    B.add("analysis.hits", double(Hits));
    B.add("check.loops", R.SyncCheck.LoopsChecked);
    B.add("check.dep_witnessed", R.DepAudit.Witnessed);
    B.add("sim.log_speedup", std::log(std::max(R.Speedup, 1e-12)));
    B.max("sim.model_error_max_pct",
          R.Speedup > 0
              ? std::fabs(R.ModelSpeedup - R.Speedup) / R.Speedup * 100
              : 0.0);
    C["analysis.builds"] = Built;
    C["analysis.hits"] = Hits;
    C["check.loops"] = R.SyncCheck.LoopsChecked;
    C["check.dep_witnessed"] = R.DepAudit.Witnessed;
    C["sim.seq_cycles"] = R.SeqCycles;
    C["sim.par_cycles"] = R.ParCycles;
    C["report.loops"] = R.Loops.size();
  }

  std::vector<std::string> Names, Texts, Fresh;
  std::unique_ptr<ServeServer> Server;
  std::vector<std::unique_ptr<ServeClient>> Conns;
  ServeStats Stats0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name, Bench &B) {
  if (Name == "suite-run")
    return std::make_unique<SuiteRun>(B);
  if (Name == "fuzz")
    return std::make_unique<Fuzz>(B);
  if (Name == "serve-sweep")
    return std::make_unique<ServeSweep>(B);
  return nullptr;
}

// --- Metric catalogue -------------------------------------------------------

struct MetricDef {
  std::string Name, Unit;
};

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},          {"op_p50_ms", "ms"},
      {"op_p90_ms", "ms"},       {"ops_per_s", "1/s"},
      {"cpu_ms_per_op", "ms"},   {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"}};
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = [] {
    std::vector<MetricDef> D = {{"op_samples", "count"},
                                {"setup.warm_s", "s"}};
    for (MetricDef M : std::vector<MetricDef>{
             {"exec.instrs_per_op", "count"},
             {"exec.minstr_per_s", "Minstr/s"},
             {"exec.seq_ms", "ms"},
             {"helix.pass_ms_per_op", "ms"},
             {"analysis.builds_per_op", "count"},
             {"analysis.hits_per_op", "count"},
             {"check.loops_checked_per_op", "count"},
             {"check.dep_witnessed_per_op", "count"},
             {"sim.speedup_geomean", "x"},
             {"sim.model_error_max_pct", "%"},
             {"runtime.empty_call_ms", "ms"},
             {"runtime.minflt_per_op", "count"},
             {"runtime.sys_ms_per_op", "ms"},
             {"runtime.iterations_per_op", "count"},
             {"runtime.signals_per_op", "count"},
             {"runtime.ns_per_iteration", "ns"},
             {"runtime.wall_speedup", "x"}})
      D.push_back(M);
    for (const WorkloadSpec &W : spec2000Suite())
      D.push_back({"runtime." + W.Name + ".wall_speedup", "x"});
    for (MetricDef M : std::vector<MetricDef>{
             {"fuzz.generate_ms", "ms"},
             {"fuzz.differential_ms", "ms"},
             {"fuzz.loops_transformed_per_op", "count"},
             {"fuzz.inconclusive_frac", "frac"},
             {"serve.overhead_ms", "ms"}})
      D.push_back(M);
    for (const std::string &S : PipelineBuilder::standardStageNames())
      D.push_back({"serve." + S + "_ms", "ms"});
    for (MetricDef M : std::vector<MetricDef>{
             {"serve.cache_hit_frac", "frac"},
             {"serve.cache_stores_per_op", "count"},
             {"serve.coalesced_frac", "frac"},
             {"serve.rejected_frac", "frac"},
             {"serve.decodes_per_op", "count"}})
      D.push_back(M);
    for (const char *L : TraceLayers) {
      D.push_back({std::string("trace.") + L + ".self_ms_per_op", "ms"});
      D.push_back({std::string("trace.") + L + ".overhead_ms_per_op", "ms"});
    }
    D.push_back({"trace.unattributed_ms_per_op", "ms"});
    D.push_back({"trace.overhead_pct", "%"});
    D.push_back({"trace.spans_per_op", "count"});
    return D;
  }();
  return Defs;
}

// --- Measurement and output -------------------------------------------------

struct Phase {
  std::vector<double> OpMs;
  std::map<std::string, double> LayerMs;
  double WallMs = 0, CpuMs = 0;
  uint64_t Ops = 0;
};

/// Whole rounds, until the elapsed time plus half a round reaches
/// \p Seconds.
Phase measure(Workload &W, Bench &B, double Seconds, uint64_t &NextRound) {
  B.OpMs.clear();
  B.LayerMs.clear();
  W.phaseBegin();
  Usage U0 = usageNow();
  double T0 = nowMs();
  std::vector<double> RoundMs;
  for (;;) {
    double R0 = nowMs();
    W.round(NextRound++);
    RoundMs.push_back(nowMs() - R0);
    double Elapsed = nowMs() - T0;
    if (Elapsed + 0.5 * Elapsed / double(RoundMs.size()) >= Seconds * 1e3)
      break;
  }
  Phase P;
  P.WallMs = nowMs() - T0;
  P.CpuMs = usageNow().CpuMs - U0.CpuMs;
  W.phaseEnd();
  std::fprintf(stderr, "perfbench: %zu rounds, ms per round:", RoundMs.size());
  for (double Ms : RoundMs)
    std::fprintf(stderr, " %.0f", Ms);
  std::fprintf(stderr, "\n");
  P.OpMs = B.OpMs;
  P.LayerMs = B.LayerMs;
  P.Ops = P.OpMs.size();
  return P;
}

bool writeExact(const std::string &Path,
                const std::map<std::string, Counts> &E) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{");
  bool FirstInput = true;
  for (const auto &[Input, C] : E) {
    std::fprintf(F, "%s\n  \"%s\": {", FirstInput ? "" : ",", Input.c_str());
    bool First = true;
    for (const auto &[K, V] : C) {
      std::fprintf(F, "%s\"%s\": %llu", First ? "" : ", ", K.c_str(),
                   (unsigned long long)V);
      First = false;
    }
    std::fprintf(F, "}");
    FirstInput = false;
  }
  std::fprintf(F, "\n}\n");
  return std::fclose(F) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload suite-run|fuzz|serve-sweep "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--out-dir DIR] [--exact-out FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (A == "--workload")
      Opt.Workload = V;
    else if (A == "--seed")
      Opt.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      Opt.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      Opt.Trace = V == "1";
    else if (A == "--out-dir")
      Opt.OutDir = V;
    else if (A == "--exact-out")
      Opt.ExactOut = V;
    else
      return usage();
  }
  if (!(Opt.Seconds > 0))
    return usage();

  Bench B(Opt);
  std::unique_ptr<Workload> W = makeWorkload(Opt.Workload, B);
  if (!W)
    return usage();

  // Set-up: inputs and references three times (their median), then the
  // warm-up once. Repeating the warm-up would time warm operations, not set-up.
  std::vector<double> SetupS;
  for (int I = 0; I != 3; ++I) {
    double T0 = nowMs();
    W->prepare();
    SetupS.push_back((nowMs() - T0) / 1e3);
  }
  double WarmT0 = nowMs();
  W->warm();
  double WarmS = (nowMs() - WarmT0) / 1e3;
  B.Warming = false;

  uint64_t NextRound = 0;
  Metrics Out;
  uint64_t TimedOps = 0;
  if (!Opt.Trace) {
    Phase P = measure(*W, B, Opt.Seconds, NextRound);
    TimedOps = P.Ops;
    Out["setup_s"] = percentile(SetupS, 0.5) + WarmS;
    Out["op_p50_ms"] = percentile(P.OpMs, 0.5);
    Out["op_p90_ms"] = percentile(P.OpMs, 0.9);
    Out["ops_per_s"] = double(P.Ops) / (P.WallMs / 1e3);
    Out["cpu_ms_per_op"] = P.CpuMs / double(std::max<uint64_t>(P.Ops, 1));
    Out["peak_rss_mb"] = usageNow().MaxRssMb;
    Out["ok_frac"] = double(B.Attempted - std::min(B.Failed, B.Attempted)) /
                     double(std::max<uint64_t>(B.Attempted, 1));
  } else {
    // Half the time untraced, half traced, over whole rounds each: the
    // difference is the tracing overhead.
    Phase Plain = measure(*W, B, Opt.Seconds / 2, NextRound);
    B.Rec.setEnabled(true);
    Phase Traced = measure(*W, B, Opt.Seconds / 2, NextRound);
    B.Rec.setEnabled(false);
    std::vector<obs::TraceEvent> Events = B.Rec.drain();
    TimedOps = Plain.Ops + Traced.Ops;
    double N = double(std::max<uint64_t>(TimedOps, 1));
    double NP = double(std::max<uint64_t>(Plain.Ops, 1));
    double NT = double(std::max<uint64_t>(Traced.Ops, 1));

    for (const MetricDef &M : perLayerMetrics())
      Out[M.Name] = 0.0; // layers this workload does not exercise
    W->layerMetrics(Out, N);
    Out["op_samples"] = double(TimedOps);
    Out["setup.warm_s"] = WarmS;
    std::map<std::string, double> Self = selfTimesMs(Events);
    for (const char *L : TraceLayers) {
      std::string Key = std::string("trace.") + L;
      Out[Key + ".self_ms_per_op"] = Self[L] / NT;
      Out[Key + ".overhead_ms_per_op"] =
          Traced.LayerMs[L] / NT - Plain.LayerMs[L] / NP;
    }
    Out["trace.unattributed_ms_per_op"] = Self["op"] / NT;
    double P50 = percentile(Plain.OpMs, 0.5);
    Out["trace.overhead_pct"] =
        P50 > 0 ? (percentile(Traced.OpMs, 0.5) - P50) / P50 * 100 : 0.0;
    Out["trace.spans_per_op"] = double(Events.size()) / NT;

    std::string Path = Opt.OutDir + "/trace-" + Opt.Workload + "-seed" +
                       std::to_string(Opt.Seed) + ".json";
    B.Rec.setEnabled(true);
    for (obs::TraceEvent &E : Events)
      B.Rec.record(std::move(E));
    std::string Err;
    if (!B.Rec.drainToFile(Path, &Err))
      std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    else
      std::fprintf(stderr, "perfbench: chrome trace in %s\n", Path.c_str());
  }
  W.reset(); // stops the serve daemon and joins its threads

  if (!Opt.ExactOut.empty() && !writeExact(Opt.ExactOut, B.Exact)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Opt.ExactOut.c_str());
    return 1;
  }

  const std::vector<MetricDef> &Defs =
      Opt.Trace ? perLayerMetrics() : endToEndMetrics();
  bool Correct = B.Failed == 0 && B.Drifts == 0;
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu timed_ops=%llu failed=%llu "
               "drifts=%llu\n",
               Opt.Workload.c_str(), (unsigned long long)Opt.Seed,
               (unsigned long long)TimedOps, (unsigned long long)B.Failed,
               (unsigned long long)B.Drifts);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)B.Attempted,
              (unsigned long long)B.Failed);
  for (size_t I = 0; I != Defs.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Defs[I].Name.c_str(), Out[Defs[I].Name],
                Defs[I].Unit.c_str());
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
