#include "pipeline/PipelineBuilder.h"

#include "exec/ExecProgram.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pipeline/StageCache.h"
#include "pipeline/Stages.h"

#include <algorithm>
#include <chrono>
#include <set>

using namespace helix;

//===----------------------------------------------------------------------===//
// Pipeline execution with caching and instrumentation.
//===----------------------------------------------------------------------===//

PipelineReport Pipeline::run(PipelineContext &Ctx) const {
  Ctx.Report.Ok = false;
  Ctx.Report.Error.clear();
  Ctx.takePendingInterpreted(); // drop stray attribution from failed runs

  if (Stages.empty()) {
    // An empty pipeline is almost always a build() failure the caller did
    // not check; running it must not look like success.
    Ctx.Report.Error = "empty pipeline (build failed or no stages added)";
    return Ctx.Report;
  }

  // Central configuration validation: reject knob values whose failure
  // mode inside a stage would be UB (NumCores == 0 reaching a modulo) or
  // a silent hang, before anything executes.
  std::string ConfigError = Ctx.config().validate();
  if (!ConfigError.empty()) {
    Ctx.Report.Error = ConfigError;
    return Ctx.Report;
  }

  // Observability: while the process-wide recorder is on, the whole run
  // and each executed stage become nested spans.
  obs::TraceSpan RunSpan("pipeline.run", "pipeline");
  obs::MetricsRegistry &MR = obs::MetricsRegistry::global();

  // Decode-cache delta across this run (surfaced in the report next to the
  // analysis counters). The counters are process-wide, so with concurrent
  // pipeline runs (the serve daemon) a delta attributes *some* other
  // requests' decodes to this run — still exact for the warm-repeat
  // assertion, which runs one request at a time. The metrics-registry
  // delta below shares the caveat.
  const DecodeCache::Counters DecodeStart = DecodeCache::global().counters();
  const obs::MetricsSnapshot MetricsStart = MR.snapshot();
  MR.counter("pipeline.runs").add();
  Ctx.Report.Decode = {};
  Ctx.Report.Metrics.clear();
  auto RecordDecodeStats = [&] {
    DecodeCache::Counters Now = DecodeCache::global().counters();
    Ctx.Report.Decode.Decodes = Now.Decodes - DecodeStart.Decodes;
    Ctx.Report.Decode.Hits = Now.Hits - DecodeStart.Hits;
    Ctx.Report.Decode.Evictions = Now.Evictions - DecodeStart.Evictions;
    Ctx.Report.Decode.BodyHits = Now.BodyHits - DecodeStart.BodyHits;
    // Publish the delta into the registry first so the report's registry
    // snapshot includes the decode numbers it sits next to.
    MR.counter("exec.decode.decodes").add(Ctx.Report.Decode.Decodes);
    MR.counter("exec.decode.hits").add(Ctx.Report.Decode.Hits);
    MR.counter("exec.decode.evictions").add(Ctx.Report.Decode.Evictions);
    MR.counter("exec.decode.body_hits").add(Ctx.Report.Decode.BodyHits);
    Ctx.Report.Metrics = MR.snapshot().deltaFrom(MetricsStart).Samples;
  };

  StageCache *Disk = Ctx.stageCache();
  if (Disk && Ctx.moduleFingerprint().empty())
    Ctx.setModuleFingerprint(StageCache::moduleFingerprint(Ctx.original()));

  // A cached result is trusted only when (a) its key matches the current
  // config and (b) its generation stamp is not older than any upstream
  // stage's — condition (b) also catches upstream stages that re-ran as
  // part of a *different* pipeline on this context (e.g. a partial
  // "select"-only run between two full runs), where a plain
  // invalidate-downstream-in-this-pipeline cascade would not fire.
  uint64_t UpstreamGen = 0;
  // Concatenated stage keys up to and including the current stage. This is
  // what disk entries are keyed on: a dependency-closed pipeline is a
  // prefix of the standard chain, so the accumulated string captures the
  // configuration slice of everything that influenced the stage's input.
  std::string ChainKey;
  for (size_t I = 0; I != Stages.size(); ++I) {
    Stage &S = *Stages[I];
    std::string Key = S.cacheKey(Ctx.config());
    ChainKey += std::string(S.name()) + '=' + Key + ';';
    const PipelineContext::StageRecord *Rec = Ctx.stageRecord(S.name());
    if (Rec && Rec->Key == Key && Rec->Generation >= UpstreamGen) {
      UpstreamGen = Rec->Generation;
      MR.counter("cache.stage.hits").add();
      PipelineContext::StageRun R;
      R.Name = S.name();
      R.Cached = true;
      Ctx.addHistory(R);
      if (Callback)
        Callback(Ctx.history().back());
      continue;
    }
    Ctx.clearStageResult(S.name());

    // In-memory miss: try the disk cache before executing. A valid disk
    // entry restores the stage's artifacts without any interpreter work —
    // this is what makes a repeated bench invocation skip training runs
    // entirely. deserializeResult validates against the context and
    // rejects inconsistent payloads, so a bad entry degrades to a cold
    // execution, never to wrong results.
    if (Disk) {
      auto LoadStart = std::chrono::steady_clock::now();
      std::string Entry = StageCache::entryName(
          Ctx.workloadKey(), S.name(), ChainKey, Ctx.moduleFingerprint());
      std::string Payload;
      if (Disk->load(Entry, Payload) && S.deserializeResult(Ctx, Payload)) {
        auto LoadEnd = std::chrono::steady_clock::now();
        MR.counter("cache.stage.disk_hits").add();
        PipelineContext::StageRun R;
        R.Name = S.name();
        R.FromDisk = true;
        R.WallMillis = std::chrono::duration<double, std::milli>(LoadEnd -
                                                                 LoadStart)
                           .count();
        R.InterpretedInstructions = Ctx.takePendingInterpreted(); // 0
        Ctx.addHistory(R);
        if (Callback)
          Callback(Ctx.history().back());
        UpstreamGen = Ctx.recordStageResult(S.name(), Key);
        continue;
      }
    }

    auto Start = std::chrono::steady_clock::now();
    bool Ok;
    {
      obs::TraceSpan StageSpan(std::string("stage:") + S.name(), "stage");
      Ok = S.run(Ctx);
    }
    auto End = std::chrono::steady_clock::now();

    PipelineContext::StageRun R;
    R.Name = S.name();
    R.WallMillis =
        std::chrono::duration<double, std::milli>(End - Start).count();
    R.InterpretedInstructions = Ctx.takePendingInterpreted();
    MR.counter("cache.stage.misses").add();
    MR.histogram("pipeline.stage.wall_ms", {1, 10, 100, 1000, 10000})
        .observe(int64_t(R.WallMillis));
    MR.counter("exec.interpreted.instructions")
        .add(R.InterpretedInstructions);
    Ctx.addHistory(R);
    if (Callback)
      Callback(Ctx.history().back());

    if (!Ok) {
      // The context now holds partial artifacts of this stage: everything
      // not strictly upstream of it is stale. Drop those cache records so
      // a later run rebuilds them, and reset the report fields they own so
      // the failed run does not echo values from an earlier configuration
      // point — including standard stages *outside* this pipeline (the
      // chain/prefix property makes them all downstream).
      std::set<std::string> Upstream;
      for (size_t K = 0; K != I; ++K)
        Upstream.insert(Stages[K]->name());
      for (const std::string &Name : PipelineBuilder::standardStageNames()) {
        if (Upstream.count(Name))
          continue;
        Ctx.clearStageResult(Name);
        if (std::unique_ptr<Stage> Std = PipelineBuilder::createStage(Name))
          Std->resetReport(Ctx.Report);
      }
      for (size_t K = I; K != Stages.size(); ++K) {
        Ctx.clearStageResult(Stages[K]->name());
        Stages[K]->resetReport(Ctx.Report);
      }
      if (Ctx.Report.Error.empty())
        Ctx.Report.Error = std::string(S.name()) + " stage failed";
      RecordDecodeStats();
      return Ctx.Report;
    }
    UpstreamGen = Ctx.recordStageResult(S.name(), Key);
    if (Disk) {
      std::string Payload;
      if (S.serializeResult(Ctx, Payload))
        Disk->store(StageCache::entryName(Ctx.workloadKey(), S.name(),
                                          ChainKey, Ctx.moduleFingerprint()),
                    Payload);
    }
  }

  // The standard stages form a chain, and a dependency-closed pipeline is
  // therefore a prefix of it: every registered stage *not* in this
  // pipeline is downstream. Walk the whole chain against the *current*
  // config: the first stage whose record is missing, outdated, or keyed
  // to a different config is stale, and so is everything after it (its
  // input would change). Stale out-of-pipeline stages lose their record
  // and their report fields, so a partial run never returns an earlier
  // configuration point's numbers as current — even when every stage in
  // the partial pipeline itself was a cache hit.
  std::set<std::string> InPipeline;
  for (const auto &S : Stages)
    InPipeline.insert(S->name());
  uint64_t ChainGen = 0;
  bool ChainValid = true;
  for (const std::string &Name : PipelineBuilder::standardStageNames()) {
    std::unique_ptr<Stage> Std = PipelineBuilder::createStage(Name);
    const PipelineContext::StageRecord *Rec = Ctx.stageRecord(Name);
    if (ChainValid) {
      ChainValid = Rec && Rec->Generation >= ChainGen &&
                   Rec->Key == Std->cacheKey(Ctx.config());
      if (ChainValid)
        ChainGen = Rec->Generation;
    }
    if (!ChainValid && !InPipeline.count(Name)) {
      if (Rec)
        Ctx.clearStageResult(Name);
      Std->resetReport(Ctx.Report);
    }
  }

  Ctx.Report.Ok = true;
  RecordDecodeStats();
  return Ctx.Report;
}

PipelineReport Pipeline::run(const Module &Original,
                             const PipelineConfig &Config) const {
  PipelineContext Ctx(Original, Config);
  return run(Ctx);
}

std::string Pipeline::str() const {
  std::string Out;
  for (const auto &S : Stages) {
    if (!Out.empty())
      Out += ',';
    Out += S->name();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Builder.
//===----------------------------------------------------------------------===//

std::unique_ptr<Stage> PipelineBuilder::createStage(const std::string &Name) {
  if (Name == "profile")
    return std::make_unique<ProfileStage>();
  if (Name == "candidates")
    return std::make_unique<CandidateStage>();
  if (Name == "model-profile")
    return std::make_unique<ModelProfilingStage>();
  if (Name == "select")
    return std::make_unique<SelectionStage>();
  if (Name == "transform")
    return std::make_unique<TransformStage>();
  if (Name == "check")
    return std::make_unique<CheckStage>();
  if (Name == "validate")
    return std::make_unique<ValidateStage>();
  if (Name == "simulate")
    return std::make_unique<SimulateStage>();
  return nullptr;
}

const std::vector<std::string> &PipelineBuilder::standardStageNames() {
  static const std::vector<std::string> Names = {
      "profile", "candidates", "model-profile", "select",
      "transform", "check", "validate", "simulate"};
  return Names;
}

Pipeline PipelineBuilder::standard() {
  PipelineBuilder B;
  for (const std::string &Name : standardStageNames())
    B.add(Name);
  Pipeline P = B.build();
  return P;
}

PipelineBuilder &PipelineBuilder::add(std::unique_ptr<Stage> S) {
  Pending.push_back(std::move(S));
  return *this;
}

PipelineBuilder &PipelineBuilder::add(const std::string &Name) {
  std::unique_ptr<Stage> S = createStage(Name);
  if (!S) {
    if (Error.empty())
      Error = "unknown stage '" + Name + "'";
    return *this;
  }
  return add(std::move(S));
}

PipelineBuilder &PipelineBuilder::parse(const std::string &Text) {
  size_t Pos = 0;
  bool AnyToken = false;
  while (Pos < Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Token = Text.substr(Pos, Comma - Pos);
    // Trim surrounding whitespace; ignore empty tokens between commas.
    size_t B = Token.find_first_not_of(" \t\n");
    if (B != std::string::npos) {
      size_t E = Token.find_last_not_of(" \t\n");
      add(Token.substr(B, E - B + 1));
      AnyToken = true;
    }
    Pos = Comma + 1;
  }
  // An empty/whitespace-only pipeline string is a caller bug (a typoed
  // flag, an unset variable). Silently yielding a zero-stage pipeline
  // would defer the failure to run(); report it at build time instead.
  if (!AnyToken && Error.empty())
    Error = "empty pipeline string";
  return *this;
}

PipelineBuilder &PipelineBuilder::instrument(StageCallback CB) {
  Callback = std::move(CB);
  return *this;
}

Pipeline PipelineBuilder::build(std::string *Err) {
  Pipeline P;
  if (!Error.empty()) {
    if (Err)
      *Err = Error;
    return P;
  }

  std::set<std::string> Present;
  std::vector<std::unique_ptr<Stage>> Out;

  // Inserts the dependency closure of \p Name (registered stages only),
  // depth-first, before the dependent.
  std::function<bool(const std::string &)> AddDep =
      [&](const std::string &Name) -> bool {
    if (Present.count(Name))
      return true;
    std::unique_ptr<Stage> Dep = createStage(Name);
    if (!Dep) {
      Error = "stage depends on unknown stage '" + Name + "'";
      return false;
    }
    for (const char *D : Dep->dependencies())
      if (!AddDep(D))
        return false;
    Present.insert(Name);
    Out.push_back(std::move(Dep));
    return true;
  };

  for (auto &S : Pending) {
    if (Present.count(S->name())) {
      Error = std::string("stage '") + S->name() +
              "' is duplicated or listed after a stage that depends on it";
      break;
    }
    bool DepsOk = true;
    for (const char *D : S->dependencies())
      if (!AddDep(D)) {
        DepsOk = false;
        break;
      }
    if (!DepsOk)
      break;
    Present.insert(S->name());
    Out.push_back(std::move(S));
  }

  Pending.clear();
  if (!Error.empty()) {
    if (Err)
      *Err = Error;
    return P;
  }
  P.Stages = std::move(Out);
  P.Callback = std::move(Callback);
  if (Err)
    Err->clear();
  return P;
}
