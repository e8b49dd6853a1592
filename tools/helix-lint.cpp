//===----------------------------------------------------------------------===//
///
/// helix-lint: standalone static synchronization checker for textual IR.
///
/// Each input module is parsed, every top-level loop HELIX accepts is
/// transformed in place, and the SyncChecker verifies the resulting
/// Wait/Signal contract without executing an instruction. Saved fuzz
/// repros (`--corpus-dir` over the `.ir` files helix-fuzz writes) can be
/// triaged this way far faster than re-running the dynamic oracle.
///
/// Exit codes: 0 = all modules clean, 1 = findings, 2 = usage or I/O or
/// parse error.
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "check/DepAudit.h"
#include "check/SyncChecker.h"
#include "helix/HelixTransform.h"
#include "ir/IRParser.h"
#include "sim/Interpreter.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace helix;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: helix-lint [options] [file.ir ...]\n"
      "\n"
      "Statically verifies the Wait/Signal synchronization contract of\n"
      "every HELIX-parallelizable loop in each module: coverage of the\n"
      "loop-carried dependences, deadlock-freedom, and sync hygiene.\n"
      "\n"
      "  --corpus-dir DIR   lint every .ir file under DIR (recursive)\n"
      "  --deps             per-loop dependence summary (alias pairs,\n"
      "                     loop-carried, pruned-by-range, segments) plus a\n"
      "                     dynamic dependence-audit verdict: the module\n"
      "                     runs once sequentially and every witnessed\n"
      "                     loop-carried dependence must be synchronized\n"
      "  --json             machine-readable report on stdout\n"
      "  --trace-out FILE   write Chrome trace_event JSON of per-file and\n"
      "                     per-pass spans at exit\n"
      "  --no-signal-opt    transform with Step 6 disabled\n"
      "  --no-inlining      transform with Step 5 inlining disabled\n"
      "  -h, --help         this text\n");
}

struct FileReport {
  std::string Path;
  std::string Error; ///< parse/read failure, empty otherwise
  unsigned LoopsAttempted = 0;
  unsigned LoopsTransformed = 0;
  SyncCheckResult Check;

  /// --deps mode: one Table-1-style row per transformed loop.
  struct DepRow {
    std::string Func, Header;
    unsigned AliasPairs = 0;     ///< aliasing pairs, any distance
    unsigned Carried = 0;        ///< loop-carried subset synchronized
    unsigned PrunedByRange = 0;  ///< disproved by value-range facts
    unsigned Segments = 0;       ///< sequential segments emitted
  };
  std::vector<DepRow> DepRows;
  /// --deps mode: dynamic audit of the rows above (check/DepAudit).
  bool Audited = false;
  DepAuditResult Audit;
};

FileReport lintFile(const std::string &Path, const HelixOptions &Opts,
                    bool DepsMode) {
  obs::TraceSpan FileSpan("lint:" + Path, "lint");
  FileReport FR;
  FR.Path = Path;
  std::ifstream In(Path);
  if (!In) {
    FR.Error = "cannot open file";
    return FR;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  ParseResult PR = parseModule(SS.str());
  if (!PR.succeeded()) {
    FR.Error = "parse error: " + PR.Error;
    return FR;
  }

  Module &M = *PR.M;
  AnalysisManager AM(M);
  std::vector<std::pair<Function *, BasicBlock *>> Targets;
  for (Function *F : M)
    for (Loop *L : AM.get<LoopInfo>(F).topLevelLoops())
      Targets.push_back({F, L->header()});
  std::vector<ParallelLoopInfo> Loops;
  for (auto &[F, H] : Targets) {
    ++FR.LoopsAttempted;
    if (std::optional<ParallelLoopInfo> PLI = parallelizeLoop(AM, F, H, Opts)) {
      ++FR.LoopsTransformed;
      Loops.push_back(std::move(*PLI));
    }
  }
  std::vector<const ParallelLoopInfo *> PLIs;
  for (ParallelLoopInfo &L : Loops)
    PLIs.push_back(&L);
  FR.Check = checkModuleSync(AM, PLIs);

  if (DepsMode) {
    for (const ParallelLoopInfo &PLI : Loops) {
      FileReport::DepRow Row;
      Row.Func = PLI.F->name();
      Row.Header = PLI.Header->name();
      Row.AliasPairs = PLI.NumDepsTotal;
      Row.Carried = PLI.NumDepsCarried;
      Row.PrunedByRange = PLI.NumDepsPrunedByRange;
      Row.Segments = unsigned(PLI.Segments.size());
      FR.DepRows.push_back(std::move(Row));
    }
    // Dynamic verdict: run the transformed module once (Step 9 sequential
    // semantics) and audit the witnessed cross-iteration dependences
    // against the rows above.
    if (!Loops.empty() && M.findFunction("main")) {
      DepWitnessObserver DW(PLIs);
      Interpreter Interp(M);
      Interp.setObserver(&DW);
      ExecResult R = Interp.run();
      if (R.Ok) {
        FR.Audited = true;
        FR.Audit = auditDependences(DW);
      }
    }
  }
  return FR;
}

Json reportToJson(const std::vector<FileReport> &Reports) {
  Json Files = Json::array();
  uint64_t Total = 0, Errors = 0;
  for (const FileReport &FR : Reports) {
    Json F = Json::object();
    F.set("path", Json::str(FR.Path));
    if (!FR.Error.empty()) {
      F.set("error", Json::str(FR.Error));
      ++Errors;
      Files.push(std::move(F));
      continue;
    }
    F.set("loops_attempted", Json::integer(FR.LoopsAttempted));
    F.set("loops_transformed", Json::integer(FR.LoopsTransformed));
    F.set("loops_checked", Json::integer(FR.Check.LoopsChecked));
    F.set("deps_checked", Json::integer(FR.Check.DepsChecked));
    F.set("endpoints_checked", Json::integer(FR.Check.EndpointsChecked));
    if (!FR.DepRows.empty()) {
      Json Rows = Json::array();
      for (const FileReport::DepRow &Row : FR.DepRows) {
        Json R = Json::object();
        R.set("function", Json::str(Row.Func));
        R.set("header", Json::str(Row.Header));
        R.set("alias_pairs", Json::integer(Row.AliasPairs));
        R.set("loop_carried", Json::integer(Row.Carried));
        R.set("pruned_by_range", Json::integer(Row.PrunedByRange));
        R.set("segments", Json::integer(Row.Segments));
        Rows.push(std::move(R));
      }
      F.set("deps", std::move(Rows));
    }
    if (FR.Audited) {
      Json A = Json::object();
      A.set("loops_audited", Json::integer(FR.Audit.LoopsAudited));
      A.set("witnessed", Json::integer(FR.Audit.WitnessedDeps));
      A.set("covered", Json::integer(FR.Audit.CoveredDeps));
      A.set("uncovered", Json::integer(FR.Audit.UncoveredDeps));
      A.set("static_unwitnessed",
            Json::integer(FR.Audit.StaticUnwitnessed));
      Json Diags = Json::array();
      for (const std::string &D : FR.Audit.Diags)
        Diags.push(Json::str(D));
      A.set("diags", std::move(Diags));
      F.set("dep_audit", std::move(A));
    }
    Json Findings = Json::array();
    for (const SyncDiag &D : FR.Check.Diags) {
      Json J = Json::object();
      J.set("kind", Json::str(syncDiagKindName(D.Kind)));
      J.set("function", Json::str(D.Function));
      J.set("block", Json::str(D.Block));
      if (D.InstrIndex != ~0u)
        J.set("instr", Json::integer(D.InstrIndex));
      if (D.SegmentId >= 0)
        J.set("segment", Json::integer(D.SegmentId));
      J.set("detail", Json::str(D.Detail));
      Findings.push(std::move(J));
    }
    Total += FR.Check.Diags.size();
    F.set("findings", std::move(Findings));
    Files.push(std::move(F));
  }
  Json Root = Json::object();
  Root.set("files", std::move(Files));
  Root.set("total_findings", Json::integer(int64_t(Total)));
  Root.set("file_errors", Json::integer(int64_t(Errors)));
  return Root;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Paths;
  bool JsonOut = false;
  bool DepsMode = false;
  std::string TraceOutPath;
  HelixOptions Opts;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "-h" || A == "--help") {
      usage();
      return 0;
    }
    if (A == "--json") {
      JsonOut = true;
    } else if (A == "--deps") {
      DepsMode = true;
    } else if (A == "--no-signal-opt") {
      Opts.EnableSignalOpt = false;
    } else if (A == "--no-inlining") {
      Opts.EnableInlining = false;
    } else if (A == "--trace-out") {
      if (++I == argc) {
        std::fprintf(stderr, "helix-lint: --trace-out needs a file\n");
        return 2;
      }
      TraceOutPath = argv[I];
    } else if (A == "--corpus-dir") {
      if (++I == argc) {
        std::fprintf(stderr, "helix-lint: --corpus-dir needs a directory\n");
        return 2;
      }
      std::error_code EC;
      std::filesystem::recursive_directory_iterator It(argv[I], EC), End;
      if (EC) {
        std::fprintf(stderr, "helix-lint: cannot read %s: %s\n", argv[I],
                     EC.message().c_str());
        return 2;
      }
      for (; It != End; It.increment(EC)) {
        if (EC)
          break;
        if (It->is_regular_file() && It->path().extension() == ".ir")
          Paths.push_back(It->path().string());
      }
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "helix-lint: unknown option %s\n", A.c_str());
      usage();
      return 2;
    } else {
      Paths.push_back(A);
    }
  }
  if (Paths.empty()) {
    usage();
    return 2;
  }
  std::sort(Paths.begin(), Paths.end());

  if (!TraceOutPath.empty())
    obs::TraceRecorder::global().setEnabled(true);

  std::vector<FileReport> Reports;
  for (const std::string &P : Paths)
    Reports.push_back(lintFile(P, Opts, DepsMode));

  if (!TraceOutPath.empty()) {
    std::string TErr;
    if (obs::TraceRecorder::global().drainToFile(TraceOutPath, &TErr))
      std::fprintf(stderr, "helix-lint: trace: wrote %s\n",
                   TraceOutPath.c_str());
    else
      std::fprintf(stderr, "helix-lint: trace: %s\n", TErr.c_str());
  }

  bool AnyError = false, AnyFinding = false;
  for (const FileReport &FR : Reports) {
    AnyError |= !FR.Error.empty();
    AnyFinding |= !FR.Check.Diags.empty();
    AnyFinding |= FR.Audited && !FR.Audit.sound();
  }

  if (JsonOut) {
    std::printf("%s\n", reportToJson(Reports).toString().c_str());
  } else {
    for (const FileReport &FR : Reports) {
      if (!FR.Error.empty()) {
        std::printf("%s: ERROR: %s\n", FR.Path.c_str(), FR.Error.c_str());
        continue;
      }
      std::printf("%s: %s (%u/%u loops transformed, %u deps, %u endpoints "
                  "checked)\n",
                  FR.Path.c_str(),
                  FR.Check.clean() ? "clean"
                                   : formatStr("%u finding(s)",
                                               unsigned(FR.Check.Diags.size()))
                                         .c_str(),
                  FR.LoopsTransformed, FR.LoopsAttempted, FR.Check.DepsChecked,
                  FR.Check.EndpointsChecked);
      for (const SyncDiag &D : FR.Check.Diags)
        std::printf("  %s\n", D.str().c_str());
      for (const FileReport::DepRow &Row : FR.DepRows)
        std::printf("  deps @%s/%s: %u alias pair(s), %u loop-carried, "
                    "%u pruned by range, %u segment(s)\n",
                    Row.Func.c_str(), Row.Header.c_str(), Row.AliasPairs,
                    Row.Carried, Row.PrunedByRange, Row.Segments);
      if (FR.Audited) {
        std::printf("  dep audit: %s (%u loop(s), %u witnessed, %u "
                    "covered, %u uncovered, %u static unwitnessed)\n",
                    FR.Audit.sound() ? "sound" : "UNSOUND",
                    FR.Audit.LoopsAudited, FR.Audit.WitnessedDeps,
                    FR.Audit.CoveredDeps, FR.Audit.UncoveredDeps,
                    FR.Audit.StaticUnwitnessed);
        for (const std::string &D : FR.Audit.Diags)
          std::printf("    %s\n", D.c_str());
      }
    }
  }
  if (AnyError)
    return 2;
  return AnyFinding ? 1 : 0;
}
