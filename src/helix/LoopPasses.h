//===----------------------------------------------------------------------===//
///
/// \file
/// A uniform loop-pass interface over the HELIX transformation steps
/// (Section 2.1). parallelizeLoop() is a LoopPassManager running the
/// standard sequence:
///
///   normalize    Step 1: Figure-3(a) normal form (prologue/body split)
///   dependence   Step 2: loop-carried dependences to satisfy
///   inline       Step 5a: inline calls participating in dependences
///   characterize metadata: IVs, self-starting prologue, dep statistics
///   wait-signal  Step 4: naive Wait/Signal insertion (sequential-segment
///                construction)
///   signal-opt   Step 6: signal minimization
///   lower        Steps 3+7: iteration starts and boundary communication
///   finalize     publish ParallelLoopInfo, verify
///
/// Step 5b's segment-shrinking scheduler and Step 8's Figure-6 balancing
/// scheduler are not implemented (see README, "Not reproduced"). Step 8's
/// helper-thread prefetching is a property of the simulated machine, not
/// of the transformed code.
///
/// Every pass runs against a shared LoopPassState and returns, alongside
/// its continue/abort decision, the PreservedAnalyses set describing what
/// it left intact. The manager invalidates exactly the complement for the
/// touched function (closed over the analysis dependency graph), so a pass
/// that rewrote instructions but kept the CFG does not force the next
/// pass — or the next *loop* — to rebuild dominators and loop structure.
/// Passes that must see analyses consistent with pointers they re-derive
/// (normalize and inline refresh the Loop object) invalidate and recompute
/// internally and report all-preserved. Either way no pass ever consumes
/// stale analyses.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_HELIX_LOOPPASSES_H
#define HELIX_HELIX_LOOPPASSES_H

#include "analysis/AnalysisManager.h"
#include "analysis/DataDependence.h"
#include "helix/HelixOptions.h"
#include "helix/Lowering.h"
#include "helix/Normalize.h"
#include "helix/ParallelLoopInfo.h"
#include "helix/PassTiming.h"
#include "helix/SequentialSegments.h"
#include "helix/SignalOpt.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace helix {

/// The working state threaded through the loop passes. Passes read the
/// artifacts earlier passes produced and append their own.
struct LoopPassState {
  LoopPassState(Function *F, BasicBlock *Header, const HelixOptions &Opts)
      : F(F), Header(Header), Opts(Opts) {}

  Function *F;
  BasicBlock *Header;
  const HelixOptions &Opts;

  NormalizedLoop NL;                 ///< normalize
  Loop *L = nullptr;                 ///< normalize (refreshed by inline;
                                     ///< dead once a pass drops LoopInfo)
  DependenceStats Stats;             ///< dependence
  std::vector<DataDependence> Deps;  ///< dependence (refreshed by inline)
  WaitSignalInsertion WS;            ///< wait-signal
  SignalOptResult SO;                ///< signal-opt
  LoweringResult LR;                 ///< lower
  ParallelLoopInfo PLI;              ///< accumulated result
};

class LoopPass {
public:
  virtual ~LoopPass() = default;

  virtual const char *name() const = 0;

  /// What one pass execution decided and what it left intact.
  struct PassResult {
    enum class Action {
      Continue, ///< proceed to the next pass
      Abort,    ///< loop is not parallelizable; manager returns nullopt
    };
    Action Act = Action::Continue;
    /// Honoured only on Continue. all() declares "no cached analysis can
    /// observe what I did"; anything else marks the function mutated and
    /// the manager drops the complement (dependency-closed).
    PreservedAnalyses Preserved = PreservedAnalyses::all();
  };

  static PassResult abort() {
    return {PassResult::Action::Abort, PreservedAnalyses::all()};
  }
  static PassResult preservingAll() {
    return {PassResult::Action::Continue, PreservedAnalyses::all()};
  }
  static PassResult preserving(PreservedAnalyses PA) {
    return {PassResult::Action::Continue, PA};
  }

  virtual PassResult run(AnalysisManager &AM, LoopPassState &S) = 0;
};

/// Runs a sequence of loop passes over one loop, invalidating after each
/// pass exactly the analyses the pass did not preserve.
class LoopPassManager {
public:
  LoopPassManager &add(std::unique_ptr<LoopPass> P) {
    Passes.push_back(std::move(P));
    return *this;
  }

  std::vector<std::string> passNames() const {
    std::vector<std::string> Names;
    for (const auto &P : Passes)
      Names.push_back(P->name());
    return Names;
  }

  size_t size() const { return Passes.size(); }

  /// Runs every pass in order against the loop with header \p Header of
  /// \p F. \returns the accumulated ParallelLoopInfo, or nullopt when a
  /// pass aborted. When \p Timings is non-null, each pass's wall time is
  /// folded into it (by pass name), so one vector accumulates timing
  /// across every loop a caller transforms — that is what attributes a
  /// slow transform (e.g. a fuzz-found pathological module) to a specific
  /// Step.
  std::optional<ParallelLoopInfo>
  run(AnalysisManager &AM, Function *F, BasicBlock *Header,
      const HelixOptions &Opts,
      std::vector<LoopPassTiming> *Timings = nullptr) const;

private:
  std::vector<std::unique_ptr<LoopPass>> Passes;
};

/// Appends the standard HELIX Step 1-8 pass sequence. Step switches in
/// HelixOptions are honoured by the passes themselves, so one manager
/// serves every configuration.
void addStandardHelixLoopPasses(LoopPassManager &PM);

} // namespace helix

#endif // HELIX_HELIX_LOOPPASSES_H
