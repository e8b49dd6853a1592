//===----------------------------------------------------------------------===//
///
/// \file
/// The HELIX loop parallelization pipeline (Section 2.1, Steps 1-9).
///
/// Given a loop, this driver normalizes it, computes the dependences to
/// satisfy, inlines calls participating in dependences, inserts and
/// optimizes Wait/Signal synchronization, lowers boundary-variable
/// communication, and returns the ParallelLoopInfo metadata the execution
/// engines consume.
///
/// Step 9 note (merging parallel loops): only one loop runs in parallel at
/// a time. The lowered loop remains sequentially executable (sync ops are
/// no-ops in single-threaded interpretation), so instead of cloning a
/// sequential copy of every loop, the runtime executes the same code
/// sequentially when another parallel loop is already active — the dynamic
/// check the paper implements with a pre-header branch on a global flag.
/// Exit dispatch (unique value per exit path) falls out of the engines'
/// direct interpretation of the exit edges.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_HELIX_HELIXTRANSFORM_H
#define HELIX_HELIX_HELIXTRANSFORM_H

#include "analysis/AnalysisManager.h"
#include "helix/HelixOptions.h"
#include "helix/ParallelLoopInfo.h"
#include "helix/PassTiming.h"

#include <optional>
#include <vector>

namespace helix {

/// Parallelizes the loop with header \p Header of \p F in place.
/// \returns the loop metadata, or nullopt when the loop cannot be
/// normalized (e.g. the header no longer heads a loop). When \p Timings
/// is non-null, per-pass wall time is accumulated into it (see
/// LoopPassManager::run).
std::optional<ParallelLoopInfo>
parallelizeLoop(AnalysisManager &AM, Function *F, BasicBlock *Header,
                const HelixOptions &Opts,
                std::vector<LoopPassTiming> *Timings = nullptr);

} // namespace helix

#endif // HELIX_HELIX_HELIXTRANSFORM_H
