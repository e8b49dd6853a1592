//===----------------------------------------------------------------------===//
///
/// \file
/// The unified, layered configuration of the HELIX pipeline — the single
/// source of truth for every knob. It replaces the former split between
/// DriverConfig (driver-level knobs) and HelixOptions (transform knobs),
/// which duplicated SelectionSignalCycles and NumCores.
///
/// Layers:
///   - NumCores            top-level: how many cores the CMP has. Feeds the
///                         selection model, the data-placement accounting
///                         and the timing simulator alike.
///   - Helix               the transformation switches (Section 2.1 steps)
///                         plus the machine latency model they assume.
///   - Selection           the loop-selection experiment knobs (Section
///                         2.2 / 3.3, Figures 11-13).
///   - Prefetch/DoAcross   timing-simulator execution models (Section 4).
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_PIPELINE_PIPELINECONFIG_H
#define HELIX_PIPELINE_PIPELINECONFIG_H

#include "exec/ExecLimits.h"
#include "helix/HelixOptions.h"
#include "sim/ParallelSim.h"

#include <cstdint>
#include <string>

namespace helix {

/// Knobs of the analytical loop-selection stage (Equation 1).
struct SelectionConfig {
  /// Signal latency S assumed by the selection model.
  ///
  /// Figure 12/13 override semantics: negative (the default) means the
  /// compiler estimates S per loop from its profile — the gap-based
  /// Section-3.3 estimate of how much of the unprefetched latency the
  /// helper thread can hide. An explicit value >= 0 models a compiler that
  /// *believes* every signal costs exactly S cycles, including on the
  /// chain of sequential segments: 0 reproduces Figure 12's underestimate
  /// (deep loops get picked, then slow down), 110 the overestimate
  /// (profitable loops are forfeited), and sweeping 4 -> 110 reproduces
  /// Figure 13's drift of the chosen loops toward outermost nesting
  /// levels.
  double SignalCycles = -1.0;

  /// When >= 1, skip model-driven selection and pick every executed
  /// candidate at this dynamic nesting level (1 = outermost), as in
  /// Figures 11 and 13.
  int ForceNestingLevel = -1;

  /// Candidate filter: loops below this fraction of program time are not
  /// evaluated.
  double MinLoopCycleFraction = 0.002;
};

/// Everything the pipeline stages read. One source of truth per knob.
struct PipelineConfig {
  /// Cores of the simulated CMP (Figure 9 sweeps 2/4/6). The machine
  /// *latency* constants live in Helix.Machine; the core count lives here
  /// only.
  unsigned NumCores = 6;

  /// HELIX transformation switches (Steps 1-8) and the machine latency
  /// model the transformation and simulator assume.
  HelixOptions Helix;

  SelectionConfig Selection;

  /// Signal-latency model of the timing simulator (Step 8 evaluation).
  PrefetchMode Prefetch = PrefetchMode::Helper;
  /// Model the classic DOACROSS baseline instead of HELIX overlap.
  bool DoAcross = false;

  /// Interpreter run-length cap for profiling and validation runs.
  uint64_t MaxInterpInstructions = ExecLimits::DefaultMaxSteps;

  /// Worker threads of the model-profile stage's per-candidate fan-out.
  /// 0 = hardware concurrency, 1 = forced single-thread execution. Pure
  /// execution policy: the stage's results are bit-identical for every
  /// value, so this knob is deliberately absent from its cache key.
  unsigned ModelProfileThreads = 0;

  /// A/B baseline for the analysis-preservation contract: when true, the
  /// transforming stages put their AnalysisManager into conservative mode
  /// (every invalidation behaves like invalidate-all — the pre-preservation
  /// world). Results are bit-identical either way; only the analysis
  /// counters and compile time differ. bench_pass_performance and the
  /// preservation regression test flip this to prove the win.
  bool ConservativeAnalysisInvalidation = false;

  /// Central configuration validation, run by Pipeline::run before any
  /// stage executes. \returns an empty string when the configuration is
  /// usable, else a description of the first problem. Guards the knobs
  /// whose bad values would otherwise surface as UB deep inside a stage
  /// (e.g. NumCores == 0 reaching a modulo in the data-placement
  /// accounting).
  std::string validate() const {
    if (NumCores < 1)
      return "PipelineConfig: NumCores must be >= 1";
    if (MaxInterpInstructions == 0)
      return "PipelineConfig: MaxInterpInstructions must be >= 1";
    return std::string();
  }
};

} // namespace helix

#endif // HELIX_PIPELINE_PIPELINECONFIG_H
