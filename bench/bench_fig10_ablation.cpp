//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 10: contribution of Step 6 (signal minimization) and Step 8
/// (helper-thread prefetching). Four configurations on six cores; loops
/// are re-chosen for each configuration from profiles of the code produced
/// for that configuration, exactly as in the paper. Only steps 6 and 8
/// together give significant speedups. The paper's Figure-6 balancing
/// scheduler is not reproduced (README, "Not reproduced"), so the HELIX
/// column is steps 6 and 8 without it.
///
/// The sweep runs through one PipelineContext per benchmark: the training
/// run (profile stage) executes once and is reused by every configuration
/// point, while model-profiling/transformation re-run per point because
/// the transform switches change the code being profiled.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace helix;
using namespace helix::bench;

int main() {
  printHeader("Figure 10: speedups with steps 6/8 disabled", "Figure 10");

  struct ConfigSpec {
    const char *Label;
    bool Step6, Step8;
  };
  const ConfigSpec Specs[4] = {
      {"no6no8", false, false},
      {"no8", true, false},
      {"no6", false, true},
      {"HELIX", true, true},
  };
  std::vector<PipelineConfig> Configs;
  for (const ConfigSpec &CS : Specs) {
    PipelineConfig C;
    C.Helix.EnableSignalOpt = CS.Step6;
    C.Helix.EnableHelperThreads = CS.Step8;
    Configs.push_back(C);
  }

  std::printf("%-10s", "benchmark");
  for (const ConfigSpec &CS : Specs)
    std::printf(" %10s", CS.Label);
  std::printf("   profile-stage\n");

  std::vector<std::vector<double>> All(4);
  sweepEachBenchmark(
      Configs,
      [&](const WorkloadSpec &Spec, unsigned K, const PipelineReport &R) {
        if (K == 0)
          std::printf("%-10s", Spec.Name.c_str());
        std::printf(" %9.2fx", R.Speedup);
        if (R.Ok)
          All[K].push_back(R.Speedup);
      },
      [](const WorkloadSpec &, const PipelineContext &Ctx) {
        std::printf("   ran %ux, reused %ux\n",
                    Ctx.timesExecuted("profile"),
                    Ctx.timesReused("profile"));
      });
  std::printf("%-10s", "geoMean");
  for (unsigned K = 0; K != 4; ++K)
    std::printf(" %9.2fx", geoMean(All[K]));
  std::printf("\n\npaper: only steps 6 and 8 together yield significant "
              "speedups\n");

  obs::BenchJsonWriter W("fig10_ablation");
  for (unsigned K = 0; K != 4; ++K)
    W.add(std::string("geomean_") + Specs[K].Label, geoMean(All[K]), "x");
  W.write();
  return 0;
}
