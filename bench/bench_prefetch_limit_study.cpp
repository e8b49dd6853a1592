//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.3's signal prefetching limit study: HELIX (helper-thread
/// prefetching) vs ideal prefetching (every signal already in L1) vs no
/// prefetching. The paper also reports a "matched" point, helper threads
/// without the Figure-6 balancing scheduler, ~0.1x below HELIX; that
/// scheduler is not reproduced (README, "Not reproduced"), so HELIX here
/// is the matched configuration. The paper's gap between matched and
/// ideal is ~0.4x (geomean).
///
/// HELIX and ideal differ only in the simulator's prefetch mode, so they
/// share the whole compilation through the per-benchmark context; the
/// no-prefetching point changes a transform switch and re-runs from
/// model-profiling onward.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace helix;
using namespace helix::bench;

int main() {
  printHeader("Signal prefetching limit study (Section 3.3)",
              "Section 3.3");
  std::printf("%-10s %10s %10s %10s\n", "benchmark", "none", "HELIX",
              "ideal");

  std::vector<PipelineConfig> Configs(3);
  Configs[0].Helix.EnableHelperThreads = false; // no prefetching at all
  // Configs[1]: full HELIX.
  Configs[2].Prefetch = PrefetchMode::Ideal; // all signals fully prefetched

  std::vector<std::vector<double>> All(3);
  double S[3] = {0, 0, 0};
  sweepEachBenchmark(
      Configs,
      [&](const WorkloadSpec &, unsigned K, const PipelineReport &R) {
        S[K] = R.Speedup;
        if (R.Ok)
          All[K].push_back(R.Speedup);
      },
      [&](const WorkloadSpec &Spec, const PipelineContext &) {
        std::printf("%-10s %9.2fx %9.2fx %9.2fx\n", Spec.Name.c_str(), S[0],
                    S[1], S[2]);
      });
  std::printf("%-10s %9.2fx %9.2fx %9.2fx\n", "geoMean", geoMean(All[0]),
              geoMean(All[1]), geoMean(All[2]));
  std::printf("\npaper: |ideal - matched| ~ 0.4 (geomean); HELIX here has "
              "no Figure-6\nbalancing, so it is the paper's matched point\n");

  obs::BenchJsonWriter W("prefetch_limit_study");
  W.add("geomean_none", geoMean(All[0]), "x");
  W.add("geomean_helix", geoMean(All[1]), "x");
  W.add("geomean_ideal", geoMean(All[2]), "x");
  W.write();
  return 0;
}
