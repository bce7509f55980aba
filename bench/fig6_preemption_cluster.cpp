// Figure 6: preemption methods on the real cluster (50 nodes), all running
// on DSP's initial schedule.
//   6(a) # dependency disorders   — DSP = 0 < Natjam ~ Amoeba < SRPT
//   6(b) throughput (tasks/ms)    — SRPT < Amoeba ~ Natjam < DSPW/oPP < DSP
//   6(c) average job waiting time — DSP < DSPW/oPP < Natjam ~ SRPT < Amoeba
//   6(d) # preemptions            — DSP < DSPW/oPP < Natjam < Amoeba < SRPT
#include "bench_common.h"

int main(int argc, char** argv) {
  const auto cli = dsp::bench::BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  return dsp::bench::run_preemption_figure("Fig 6", "fig6_preemption_cluster",
                                           dsp::ClusterProfile::kRealCluster,
                                           cli);
}
