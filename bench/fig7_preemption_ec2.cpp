// Figure 7: the Fig. 6 preemption comparison repeated on Amazon EC2
// (30 nodes). The paper's cross-testbed observations: waiting times are
// longer and preemptions more frequent than on the (larger, faster) real
// cluster, with the same method ordering.
#include "bench_common.h"

int main(int argc, char** argv) {
  const auto cli = dsp::bench::BenchCli::parse(argc, argv);
  if (!cli.ok) return 2;
  return dsp::bench::run_preemption_figure("Fig 7", "fig7_preemption_ec2",
                                           dsp::ClusterProfile::kEc2, cli);
}
