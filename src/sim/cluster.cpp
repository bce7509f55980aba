#include "sim/cluster.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dsp {
namespace {

/// False for zero, negatives, NaN and infinities.
bool positive(double x) { return std::isfinite(x) && x > 0.0; }

}  // namespace

ClusterSpec::ClusterSpec(std::vector<NodeSpec> nodes, double theta1,
                         double theta2, double mem_mips_equiv)
    : nodes_(std::move(nodes)),
      theta1_(theta1),
      theta2_(theta2),
      mem_mips_equiv_(mem_mips_equiv) {
  const std::string error = validate();
  if (!error.empty()) throw std::invalid_argument(error);
}

std::string ClusterSpec::validate() const {
  if (!(theta1_ >= 0.0) || !(theta2_ >= 0.0) || !std::isfinite(theta1_) ||
      !std::isfinite(theta2_))
    return "ClusterSpec: θ weights must be finite and non-negative (theta1=" +
           std::to_string(theta1_) + ", theta2=" + std::to_string(theta2_) +
           "); Eq. (1) rates would turn negative";
  if (!positive(mem_mips_equiv_))
    return "ClusterSpec: mem_mips_equiv=" + std::to_string(mem_mips_equiv_) +
           " must be finite and positive (MIPS-equivalent of 1 GB/s memory "
           "bandwidth)";
  if (nodes_.size() > kMaxNodes)
    return "ClusterSpec: " + std::to_string(nodes_.size()) +
           " nodes exceed the limit of " + std::to_string(kMaxNodes) +
           " (event node ids are 16-bit; the largest id is " +
           std::to_string(kMaxNodes - 1) + ")";
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const NodeSpec& n = nodes_[k];
    if (n.slots <= 0)
      return "ClusterSpec: node " + std::to_string(k) + " has slots=" +
             std::to_string(n.slots) +
             "; every node needs at least one run slot";
    if (!positive(n.cpu_mips))
      return "ClusterSpec: node " + std::to_string(k) + " has cpu_mips=" +
             std::to_string(n.cpu_mips) +
             "; the CPU rating must be finite and positive";
    if (!positive(n.mem_gb))
      return "ClusterSpec: node " + std::to_string(k) + " has mem_gb=" +
             std::to_string(n.mem_gb) +
             "; the memory size must be finite and positive";
    if (!positive(n.capacity.cpu) || !positive(n.capacity.mem) ||
        !positive(n.capacity.disk) || !positive(n.capacity.bw))
      return "ClusterSpec: node " + std::to_string(k) +
             " has a non-positive or non-finite capacity component (cpu=" +
             std::to_string(n.capacity.cpu) +
             ", mem=" + std::to_string(n.capacity.mem) +
             ", disk=" + std::to_string(n.capacity.disk) +
             ", bw=" + std::to_string(n.capacity.bw) +
             "); no task demand could ever fit";
    if (!positive(rate(k)))
      return "ClusterSpec: node " + std::to_string(k) +
             " has processing rate g(k)=" + std::to_string(rate(k)) +
             "; Eq. (1) must give a finite positive rate (check "
             "theta1/theta2 against cpu_mips/mem_gb)";
  }
  return {};
}

double ClusterSpec::mean_rate() const {
  if (nodes_.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k < nodes_.size(); ++k) total += rate(k);
  return total / static_cast<double>(nodes_.size());
}

double ClusterSpec::max_rate() const {
  double best = 0.0;
  for (std::size_t k = 0; k < nodes_.size(); ++k) best = std::max(best, rate(k));
  return best;
}

int ClusterSpec::total_slots() const {
  int total = 0;
  for (const auto& n : nodes_) total += n.slots;
  return total;
}

bool ClusterSpec::fits_some_node(const Resources& demand) const {
  return std::any_of(nodes_.begin(), nodes_.end(), [&](const NodeSpec& n) {
    return n.capacity.fits(demand);
  });
}

ClusterSpec ClusterSpec::real_cluster(std::size_t n) {
  // Sun X2200 (AMD Opteron 2356, 4 cores @ 2.3 GHz, 16 GB RAM); 1 GB/s
  // network, 720 GB disk per §V. A 2.3 GHz Opteron core is roughly
  // 2300 MIPS-equivalent in the paper's accounting.
  NodeSpec spec;
  spec.cpu_mips = 2300.0;
  spec.mem_gb = 16.0;
  spec.capacity = Resources{/*cpu=*/4.0, /*mem=*/16.0, /*disk=*/720000.0,
                            /*bw=*/1000.0};
  spec.slots = 4;
  return ClusterSpec(std::vector<NodeSpec>(n, spec));
}

ClusterSpec ClusterSpec::ec2(std::size_t n) {
  // HP ProLiant ML110 G5: 2660 MIPS, 4 GB RAM (paper §V), dual-core era.
  NodeSpec spec;
  spec.cpu_mips = 2660.0;
  spec.mem_gb = 4.0;
  spec.capacity = Resources{/*cpu=*/2.0, /*mem=*/4.0, /*disk=*/720000.0,
                            /*bw=*/1000.0};
  spec.slots = 2;
  return ClusterSpec(std::vector<NodeSpec>(n, spec));
}

ClusterSpec ClusterSpec::uniform(std::size_t n, double cpu_mips, double mem_gb,
                                 int slots) {
  NodeSpec spec;
  spec.cpu_mips = cpu_mips;
  spec.mem_gb = mem_gb;
  spec.capacity = Resources{static_cast<double>(slots), mem_gb, 720000.0, 1000.0};
  spec.slots = slots;
  return ClusterSpec(std::vector<NodeSpec>(n, spec));
}

}  // namespace dsp
