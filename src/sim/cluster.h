// Cluster model: node specifications and the two testbed profiles.
//
// The paper evaluates on (a) 50 servers of Clemson's Palmetto cluster
// (Sun X2200: AMD Opteron 2356, 16 GB RAM) and (b) 30 Amazon EC2 instances
// (HP ProLiant ML110 G5: 2660 MIPS CPU, 4 GB RAM), each with 1 GB/s
// bandwidth and 720 GB disk. `real_cluster()` and `ec2()` reproduce those
// two profiles for the simulator.
//
// Node processing rate follows the paper's Eq. (1):
//   g(k) = theta1 * s_cpu(k) + theta2 * s_mem(k)
// with s_cpu in MIPS and s_mem converted to a MIPS-equivalent via
// `mem_mips_equiv` (memory contributes bandwidth-bound throughput).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dag/task.h"

namespace dsp {

/// Static description of one server.
struct NodeSpec {
  double cpu_mips = 2660.0;  ///< s_cpu: per-core MIPS rating.
  double mem_gb = 4.0;       ///< s_mem: memory size in GB.
  Resources capacity;        ///< Schedulable resource capacity.
  int slots = 4;             ///< Concurrent task slots (cores).
};

/// A cluster: node list + the g(k) weighting parameters of Eq. (1).
class ClusterSpec {
 public:
  ClusterSpec() = default;
  /// Validates on construction: a malformed spec (zero/negative slot
  /// counts; capacities, ratings or rates g(k) that are not finite and
  /// positive; negative or non-finite θ weights) throws
  /// std::invalid_argument naming the offending node and field. An
  /// invalid cluster would otherwise surface as NaN rates or
  /// never-dispatched tasks deep inside a run.
  ClusterSpec(std::vector<NodeSpec> nodes, double theta1 = 0.5,
              double theta2 = 0.5, double mem_mips_equiv = 100.0);

  /// The constructor's validation as a query: returns an empty string for
  /// a well-formed spec, else a message describing the first defect.
  std::string validate() const;

  /// Largest node count validate() accepts: the flight recorder stores
  /// node ids in obs::Event's 16-bit `node`/`node2` fields, so ids beyond
  /// 32767 would silently wrap in the event stream.
  static constexpr std::size_t kMaxNodes = 32768;

  std::size_t size() const { return nodes_.size(); }
  const NodeSpec& node(std::size_t k) const { return nodes_.at(k); }
  const std::vector<NodeSpec>& nodes() const { return nodes_; }

  double theta1() const { return theta1_; }
  double theta2() const { return theta2_; }

  /// Processing rate g(k) in MIPS (Eq. (1)); a task of size l MI runs for
  /// l / g(k) seconds on node k (Eq. (2)).
  double rate(std::size_t k) const {
    const NodeSpec& n = nodes_.at(k);
    return theta1_ * n.cpu_mips + theta2_ * n.mem_gb * mem_mips_equiv_;
  }

  /// Mean rate across nodes; the reference rate for deadline derivation.
  double mean_rate() const;

  /// Fastest node's rate.
  double max_rate() const;

  /// Total slot count across the cluster.
  int total_slots() const;

  /// Whether some node's capacity fits `demand`.
  bool fits_some_node(const Resources& demand) const;

  /// The paper's "real cluster" testbed profile: `n` Sun X2200 servers
  /// (quad-core Opteron 2356 ~ 9200 MIPS aggregate, 16 GB RAM, 720 GB disk,
  /// 1 GB/s network). Default n = 50 as in §V.
  static ClusterSpec real_cluster(std::size_t n = 50);

  /// The paper's EC2 testbed profile: `n` HP ML110 G5 instances
  /// (2660 MIPS, 4 GB RAM, 720 GB disk, 1 GB/s). Default n = 30.
  static ClusterSpec ec2(std::size_t n = 30);

  /// `n` identical nodes (unit tests, scenario recipes, `uniform:` specs).
  static ClusterSpec uniform(std::size_t n, double cpu_mips, double mem_gb,
                             int slots);

 private:
  std::vector<NodeSpec> nodes_;
  double theta1_ = 0.5;
  double theta2_ = 0.5;
  double mem_mips_equiv_ = 100.0;
};

}  // namespace dsp
