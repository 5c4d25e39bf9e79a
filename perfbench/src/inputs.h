// Seeded inputs of the three workloads.
//
// sim::UniformWorkload (the paper's Sec. VII generator) draws every input
// from --seed: the overlay's link costs and each slot's batch of files. The
// program receives only the generated topology and files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/file_request.h"
#include "net/topology.h"

namespace perfbench {

struct WorkloadShape {
  std::string name;
  int files_min = 0;  // files per slot, U[files_min, files_max]
  int files_max = 0;
  double size_min = 0.0;  // GB, U[size_min, size_max]
  double size_max = 0.0;
  int deadline_min = 0;  // T, U[deadline_min, deadline_max]
  int deadline_max = 0;
  double capacity = 0.0;  // GB per slot on every link
  int slots = 0;          // slots of one episode
  long pivot_budget = 0;  // RuntimeOptions::slot_pivot_budget, 0 = none
};

struct Inputs {
  WorkloadShape shape;
  postcard::net::Topology topology{1};
  /// batches[t] holds the files released at slot `first_slot + t`.
  std::vector<std::vector<postcard::net::FileRequest>> batches;
  int first_slot = 0;
};

/// Seed of a run's episode `episode`: every episode draws new traffic, so
/// a run's samples span several independent traffic streams.
std::uint64_t episode_seed(std::uint64_t seed, int episode);

/// Shapes by workload name; false for an unknown name.
bool find_shape(const std::string& workload, WorkloadShape* shape);

/// paper20 and service run on a complete digraph with a_ij ~ U[1,10];
/// fattree45 puts costs of the same law on net::fat_tree(6). The overlay
/// comes from a fixed seed, the traffic from `seed`. `first_slot` offsets
/// release slots (the service bootstraps its standby on slot 0).
Inputs make_inputs(const WorkloadShape& shape, std::uint64_t seed,
                   int first_slot);

}  // namespace perfbench
