// Outside-in replay of one round for the per-layer metrics.
//
// The replay reruns the workload's round on its exact inputs through the
// library's public functions, one Algorithm 1 phase at a time, timing each
// public call from here and reading the metrics registry for counts. Device
// seeds and the central k-means seed are recomputed in the draw order of
// Rng(options.seed). Nothing inside the library is instrumented for it.
//
// A replay has two parts:
//  * the replayed round: local clustering, uplink, screening, central solve
//    and relabelling, with the registry enabled. Its labels must equal the
//    untraced round's, its registry deltas are the layer counts, and its
//    phase walls should add up to the untraced round's wall time;
//  * the layer pass, with the registry disabled: each device's local
//    clustering again, split into its public calls (self-expression,
//    eigengap, spectral clustering, basis estimation), plus upload encoding
//    and decoding, screening and the bare central solve. Its partitions and
//    labels must again match the round.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct LayerMetric {
  double value = 0.0;
  std::string unit;  // "ms" for times; counts and ratios otherwise
};

struct ReplayResult {
  // Per-layer metrics by name.
  std::map<std::string, LayerMetric> layer;
  // Registry deltas of the replayed round (deterministic and execution
  // counters alike), for the repeat check between two replays.
  std::map<std::string, int64_t> counts;
  double round_ms = 0.0;      // wall time of the replayed round
  double phase_sum_ms = 0.0;  // sum of its phase walls
  std::vector<int64_t> labels;  // replayed labels in dataset order
  int64_t uplink_bytes = 0;
  // Non-empty when the replay failed or diverged from the round.
  std::string error;
};

ReplayResult ReplayRound(const Workload& workload, const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
