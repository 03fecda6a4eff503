// Workloads of the round benchmark: how each one builds its inputs from the
// workload seed, how one federated round runs through the library's public
// API, and the output check every round must pass.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "core/fedsc.h"
#include "core/server.h"
#include "data/synthetic.h"
#include "fed/partition.h"

namespace perfbench {

inline double Ms(const fedsc::Stopwatch& watch) {
  return 1e3 * watch.ElapsedSeconds();
}

// Which API a workload drives the protocol through.
enum class Api {
  kBatch,         // one RunFedSc call
  kClientServer,  // FedScClient -> FedScServer -> FedScClient
};

struct Workload {
  std::string name;
  Api api = Api::kBatch;
  fedsc::SyntheticOptions synth;
  fedsc::PartitionOptions partition;
  fedsc::FedScOptions options;
  // Lowest clustering accuracy, in percent over labelled points, that a
  // round may report when no subspace is under-sampled (see CheckRound).
  double acc_floor_pct = 0.0;
};

// The workload `name` with inputs drawn from `seed`. `tiny` shrinks every
// shape so that a round takes milliseconds (smoke tests only).
fedsc::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool tiny);

struct Inputs {
  fedsc::FederatedDataset data;
  std::vector<int64_t> truth;  // ground truth in dataset order
  // Per-device seeds for the client/server path, drawn from
  // Rng(options.seed) in the order RunFedSc draws them.
  std::vector<uint64_t> device_seeds;
};

fedsc::Result<Inputs> MakeInputs(const Workload& workload);

// One fresh client per device, seeded like RunFedSc's devices. A client
// caches its local clustering after the first upload, so every round needs
// new ones.
std::vector<fedsc::FedScClient> MakeClients(const Workload& workload,
                                            const Inputs& inputs);

// Untimed per-round preparation: the clients of the client/server path.
struct RoundState {
  std::vector<fedsc::FedScClient> clients;
};

RoundState PrepareRound(const Workload& workload, const Inputs& inputs);

// What a round hands back, in the same form for both APIs.
struct RoundOutput {
  fedsc::Status status;
  std::vector<int64_t> labels;     // dataset order; -1 on failed devices
  std::vector<char> device_failed;  // per device, as the round reports it
  int64_t uplink_bytes = 0;        // serialized uplink bytes
};

// What the traced replay reads from inside a client/server round.
struct ClientServerTrace {
  double encode_ms = 0.0;   // sum of ProduceEncodedUpload
  double decode_ms = 0.0;   // sum of FedScServer::AddEncodedUpload
  double uplink_ms = 0.0;   // wall of the upload loop
  double central_ms = 0.0;  // FedScServer::Cluster
  double relabel_ms = 0.0;  // wall of AssignmentsFor + ApplyAssignments
  std::vector<std::vector<uint8_t>> wires;  // registered uploads, in order
  std::vector<int64_t> sample_labels;       // FedScServer::sample_labels()
};

// One round. `trace` (client/server API only) receives the round's
// phase walls and server state.
RoundOutput RunRound(const Workload& workload, const Inputs& inputs,
                     RoundState* state, ClientServerTrace* trace = nullptr);

struct RoundCheck {
  bool ok = false;
  std::string reason;  // why the round failed the check
  double acc_pct = 0.0;
  double covered_frac = 0.0;
  int64_t undersampled = 0;   // subspaces the central solve cannot recover
  double acc_floor_pct = 0.0;  // the floor this round was held to
  uint64_t fingerprint = 0;    // FNV-1a of the label vector
};

// The output check: the round returned OK, every point has a label in
// [-1, L), -1 appears exactly on the devices the round reports as failed,
// and accuracy over labelled points reaches the round's floor. The caller
// compares fingerprints across rounds.
//
// The floor is the workload's, lowered for under-sampled subspaces. Each
// device uploads samples_per_cluster samples of every subspace it holds,
// and self-expression needs d + 1 samples of a d-dimensional subspace to
// write each one from the others. A subspace whose reporting devices upload
// d or fewer of its samples is under-sampled: the central solve merges it
// into another cluster, and the label that frees splits a third. So each
// under-sampled subspace takes two clusters' share off the floor:
// floor = acc_floor_pct * max(0, L - 2u) / L.
RoundCheck CheckRound(const Workload& workload, const Inputs& inputs,
                      const RoundOutput& output);

uint64_t LabelFingerprint(const std::vector<int64_t>& labels);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
