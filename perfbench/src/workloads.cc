#include "workloads.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "fed/codec.h"
#include "metrics/clustering_metrics.h"

namespace perfbench {

using fedsc::FedScOptions;
using fedsc::Result;
using fedsc::Status;

namespace {

// Fault schedule of tall_defended. The schedule is part of the scenario,
// not of the data: a fixed plan gives every seed the same mix of dropped,
// retried, corrupted and colluding devices (1 dropped, 1 wire-corrupted,
// 6 colluders and 1 with transient losses, out of 32), so the workload
// never misses its quorum by the luck of a draw.
constexpr uint64_t kTallFaultSeed = 0x7a11'fa30ULL;

Workload LocalAdmm(bool tiny) {
  // The pinned round: 8 random 4-dim subspaces in D = 64, 400 unit-norm
  // points each, 40 devices holding 2 subspaces each, default options.
  Workload w;
  w.name = "local_admm";
  w.api = Api::kBatch;
  w.synth.ambient_dim = 64;
  w.synth.subspace_dim = 4;
  w.synth.num_subspaces = tiny ? 4 : 8;
  w.synth.points_per_subspace = tiny ? 60 : 400;
  // The tiny shape keeps about 8 devices per subspace, so no subspace is
  // under-sampled and the output check's self-test sees the full floor.
  w.partition.num_devices = tiny ? 16 : 40;
  w.partition.clusters_per_device = 2;
  w.options.num_threads = 1;
  w.acc_floor_pct = 90.0;
  return w;
}

Workload ManyDevices(bool tiny) {
  // Thousands of tiny devices whose pooled upload lies above
  // kSketchedCutoffN, so kAuto takes the sketched central solve.
  Workload w;
  w.name = "many_devices";
  w.api = Api::kClientServer;
  w.synth.ambient_dim = 64;
  w.synth.subspace_dim = 4;
  w.synth.num_subspaces = tiny ? 4 : 10;
  w.synth.points_per_subspace = tiny ? 60 : 2100;
  w.partition.num_devices = tiny ? 16 : 1050;
  w.partition.clusters_per_device = 2;
  // Two samples per local cluster keep the pooled upload (about 4400
  // columns) above the cutoff with half the devices, and a 128-atom sketch
  // (the shape rule's floor) keeps one round near 3 s.
  w.options.samples_per_cluster = 2;
  w.options.central_sketch.dim = tiny ? 16 : 128;
  w.options.num_threads = 1;
  // The tiny shape pools far fewer than kSketchedCutoffN samples; pin the
  // sketched engine so the smoke test still runs it.
  if (tiny) w.options.central = fedsc::CentralPath::kSketched;
  w.acc_floor_pct = 90.0;
  return w;
}

Workload TallDefended(bool tiny) {
  // The paper's high-dimensional regime (n > N_z) behind a lossy, noisy,
  // partly adversarial uplink with the Byzantine defense on.
  Workload w;
  w.name = "tall_defended";
  w.api = Api::kBatch;
  w.synth.ambient_dim = tiny ? 256 : 1024;
  w.synth.subspace_dim = 4;
  w.synth.num_subspaces = tiny ? 4 : 8;
  w.synth.points_per_subspace = tiny ? 60 : 200;
  w.partition.num_devices = 32;
  w.partition.clusters_per_device = 2;
  FedScOptions& o = w.options;
  o.num_threads = 2;
  // About 6 devices per subspace survive the faults and the screen. Two
  // noisy samples per local cluster keep the central solve over-determined,
  // and capping the eigengap estimate at L' stops the sparse SSC graphs of
  // 50 points in D = 1024 from splitting a device into many clusters;
  // without either, accuracy swings between 60% and 100% across seeds.
  o.samples_per_cluster = 2;
  o.max_local_clusters = 2;
  o.channel.noise_delta = 0.05;
  o.channel.codec.mode = fedsc::CodecMode::kBasisCoeffs;
  o.defense.enabled = true;
  o.faults.dropout_rate = 0.05;
  o.faults.transient_rate = 0.10;
  o.faults.wire_corrupt_rate = 0.05;
  o.faults.byzantine_rate = 0.20;
  o.faults.byzantine_mode = fedsc::ByzantineMode::kCollude;
  o.faults.seed = kTallFaultSeed;
  o.retry.max_attempts = 3;
  o.quorum = 0.6;
  w.acc_floor_pct = 80.0;
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              bool tiny) {
  Workload w;
  if (name == "local_admm") {
    w = LocalAdmm(tiny);
  } else if (name == "many_devices") {
    w = ManyDevices(tiny);
  } else if (name == "tall_defended") {
    w = TallDefended(tiny);
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (local_admm, many_devices, "
                                   "tall_defended)");
  }
  // The seed picks the subspaces, the points and their split over devices;
  // the library sees only those generated inputs.
  w.synth.noise_stddev = 0.0;
  w.synth.normalize = true;
  w.synth.seed = fedsc::MixSeeds(seed, 1);
  w.partition.seed = fedsc::MixSeeds(seed, 2);
  return w;
}

Result<Inputs> MakeInputs(const Workload& workload) {
  FEDSC_ASSIGN_OR_RETURN(fedsc::Dataset dataset,
                         fedsc::GenerateUnionOfSubspaces(workload.synth));
  Inputs inputs;
  FEDSC_ASSIGN_OR_RETURN(
      inputs.data, fedsc::PartitionAcrossDevices(dataset, workload.partition));
  inputs.truth = inputs.data.GlobalTruth();
  fedsc::Rng rng(workload.options.seed);
  inputs.device_seeds.resize(static_cast<size_t>(inputs.data.num_devices()));
  for (uint64_t& seed : inputs.device_seeds) seed = rng.Next();
  return inputs;
}

std::vector<fedsc::FedScClient> MakeClients(const Workload& workload,
                                            const Inputs& inputs) {
  const int64_t num_devices = inputs.data.num_devices();
  std::vector<fedsc::FedScClient> clients;
  clients.reserve(static_cast<size_t>(num_devices));
  for (int64_t z = 0; z < num_devices; ++z) {
    clients.emplace_back(inputs.data.points[static_cast<size_t>(z)],
                         workload.options,
                         inputs.device_seeds[static_cast<size_t>(z)]);
  }
  return clients;
}

RoundState PrepareRound(const Workload& workload, const Inputs& inputs) {
  RoundState state;
  if (workload.api == Api::kClientServer) {
    state.clients = MakeClients(workload, inputs);
  }
  return state;
}

namespace {

RoundOutput RunBatchRound(const Workload& workload, const Inputs& inputs) {
  RoundOutput out;
  const int64_t num_devices = inputs.data.num_devices();
  out.device_failed.assign(static_cast<size_t>(num_devices), 0);
  Result<fedsc::FedScResult> result = fedsc::RunFedSc(
      inputs.data, inputs.data.num_clusters, workload.options);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.labels = std::move(result->global_labels);
  for (int64_t z : result->failed_devices) {
    out.device_failed[static_cast<size_t>(z)] = 1;
  }
  out.uplink_bytes = result->comm.uplink_wire_bytes;
  return out;
}

RoundOutput RunClientServerRound(const Workload& workload,
                                 const Inputs& inputs, RoundState* state,
                                 ClientServerTrace* trace) {
  RoundOutput out;
  ClientServerTrace unused;
  ClientServerTrace& t = trace != nullptr ? *trace : unused;
  const fedsc::FederatedDataset& data = inputs.data;
  const int64_t num_devices = data.num_devices();
  out.device_failed.assign(static_cast<size_t>(num_devices), 0);
  fedsc::FedScServer server(data.num_clusters, workload.options);
  std::vector<int64_t> server_id(static_cast<size_t>(num_devices), -1);
  fedsc::Stopwatch uplink;
  for (int64_t z = 0; z < num_devices; ++z) {
    fedsc::Stopwatch encode;
    Result<std::vector<uint8_t>> wire =
        state->clients[static_cast<size_t>(z)].ProduceEncodedUpload(
            fedsc::CodecOptions{});
    t.encode_ms += Ms(encode);
    if (!wire.ok()) continue;
    out.uplink_bytes += static_cast<int64_t>(wire->size());
    fedsc::Stopwatch decode;
    Result<int64_t> id = server.AddEncodedUpload(*wire);
    t.decode_ms += Ms(decode);
    if (!id.ok()) continue;
    server_id[static_cast<size_t>(z)] = *id;
    if (trace != nullptr) trace->wires.push_back(std::move(wire).value());
  }
  t.uplink_ms = Ms(uplink);
  fedsc::Stopwatch central;
  out.status = server.Cluster();
  t.central_ms = Ms(central);
  if (!out.status.ok()) return out;
  if (trace != nullptr) trace->sample_labels = server.sample_labels();
  fedsc::Stopwatch relabel;
  std::vector<std::vector<int64_t>> device_labels(
      static_cast<size_t>(num_devices));
  for (int64_t z = 0; z < num_devices; ++z) {
    auto& labels = device_labels[static_cast<size_t>(z)];
    const int64_t id = server_id[static_cast<size_t>(z)];
    Result<std::vector<int64_t>> assignments =
        id >= 0 ? server.AssignmentsFor(id)
                : Result<std::vector<int64_t>>(
                      Status::FailedPrecondition("device did not upload"));
    Result<std::vector<int64_t>> applied =
        assignments.ok()
            ? state->clients[static_cast<size_t>(z)].ApplyAssignments(
                  *assignments)
            : Result<std::vector<int64_t>>(assignments.status());
    if (applied.ok()) {
      labels = std::move(applied).value();
    } else {
      out.device_failed[static_cast<size_t>(z)] = 1;
      labels.assign(data.global_index[static_cast<size_t>(z)].size(),
                    fedsc::FedScResult::kFailedDeviceLabel);
    }
  }
  out.labels = data.ToGlobalOrder(device_labels);
  t.relabel_ms = Ms(relabel);
  return out;
}

}  // namespace

RoundOutput RunRound(const Workload& workload, const Inputs& inputs,
                     RoundState* state, ClientServerTrace* trace) {
  return workload.api == Api::kBatch
             ? RunBatchRound(workload, inputs)
             : RunClientServerRound(workload, inputs, state, trace);
}

uint64_t LabelFingerprint(const std::vector<int64_t>& labels) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int64_t label : labels) {
    auto bits = static_cast<uint64_t>(label);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

RoundCheck CheckRound(const Workload& workload, const Inputs& inputs,
                      const RoundOutput& output) {
  RoundCheck check;
  const fedsc::FederatedDataset& data = inputs.data;
  const auto fail = [&check](std::string reason) {
    check.ok = false;
    check.reason = std::move(reason);
    return check;
  };
  if (!output.status.ok()) {
    return fail("round failed: " + output.status.ToString());
  }
  if (static_cast<int64_t>(output.labels.size()) != data.total_points) {
    return fail("round labelled " + std::to_string(output.labels.size()) +
                " of " + std::to_string(data.total_points) + " points");
  }
  if (static_cast<int64_t>(output.device_failed.size()) !=
      data.num_devices()) {
    return fail("round reported on the wrong number of devices");
  }
  std::vector<int64_t> truth;
  std::vector<int64_t> predicted;
  truth.reserve(output.labels.size());
  predicted.reserve(output.labels.size());
  for (int64_t z = 0; z < data.num_devices(); ++z) {
    const bool failed = output.device_failed[static_cast<size_t>(z)] != 0;
    for (int64_t g : data.global_index[static_cast<size_t>(z)]) {
      const int64_t label = output.labels[static_cast<size_t>(g)];
      if (label == fedsc::FedScResult::kFailedDeviceLabel) {
        if (!failed) {
          return fail("point " + std::to_string(g) + " of reporting device " +
                      std::to_string(z) + " has the failed-device label");
        }
        continue;
      }
      if (failed) {
        return fail("point " + std::to_string(g) + " of failed device " +
                    std::to_string(z) + " has a real label");
      }
      if (label < 0 || label >= data.num_clusters) {
        return fail("point " + std::to_string(g) + " has label " +
                    std::to_string(label) + " outside [0, " +
                    std::to_string(data.num_clusters) + ")");
      }
      truth.push_back(inputs.truth[static_cast<size_t>(g)]);
      predicted.push_back(label);
    }
  }
  if (predicted.empty()) return fail("no point received a label");
  check.covered_frac = static_cast<double>(predicted.size()) /
                       static_cast<double>(data.total_points);
  check.acc_pct = fedsc::ClusteringAccuracy(truth, predicted);  // percent
  check.fingerprint = LabelFingerprint(output.labels);

  // Samples of each subspace that reach the central solve: reporting
  // devices upload samples_per_cluster per subspace they hold.
  const int64_t num_clusters = data.num_clusters;
  std::vector<int64_t> samples(static_cast<size_t>(num_clusters), 0);
  std::vector<int64_t> held_by(static_cast<size_t>(num_clusters), -1);
  for (int64_t z = 0; z < data.num_devices(); ++z) {
    if (output.device_failed[static_cast<size_t>(z)] != 0) continue;
    for (int64_t g : data.global_index[static_cast<size_t>(z)]) {
      const auto s = static_cast<size_t>(inputs.truth[static_cast<size_t>(g)]);
      if (held_by[s] == z) continue;
      held_by[s] = z;
      samples[s] += workload.options.samples_per_cluster;
    }
  }
  check.undersampled = std::count_if(
      samples.begin(), samples.end(),
      [&](int64_t n) { return n <= workload.synth.subspace_dim; });
  check.acc_floor_pct =
      workload.acc_floor_pct *
      static_cast<double>(std::max<int64_t>(0, num_clusters -
                                                   2 * check.undersampled)) /
      static_cast<double>(num_clusters);
  if (check.acc_pct < check.acc_floor_pct) {
    return fail("accuracy " + std::to_string(check.acc_pct) +
                "% is below the floor of " +
                std::to_string(check.acc_floor_pct) + "% (" +
                std::to_string(check.undersampled) +
                " under-sampled subspaces)");
  }
  check.ok = true;
  return check;
}

}  // namespace perfbench
