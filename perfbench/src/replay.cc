#include "replay.h"

#include <algorithm>
#include <utility>

#include "cluster/spectral.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "fed/defense.h"
#include "fed/faults.h"
#include "fed/network.h"
#include "graph/eigengap.h"
#include "linalg/batch.h"
#include "sc/affinity.h"
#include "sc/pipeline.h"
#include "sc/ssc_admm.h"

namespace perfbench {

using fedsc::FedScOptions;
using fedsc::Matrix;
using fedsc::Result;
using fedsc::Stopwatch;

namespace {

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

std::map<std::string, int64_t> RegistryCounts() {
  const fedsc::MetricsSnapshot snapshot = fedsc::SnapshotMetrics();
  std::map<std::string, int64_t> counts = snapshot.counters;
  counts.insert(snapshot.execution_counters.begin(),
                snapshot.execution_counters.end());
  for (const auto& [name, histogram] : snapshot.histograms) {
    counts[name + ".count"] = histogram.count;
    counts[name + ".sum"] = histogram.sum;
  }
  return counts;
}

std::map<std::string, int64_t> Delta(const std::map<std::string, int64_t>& a,
                                     const std::map<std::string, int64_t>& b) {
  std::map<std::string, int64_t> delta;
  for (const auto& [name, value] : b) {
    const auto it = a.find(name);
    delta[name] = value - (it == a.end() ? 0 : it->second);
  }
  return delta;
}

// The central pipeline options RunFedSc builds (core/fedsc.cc) for the
// given pool and k-means seed.
fedsc::ScPipelineOptions BatchCentralOptions(
    const FedScOptions& o, int64_t num_devices, int64_t num_clusters,
    int64_t total_samples, uint64_t kmeans_seed,
    const std::vector<int64_t>& sample_device) {
  fedsc::ScPipelineOptions central;
  central.method = o.central_method;
  central.central = o.central;
  central.sketch = o.central_sketch;
  central.sketch.seed = fedsc::MixSeeds(o.seed, 0x5ce7c4ULL);
  central.ssc = o.central_ssc;
  central.tsc = o.central_tsc;
  if (central.tsc.q <= 0) {
    central.tsc.q = std::max<int64_t>(
        3, (num_devices + num_clusters - 1) / num_clusters);
  }
  central.tsc.q = std::min<int64_t>(central.tsc.q, total_samples - 1);
  central.spectral = o.central_spectral;
  central.spectral.kmeans.seed = kmeans_seed;
  if (o.defense.enabled) {
    fedsc::KMeansRobustOptions& robust = central.spectral.kmeans.robust;
    robust.enabled = true;
    robust.trim_fraction = o.defense.trim_fraction;
    robust.center = o.defense.robust_center;
    robust.max_group_fraction = o.defense.max_device_fraction;
    robust.point_group = sample_device;
  }
  central.normalize_columns = true;
  central.num_threads = o.num_threads;
  return central;
}

// Pools the columns of `uploads` (skipping empty ones) and records the
// owning device of each column.
Matrix Pool(const std::vector<Matrix>& uploads, int64_t rows,
            std::vector<int64_t>* sample_device) {
  int64_t total = 0;
  for (const Matrix& m : uploads) total += m.cols();
  Matrix pooled(rows, total);
  sample_device->clear();
  int64_t next = 0;
  for (size_t z = 0; z < uploads.size(); ++z) {
    for (int64_t c = 0; c < uploads[z].cols(); ++c) {
      pooled.SetCol(next++, uploads[z].ColData(c));
      sample_device->push_back(static_cast<int64_t>(z));
    }
  }
  return pooled;
}

// State shared by the replayed round and the layer pass.
struct Replay {
  Replay(const Workload& w, const Inputs& in) : workload(w), inputs(in) {}

  const Workload& workload;
  const Inputs& inputs;
  ReplayResult result;
  std::vector<fedsc::FedScClient> clients;
  std::vector<Matrix> accepted;  // per device, empty when it failed
  // Encoded uploads of the client/server path, in device order.
  std::vector<std::vector<uint8_t>> wires;
  std::vector<int64_t> sample_labels;  // per pooled sample
  double central_solve_ms = 0.0;  // RunSubspaceClustering inside the round
  int64_t attempts = 0;

  int64_t num_devices() const { return inputs.data.num_devices(); }
  const FedScOptions& options() const { return workload.options; }

  bool Fail(std::string error) {
    if (result.error.empty()) result.error = std::move(error);
    return false;
  }
};

// Phase 1 through FedScClient::ProduceUpload (= LocalClusterAndSample on the
// device's seed), fanned out like RunFedSc's device loop.
double RunLocalPhase(Replay* r) {
  const int64_t num_devices = r->num_devices();
  std::vector<double> local_ms(static_cast<size_t>(num_devices), 0.0);
  std::vector<char> local_ok(static_cast<size_t>(num_devices), 0);
  Stopwatch phase;
  fedsc::ParallelFor(0, num_devices, r->options().num_threads,
                     [&](int64_t z) {
                       Stopwatch watch;
                       local_ok[static_cast<size_t>(z)] =
                           r->clients[static_cast<size_t>(z)]
                               .ProduceUpload()
                               .ok();
                       local_ms[static_cast<size_t>(z)] = Ms(watch);
                     });
  const double phase_ms = Ms(phase);
  for (int64_t z = 0; z < num_devices; ++z) {
    if (!local_ok[static_cast<size_t>(z)]) {
      r->Fail("local clustering failed on device " + std::to_string(z));
    }
  }
  r->result.layer["core.local_ms"] = {Sum(local_ms), "ms"};
  r->result.layer["core.local_max_ms"] = {
      *std::max_element(local_ms.begin(), local_ms.end()), "ms"};
  return phase_ms;
}

// The batch round's uplink, screening, central solve and relabelling, in
// RunFedSc's order and with its seeds.
bool ReplayBatchRound(Replay* r, uint64_t kmeans_seed) {
  const FedScOptions& o = r->options();
  const fedsc::FederatedDataset& data = r->inputs.data;
  const int64_t num_devices = r->num_devices();
  ReplayResult& out = r->result;

  Result<fedsc::FaultPlan> plan = fedsc::FaultPlan::Create(num_devices,
                                                           o.faults);
  if (!plan.ok()) return r->Fail(plan.status().ToString());
  fedsc::Channel channel(o.channel);
  Stopwatch uplink;
  r->accepted.assign(static_cast<size_t>(num_devices), Matrix());
  for (int64_t z = 0; z < num_devices; ++z) {
    fedsc::SimClock clock;
    fedsc::UplinkOutcome outcome = channel.UplinkWithRetry(
        z, r->clients[static_cast<size_t>(z)].local().samples, *plan,
        o.retry, &clock);
    r->attempts += outcome.attempts;
    if (!outcome.delivered) continue;
    Result<fedsc::UploadValidation> validation = fedsc::ValidateUpload(
        outcome.received, data.ambient_dim, o.validation);
    if (!validation.ok() || validation->accepted.cols() == 0) continue;
    if (validation->accepted.cols() !=
        r->clients[static_cast<size_t>(z)].num_samples()) {
      return r->Fail("device " + std::to_string(z) +
                     " delivered a partial upload; the replay relabels "
                     "whole uploads only");
    }
    r->accepted[static_cast<size_t>(z)] = std::move(validation->accepted);
  }
  out.uplink_bytes = channel.stats().uplink_wire_bytes;
  const double uplink_ms = Ms(uplink);

  Stopwatch central;
  std::vector<int64_t> sample_device;
  Matrix pooled = Pool(r->accepted, data.ambient_dim, &sample_device);
  // Timed whether or not the defense is on: with it off the step is empty.
  Stopwatch screen;
  if (o.defense.enabled && pooled.cols() > 0) {
    Result<fedsc::DefensePlan> defense = fedsc::DefensePlan::Create(o.defense);
    if (!defense.ok()) return r->Fail(defense.status().ToString());
    const fedsc::ScreeningOutcome screening =
        defense->Screen(pooled, sample_device, o.num_threads);
    for (const fedsc::DeviceScreenVerdict& verdict : screening.verdicts) {
      if (verdict.screened) {
        r->accepted[static_cast<size_t>(verdict.device)] = Matrix();
      }
    }
    if (screening.screened_devices > 0) {
      pooled = Pool(r->accepted, data.ambient_dim, &sample_device);
    }
  }
  out.layer["fed.screen_ms"] = {Ms(screen), "ms"};
  int64_t participating = 0;
  for (const Matrix& m : r->accepted) participating += m.cols() > 0 ? 1 : 0;
  if (static_cast<double>(participating) + 1e-12 <
      o.quorum * static_cast<double>(num_devices)) {
    return r->Fail("replayed round missed its quorum");
  }
  const fedsc::ScPipelineOptions central_options = BatchCentralOptions(
      o, num_devices, data.num_clusters, pooled.cols(), kmeans_seed,
      sample_device);
  Stopwatch solve;
  Result<fedsc::ScResult> clustered = fedsc::RunSubspaceClustering(
      pooled, data.num_clusters, central_options);
  r->central_solve_ms = Ms(solve);
  if (!clustered.ok()) return r->Fail(clustered.status().ToString());
  r->sample_labels = std::move(clustered->labels);
  const double central_ms = Ms(central);

  Stopwatch relabel;
  std::vector<std::vector<int64_t>> device_labels(
      static_cast<size_t>(num_devices));
  int64_t offset = 0;
  for (int64_t z = 0; z < num_devices; ++z) {
    auto& labels = device_labels[static_cast<size_t>(z)];
    const int64_t count = r->accepted[static_cast<size_t>(z)].cols();
    Result<std::vector<int64_t>> applied =
        count == 0
            ? Result<std::vector<int64_t>>(
                  fedsc::Status::FailedPrecondition("device failed"))
            : r->clients[static_cast<size_t>(z)].ApplyAssignments(
                  std::vector<int64_t>(
                      r->sample_labels.begin() + offset,
                      r->sample_labels.begin() + offset + count));
    offset += count;
    if (applied.ok()) {
      labels = std::move(applied).value();
    } else {
      labels.assign(data.global_index[static_cast<size_t>(z)].size(),
                    fedsc::FedScResult::kFailedDeviceLabel);
    }
  }
  out.labels = data.ToGlobalOrder(device_labels);
  const double relabel_ms = Ms(relabel);

  out.layer["core.uplink_ms"] = {uplink_ms, "ms"};
  out.layer["core.central_ms"] = {central_ms, "ms"};
  out.layer["core.relabel_ms"] = {relabel_ms, "ms"};
  out.phase_sum_ms += uplink_ms + central_ms + relabel_ms;
  return true;
}

// The client/server round itself (RunRound), on the clients whose local
// phase just ran, with its phase walls traced.
bool ReplayClientServerRound(Replay* r) {
  RoundState state;
  state.clients = std::move(r->clients);
  ClientServerTrace trace;
  RoundOutput round = RunRound(r->workload, r->inputs, &state, &trace);
  r->clients = std::move(state.clients);
  if (!round.status.ok()) return r->Fail(round.status.ToString());
  ReplayResult& out = r->result;
  out.labels = std::move(round.labels);
  out.uplink_bytes = round.uplink_bytes;
  r->attempts = static_cast<int64_t>(trace.wires.size());
  r->wires = std::move(trace.wires);
  r->sample_labels = std::move(trace.sample_labels);
  out.layer["fed.encode_ms"] = {trace.encode_ms, "ms"};
  out.layer["fed.decode_ms"] = {trace.decode_ms, "ms"};
  out.layer["core.uplink_ms"] = {trace.uplink_ms, "ms"};
  out.layer["core.central_ms"] = {trace.central_ms, "ms"};
  out.layer["core.relabel_ms"] = {trace.relabel_ms, "ms"};
  out.phase_sum_ms += trace.uplink_ms + trace.central_ms + trace.relabel_ms;
  return true;
}

// Each device's local clustering split into its public calls, with the
// same options, seeds and thread fan-out LocalClusterAndSample uses.
void LocalLayerPass(Replay* r) {
  const FedScOptions& o = r->options();
  const int64_t num_devices = r->num_devices();
  std::vector<double> admm_ms(static_cast<size_t>(num_devices), 0.0);
  std::vector<double> eigengap_ms(static_cast<size_t>(num_devices), 0.0);
  std::vector<double> spectral_ms(static_cast<size_t>(num_devices), 0.0);
  std::vector<double> basis_ms(static_cast<size_t>(num_devices), 0.0);
  std::vector<char> diverged(static_cast<size_t>(num_devices), 0);
  fedsc::ParallelFor(0, num_devices, o.num_threads, [&](int64_t z) {
    const auto slot = static_cast<size_t>(z);
    Matrix normalized = r->inputs.data.points[slot];
    normalized.NormalizeColumns();
    const int64_t num_points = normalized.cols();
    if (num_points < 3) return;  // LocalClusterAndSample's tiny-device path
    fedsc::Rng rng(r->inputs.device_seeds[slot]);
    Stopwatch admm;
    Result<fedsc::SparseMatrix> coeffs =
        fedsc::SscSelfExpression(normalized, o.local_ssc);
    admm_ms[slot] = Ms(admm);
    if (!coeffs.ok()) {
      diverged[slot] = 1;
      return;
    }
    const Matrix affinity = fedsc::AffinityFromCoefficients(*coeffs).ToDense();
    int64_t clusters = std::min<int64_t>(o.max_local_clusters, num_points);
    if (o.use_eigengap) {
      fedsc::EigengapOptions gap;
      gap.max_clusters = o.max_local_clusters;
      Stopwatch eigengap;
      Result<int64_t> estimated = fedsc::EstimateClusterCount(affinity, gap);
      eigengap_ms[slot] = Ms(eigengap);
      if (!estimated.ok()) {
        diverged[slot] = 1;
        return;
      }
      clusters = *estimated;
    }
    std::vector<int64_t> partition(static_cast<size_t>(num_points), 0);
    if (clusters > 1) {
      fedsc::SpectralOptions spectral = o.local_spectral;
      spectral.kmeans.seed = rng.Next();
      spectral.num_threads = spectral.num_threads > 1 ? spectral.num_threads
                                                      : o.num_threads;
      Stopwatch watch;
      Result<fedsc::SpectralResult> segmented =
          fedsc::SpectralCluster(affinity, clusters, spectral);
      spectral_ms[slot] = Ms(watch);
      if (!segmented.ok()) {
        diverged[slot] = 1;
        return;
      }
      partition = std::move(segmented->labels);
    }
    if (partition != r->clients[slot].local().partition) {
      diverged[slot] = 1;
      return;
    }
    std::vector<std::vector<int64_t>> members(static_cast<size_t>(clusters));
    for (int64_t i = 0; i < num_points; ++i) {
      members[static_cast<size_t>(partition[static_cast<size_t>(i)])]
          .push_back(i);
    }
    fedsc::BatchedSubspaceOptions batch;
    batch.rank = o.sample_dim;
    batch.rel_tol = o.rank_rel_tol;
    batch.num_threads = o.num_threads;
    Stopwatch basis;
    const std::vector<Result<Matrix>> bases =
        fedsc::BatchedPrincipalSubspace(normalized, members, batch);
    basis_ms[slot] = Ms(basis);
  });
  for (int64_t z = 0; z < num_devices; ++z) {
    if (diverged[static_cast<size_t>(z)]) {
      r->Fail("layer pass diverged from the round on device " +
              std::to_string(z));
    }
  }
  ReplayResult& out = r->result;
  out.layer["sc.local_admm_ms"] = {Sum(admm_ms), "ms"};
  out.layer["graph.eigengap_ms"] = {Sum(eigengap_ms), "ms"};
  out.layer["cluster.spectral_ms"] = {Sum(spectral_ms), "ms"};
  out.layer["linalg.basis_ms"] = {Sum(basis_ms), "ms"};
}

// Upload encoding and decoding on the batch path (the channel does both
// inside UplinkWithRetry), and screening plus the bare central solve on the
// client/server path (FedScServer::Cluster does both inside).
void FedAndCentralLayerPass(Replay* r) {
  const FedScOptions& o = r->options();
  const fedsc::FederatedDataset& data = r->inputs.data;
  ReplayResult& out = r->result;
  if (r->workload.api == Api::kBatch) {
    const fedsc::CodecOptions codec = fedsc::EffectiveCodecOptions(o.channel);
    double encode_ms = 0.0;
    double decode_ms = 0.0;
    for (const fedsc::FedScClient& client : r->clients) {
      Stopwatch encode;
      Result<std::vector<uint8_t>> wire =
          fedsc::EncodeUpload(client.local().samples, codec);
      encode_ms += Ms(encode);
      if (!wire.ok()) {
        r->Fail("encoding failed: " + wire.status().ToString());
        continue;
      }
      Stopwatch decode;
      Result<fedsc::DecodedUpload> decoded = fedsc::DecodeUpload(*wire);
      decode_ms += Ms(decode);
      if (!decoded.ok()) {
        r->Fail("decoding failed: " + decoded.status().ToString());
      }
    }
    out.layer["fed.encode_ms"] = {encode_ms, "ms"};
    out.layer["fed.decode_ms"] = {decode_ms, "ms"};
    out.layer["sc.central_ms"] = {r->central_solve_ms, "ms"};
    return;
  }

  // The pool FedScServer::Cluster solved: every registered upload, as
  // decoded (a clean round quarantines nothing).
  std::vector<Matrix> uploads;
  for (const std::vector<uint8_t>& wire : r->wires) {
    Result<fedsc::DecodedUpload> decoded = fedsc::DecodeUpload(wire);
    if (!decoded.ok()) {
      r->Fail("decoding failed: " + decoded.status().ToString());
      return;
    }
    uploads.push_back(std::move(decoded->samples));
  }
  std::vector<int64_t> sample_device;
  const Matrix pooled = Pool(uploads, data.ambient_dim, &sample_device);
  // FedScServer::Cluster screens inside; time the same step on its pool
  // (empty with the defense off).
  Stopwatch screen;
  if (o.defense.enabled) {
    Result<fedsc::DefensePlan> defense =
        fedsc::DefensePlan::Create(o.defense);
    if (defense.ok()) {
      (void)defense->Screen(pooled, sample_device, o.num_threads);
    }
  }
  out.layer["fed.screen_ms"] = {Ms(screen), "ms"};
  // FedScServer::Cluster's central options (core/server.cc).
  fedsc::ScPipelineOptions central = BatchCentralOptions(
      o, r->num_devices(), data.num_clusters, pooled.cols(),
      o.seed ^ 0x5e47e4ULL, sample_device);
  Stopwatch solve;
  Result<fedsc::ScResult> clustered =
      fedsc::RunSubspaceClustering(pooled, data.num_clusters, central);
  out.layer["sc.central_ms"] = {Ms(solve), "ms"};
  if (!clustered.ok()) {
    r->Fail(clustered.status().ToString());
  } else if (clustered->labels != r->sample_labels) {
    r->Fail("bare central solve disagrees with FedScServer::Cluster");
  }
}

}  // namespace

ReplayResult ReplayRound(const Workload& workload, const Inputs& inputs) {
  Replay r(workload, inputs);
  r.clients = MakeClients(workload, inputs);
  // RunFedSc draws every device seed, then the central k-means seed.
  fedsc::Rng rng(workload.options.seed);
  for (int64_t z = 0; z < inputs.data.num_devices(); ++z) rng.Next();
  const uint64_t kmeans_seed = rng.Next();

  const std::map<std::string, int64_t> before = RegistryCounts();
  fedsc::EnableMetrics(true);
  Stopwatch round;
  r.result.phase_sum_ms = RunLocalPhase(&r);
  if (r.result.error.empty()) {
    if (workload.api == Api::kBatch) {
      ReplayBatchRound(&r, kmeans_seed);
    } else {
      ReplayClientServerRound(&r);
    }
  }
  r.result.round_ms = Ms(round);
  fedsc::EnableMetrics(false);
  r.result.counts = Delta(before, RegistryCounts());
  if (!r.result.error.empty()) return r.result;

  LocalLayerPass(&r);
  FedAndCentralLayerPass(&r);

  const auto count = [&r](const std::string& name) {
    const auto it = r.result.counts.find(name);
    return static_cast<double>(it == r.result.counts.end() ? 0 : it->second);
  };
  std::map<std::string, LayerMetric>& layer = r.result.layer;
  // Per-layer name -> (registry counter, unit).
  static const std::pair<const char*, std::pair<const char*, const char*>>
      kRegistryMetrics[] = {
          {"sc.admm_solves", {"sc.ssc_admm.solves", "count"}},
          {"sc.admm_iterations", {"sc.ssc_admm.iterations", "count"}},
          {"sc.sketched_solves", {"sc.ssc_admm.sketched_solves", "count"}},
          {"cluster.kmeans_iterations", {"cluster.kmeans.iterations", "count"}},
          {"linalg.lanczos_iterations",
           {"linalg.lanczos.iterations", "count"}},
          {"linalg.gemm_calls", {"linalg.gemm.calls", "count"}},
          {"linalg.gemm_flops", {"linalg.gemm.flops", "flop"}},
          {"linalg.gemm_bytes", {"linalg.gemm.bytes", "B"}},
          {"linalg.syrk_flops", {"linalg.syrk.flops", "flop"}},
          {"linalg.qr_flops", {"linalg.qr.flops", "flop"}},
          {"linalg.svd_sweeps", {"linalg.svd.sweeps", "count"}},
          {"fed.retries", {"fed.comm.retries", "count"}},
          {"fed.wire_rejections", {"fed.faults.wire_rejections", "count"}},
          {"fed.screened_devices", {"fed.defense.screened_devices", "count"}},
          {"common.pool_tasks", {"threadpool.tasks_executed", "count"}},
      };
  for (const auto& [name, source] : kRegistryMetrics) {
    layer[name] = {count(source.first), source.second};
  }
  const double solves = count("sc.ssc_admm.solves");
  layer["sc.admm_converged_frac"] = {
      solves > 0 ? count("sc.ssc_admm.converged") / solves : 0.0, "ratio"};
  layer["fed.uplink_attempts"] = {static_cast<double>(r.attempts), "count"};
  return r.result;
}

}  // namespace perfbench
