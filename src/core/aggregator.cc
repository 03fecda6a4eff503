#include "core/aggregator.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/journal.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"

namespace fedsc {

Status ValidateFedScOptions(const FedScOptions& options) {
  if (options.central_method != ScMethod::kSsc &&
      options.central_method != ScMethod::kTsc) {
    return Status::InvalidArgument(
        "Fed-SC's server runs SSC or TSC (Section IV-D)");
  }
  if (options.samples_per_cluster < 1) {
    return Status::InvalidArgument("samples_per_cluster must be >= 1");
  }
  if (!options.use_eigengap && options.max_local_clusters < 1) {
    return Status::InvalidArgument(
        "fixed-r mode needs max_local_clusters >= 1");
  }
  FEDSC_RETURN_NOT_OK(ValidateChannelOptions(options.channel));
  FEDSC_RETURN_NOT_OK(ValidateRetryOptions(options.retry));
  FEDSC_RETURN_NOT_OK(ValidateFaultPlanOptions(options.faults));
  FEDSC_RETURN_NOT_OK(ValidateUploadValidationOptions(options.validation));
  FEDSC_RETURN_NOT_OK(ValidateDefenseOptions(options.defense));
  if (!(options.quorum >= 0.0 && options.quorum <= 1.0)) {
    return Status::InvalidArgument("quorum must lie in [0, 1], got " +
                                   std::to_string(options.quorum));
  }
  return Status::OK();
}

std::vector<int64_t> ScatterLabels(const LocalClusteringOutput& local,
                                   const std::vector<int64_t>& kept,
                                   const int64_t* labels, int64_t first_sample,
                                   std::vector<int64_t>* point_sample) {
  std::vector<int64_t> cluster_label(
      static_cast<size_t>(std::max<int64_t>(local.num_local_clusters, 1)),
      FedScResult::kFailedDeviceLabel);
  std::vector<int64_t> cluster_sample(cluster_label.size(), -1);
  const auto uploaded = static_cast<int64_t>(local.sample_cluster.size());
  for (size_t k = 0; k < kept.size(); ++k) {
    if (kept[k] < 0 || kept[k] >= uploaded) continue;
    const auto t = static_cast<size_t>(
        local.sample_cluster[static_cast<size_t>(kept[k])]);
    if (cluster_sample[t] == -1) {
      cluster_sample[t] = first_sample + static_cast<int64_t>(k);
      cluster_label[t] = labels[k];
    }
  }
  std::vector<int64_t> point_labels(local.partition.size());
  if (point_sample != nullptr) point_sample->resize(local.partition.size());
  for (size_t i = 0; i < local.partition.size(); ++i) {
    const auto t = static_cast<size_t>(local.partition[i]);
    point_labels[i] = cluster_label[t];
    if (point_sample != nullptr) (*point_sample)[i] = cluster_sample[t];
  }
  return point_labels;
}

CentralAggregator::CentralAggregator(int64_t num_clusters,
                                     FedScOptions options,
                                     int64_t ambient_dim)
    : num_clusters_(num_clusters),
      options_(std::move(options)),
      options_status_(ValidateFedScOptions(options_)),
      ambient_dim_(ambient_dim) {
  if (options_status_.ok() && num_clusters_ < 1) {
    options_status_ = Status::InvalidArgument("need num_clusters >= 1");
  }
}

int64_t CentralAggregator::unscreened_samples() const {
  int64_t total = 0;
  for (const Upload& upload : devices_) {
    if (!upload.screened) total += upload.accepted.cols();
  }
  return total;
}

Status CentralAggregator::Accept(int64_t device, const Matrix& samples,
                                 int64_t* quarantined) {
  *quarantined = 0;
  FEDSC_RETURN_NOT_OK(options_status_);
  FEDSC_ASSIGN_OR_RETURN(
      UploadValidation validation,
      ValidateUpload(samples, ambient_dim_, options_.validation));
  *quarantined = static_cast<int64_t>(validation.quarantined.size());
  if (validation.accepted.cols() == 0) {
    return Status::InvalidArgument(
        "every sample of device " + std::to_string(device) +
        " failed validation: " + QuarantinedColumnsSummary(validation));
  }
  if (ambient_dim_ < 0) ambient_dim_ = samples.rows();
  if (device >= num_devices()) devices_.resize(static_cast<size_t>(device + 1));
  Upload& upload = devices_[static_cast<size_t>(device)];
  registered_samples_ += validation.accepted.cols();
  upload.accepted = std::move(validation.accepted);
  upload.kept = std::move(validation.kept);
  pooled_ = false;
  return Status::OK();
}

void CentralAggregator::Pool() {
  solve_ = CentralSolve();
  solve_.samples = Matrix(ambient_dim_, unscreened_samples());
  solve_.sample_device.reserve(static_cast<size_t>(solve_.samples.cols()));
  int64_t next = 0;
  for (int64_t z = 0; z < num_devices(); ++z) {
    Upload& upload = devices_[static_cast<size_t>(z)];
    upload.offset = next;
    if (upload.screened) continue;
    for (int64_t c = 0; c < upload.accepted.cols(); ++c) {
      solve_.samples.SetCol(next++, upload.accepted.ColData(c));
      solve_.sample_device.push_back(z);
    }
  }
  pooled_ = true;
}

Result<std::vector<DeviceScreenVerdict>> CentralAggregator::Screen(
    int64_t sim_ms) {
  FEDSC_RETURN_NOT_OK(options_status_);
  std::vector<DeviceScreenVerdict> screened;
  if (!options_.defense.enabled || registered_samples_ == 0) return screened;
  FEDSC_TRACE_SPAN("fedsc/defense/screen", {{"samples", registered_samples_}});
  // Every registered upload is screened afresh: one screened by an earlier
  // call may pass among the uploads that arrived since.
  for (Upload& upload : devices_) upload.screened = false;
  Pool();
  FEDSC_ASSIGN_OR_RETURN(DefensePlan defense,
                         DefensePlan::Create(options_.defense));
  const ScreeningOutcome screening = defense.Screen(
      solve_.samples, solve_.sample_device, options_.num_threads);
  for (const DeviceScreenVerdict& verdict : screening.verdicts) {
    if (!verdict.screened) continue;
    devices_[static_cast<size_t>(verdict.device)].screened = true;
    pooled_ = false;
    FEDSC_METRIC_COUNTER("fedsc.screened_devices").Increment();
    FEDSC_JOURNAL_EVENT("defense_screened", verdict.device, sim_ms,
                        {{"statistic", verdict.statistic},
                         {"support", verdict.support},
                         {"residual", verdict.residual}});
    FEDSC_LOG(Warning) << "device " << verdict.device
                       << " screened by the Byzantine defense: "
                       << verdict.statistic;
    screened.push_back(verdict);
  }
  return screened;
}

ScPipelineOptions CentralAggregator::CentralOptions(uint64_t kmeans_seed,
                                                    int64_t q_devices) const {
  ScPipelineOptions central;
  central.method = options_.central_method;
  central.central = options_.central;
  central.sketch = options_.central_sketch;
  // The sketch stream hangs off the run seed alone (never the device RNG or
  // the upload order), so the dictionary is a pure function of (seed,
  // pooled shape).
  central.sketch.seed = MixSeeds(options_.seed, 0x5ce7c4ULL);
  central.ssc = options_.central_ssc;
  central.tsc = options_.central_tsc;
  if (central.tsc.q <= 0) {
    // The paper's rule: q = max(3, ceil(Z / L)).
    central.tsc.q = std::max<int64_t>(
        3, (q_devices + num_clusters_ - 1) / num_clusters_);
  }
  central.tsc.q = std::min<int64_t>(central.tsc.q, solve_.samples.cols() - 1);
  central.spectral = options_.central_spectral;
  central.spectral.kmeans.seed = kmeans_seed;
  if (options_.defense.enabled) {
    // Robust k-engine: trimmed assignment, robust centers, and a per-device
    // influence cap on the embedding rows (one per pooled sample).
    KMeansRobustOptions& robust = central.spectral.kmeans.robust;
    robust.enabled = true;
    robust.trim_fraction = options_.defense.trim_fraction;
    robust.center = options_.defense.robust_center;
    robust.max_group_fraction = options_.defense.max_device_fraction;
    robust.point_group = solve_.sample_device;
  }
  // The solve runs on the coordinator after the uploads are in, so the
  // worker budget that fanned Phase 1 out across devices now threads the
  // central kernels (bit-identical for any thread count).
  central.num_threads = options_.num_threads;
  return central;
}

Status CentralAggregator::Solve(uint64_t kmeans_seed, int64_t q_devices,
                                int64_t sim_ms) {
  FEDSC_RETURN_NOT_OK(options_status_);
  const int64_t total = unscreened_samples();
  if (total < num_clusters_) {
    return Status::FailedPrecondition(
        "server received fewer samples than clusters (" +
        std::to_string(total) + " < " + std::to_string(num_clusters_) + ")");
  }
  FEDSC_TRACE_SPAN("fedsc/phase2/central", {{"samples", total}});
  if (!pooled_) Pool();
  const ScPipelineOptions central = CentralOptions(kmeans_seed, q_devices);
  const CentralPath path = ResolveCentralPath(central, total, num_clusters_);
  FEDSC_JOURNAL_EVENT(
      "central_start", -1, sim_ms,
      {{"samples", total},
       {"method", central.method == ScMethod::kSsc ? "ssc" : "tsc"},
       {"central_path", CentralPathName(path)}});
  FEDSC_METRIC_GAUGE("fedsc.central_sketched", MetricKind::kDeterministic)
      .Set(path == CentralPath::kSketched ? 1.0 : 0.0);
  FEDSC_ASSIGN_OR_RETURN(
      ScResult result,
      RunSubspaceClustering(solve_.samples, num_clusters_, central));
  solve_.sample_labels = std::move(result.labels);
  solve_.affinity = std::move(result.affinity);
  FEDSC_JOURNAL_EVENT("central_finish", -1, sim_ms, {{"samples", total}});
  return Status::OK();
}

std::vector<int64_t> CentralAggregator::SampleLabels(int64_t device) const {
  const Upload& upload = devices_[static_cast<size_t>(device)];
  if (upload.screened) {
    return std::vector<int64_t>(static_cast<size_t>(upload.accepted.cols()),
                                FedScResult::kFailedDeviceLabel);
  }
  const auto begin = solve_.sample_labels.begin() + upload.offset;
  return std::vector<int64_t>(begin, begin + upload.accepted.cols());
}

std::vector<int64_t> CentralAggregator::PointLabels(
    int64_t device, const LocalClusteringOutput& local,
    std::vector<int64_t>* point_sample) const {
  const Upload& upload = devices_[static_cast<size_t>(device)];
  return ScatterLabels(local, upload.kept,
                       solve_.sample_labels.data() + upload.offset,
                       upload.offset, point_sample);
}

}  // namespace fedsc
