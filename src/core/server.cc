#include "core/server.h"

#include <numeric>

#include "common/journal.h"

namespace fedsc {

FedScClient::FedScClient(Matrix points, FedScOptions options, uint64_t seed)
    : points_(std::move(points)), options_(std::move(options)), seed_(seed) {}

Result<Matrix> FedScClient::ProduceUpload() {
  if (!ran_) {
    FEDSC_ASSIGN_OR_RETURN(local_,
                           LocalClusterAndSample(points_, options_, seed_));
    ran_ = true;
  }
  return local_.samples;
}

Result<std::vector<uint8_t>> FedScClient::ProduceEncodedUpload(
    const CodecOptions& codec) {
  FEDSC_ASSIGN_OR_RETURN(Matrix samples, ProduceUpload());
  return EncodeUpload(samples, codec);
}

Result<std::vector<int64_t>> FedScClient::ApplyAssignments(
    const std::vector<int64_t>& sample_assignments) const {
  if (!ran_) {
    return Status::FailedPrecondition("ProduceUpload() has not run");
  }
  if (sample_assignments.size() != local_.sample_cluster.size()) {
    return Status::InvalidArgument(
        "expected " + std::to_string(local_.sample_cluster.size()) +
        " assignments, got " + std::to_string(sample_assignments.size()));
  }
  for (int64_t assignment : sample_assignments) {
    if (assignment < 0) {
      return Status::InvalidArgument(
          "assignment " + std::to_string(assignment) +
          " is out of range (labels must be >= 0)");
    }
  }
  // Every sample was accepted, in upload order.
  std::vector<int64_t> kept(sample_assignments.size());
  std::iota(kept.begin(), kept.end(), 0);
  return ScatterLabels(local_, kept, sample_assignments.data());
}

FedScServer::FedScServer(int64_t num_clusters, FedScOptions options)
    : aggregator_(num_clusters, std::move(options), -1) {}

Result<int64_t> FedScServer::AddUpload(const Matrix& samples) {
  if (samples.cols() == 0) {
    return Status::InvalidArgument("empty upload");
  }
  // The first accepted upload fixes the federation's ambient dimension;
  // validation quarantines corrupt columns so one bad device cannot poison
  // (or crash) the central solve.
  const int64_t id = num_devices();
  int64_t quarantined = 0;
  const Status accepted = aggregator_.Accept(id, samples, &quarantined);
  quarantined_samples_ += quarantined;
  if (!accepted.ok()) {
    if (quarantined > 0) {
      FEDSC_JOURNAL_EVENT("quarantined", id, -1,
                          {{"reason", accepted.ToString()}});
    }
    return accepted;
  }
  clustered_ = false;
  FEDSC_JOURNAL_EVENT("accepted", id, -1,
                      {{"uploaded_samples", samples.cols()},
                       {"accepted_samples", aggregator_.accepted_samples(id)},
                       {"quarantined_samples", quarantined}});
  return id;
}

Result<int64_t> FedScServer::AddEncodedUpload(
    const std::vector<uint8_t>& wire) {
  FEDSC_ASSIGN_OR_RETURN(DecodedUpload decoded, DecodeUpload(wire));
  return AddUpload(decoded.samples);
}

Status FedScServer::Cluster() {
  if (clustered_) return Status::OK();
  FEDSC_RETURN_NOT_OK(aggregator_.Screen(-1).status());
  FEDSC_RETURN_NOT_OK(aggregator_.Solve(aggregator_.options().seed ^ 0x5e47e4ULL,
                                        num_devices(), -1));
  sample_labels_.clear();
  for (int64_t id = 0; id < num_devices(); ++id) {
    const std::vector<int64_t> labels = aggregator_.SampleLabels(id);
    sample_labels_.insert(sample_labels_.end(), labels.begin(), labels.end());
  }
  clustered_ = true;
  return Status::OK();
}

Result<std::vector<int64_t>> FedScServer::AssignmentsFor(int64_t id) const {
  if (id < 0 || id >= num_devices()) {
    return Status::InvalidArgument("unknown device id " + std::to_string(id));
  }
  if (!clustered_) {
    return Status::FailedPrecondition("Cluster() has not run");
  }
  if (screened(id)) {
    return Status::InvalidArgument(
        "device " + std::to_string(id) +
        " was screened by the Byzantine defense; its samples were excluded "
        "from the central clustering");
  }
  return aggregator_.SampleLabels(id);
}

}  // namespace fedsc
