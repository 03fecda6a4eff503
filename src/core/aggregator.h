// The server half of one Fed-SC round (Phase 2 of Algorithm 1) and the
// Phase-3 label scatter, shared by both APIs: RunFedSc feeds it the uploads
// its simulated network delivered, and FedScServer is a thin shell over it.
// It owns option validation, per-upload validation and quarantine, the
// Byzantine screen, pooling, the central solve, and the point labels.
//
// Each API passes four inputs of its own, which fix its labels (pinned in
// tests/server_test.cc):
//   - the central k-means seed: RunFedSc draws it from the run RNG after the
//     device seeds; FedScServer uses seed ^ 0x5e47e4;
//   - the device count Z behind the TSC rule q = max(3, ceil(Z / L)):
//     RunFedSc counts every scheduled device, FedScServer every registered
//     upload;
//   - the ambient dimension: RunFedSc takes the dataset's, FedScServer the
//     first accepted upload's;
//   - the journal's device ids and sim_ms: RunFedSc journals device indices
//     and the simulated uplink time, FedScServer registration ids and -1.
// The server has no quorum: it has no roster of the devices it should hear
// from, only the uploads that arrived.
//
// Internal to src/core.

#ifndef FEDSC_CORE_AGGREGATOR_H_
#define FEDSC_CORE_AGGREGATOR_H_

#include <cstdint>
#include <vector>

#include "core/fedsc.h"

namespace fedsc {

// Rejects options neither API can run.
Status ValidateFedScOptions(const FedScOptions& options);

// Phase 3 for one device: each point takes the label of the first accepted
// sample of its local cluster, or FedScResult::kFailedDeviceLabel when none
// of that cluster's samples was accepted. kept[k] is the upload column of
// the k-th accepted sample and labels[k] its label; columns past the local
// upload (a duplicating fault) label nothing. When point_sample is set it
// receives, per point, first_sample + k of that sample (-1 for none).
std::vector<int64_t> ScatterLabels(
    const LocalClusteringOutput& local, const std::vector<int64_t>& kept,
    const int64_t* labels, int64_t first_sample = 0,
    std::vector<int64_t>* point_sample = nullptr);

// The pooled central problem and its solution.
struct CentralSolve {
  Matrix samples;                      // unscreened accepted columns
  std::vector<int64_t> sample_device;  // owning device of each column
  std::vector<int64_t> sample_labels;  // set by Solve
  SparseMatrix affinity;               // set by Solve
};

class CentralAggregator {
 public:
  // ambient_dim < 0: the first accepted upload fixes it.
  CentralAggregator(int64_t num_clusters, FedScOptions options,
                    int64_t ambient_dim);

  const FedScOptions& options() const { return options_; }
  // ValidateFedScOptions, plus num_clusters >= 1; every call below returns
  // it first.
  const Status& options_status() const { return options_status_; }
  // One past the largest device id registered so far.
  int64_t num_devices() const {
    return static_cast<int64_t>(devices_.size());
  }
  // Columns registered by Accept, screened devices included.
  int64_t registered_samples() const { return registered_samples_; }
  // Columns the central solve sees: registered minus screened.
  int64_t unscreened_samples() const;
  int64_t accepted_samples(int64_t device) const {
    return devices_[static_cast<size_t>(device)].accepted.cols();
  }
  bool screened(int64_t device) const {
    return device >= 0 && device < num_devices() &&
           devices_[static_cast<size_t>(device)].screened;
  }

  // Validates one upload and registers its accepted columns as `device`'s.
  // Sets *quarantined to the columns that failed per-column validation. An
  // upload of the wrong dimension, or with no valid column, registers
  // nothing and returns InvalidArgument.
  Status Accept(int64_t device, const Matrix& samples, int64_t* quarantined);

  // Byzantine screen over every registered upload; a no-op with the defense
  // off. Returns the verdicts of the screened devices, whose samples the
  // next Solve leaves out.
  Result<std::vector<DeviceScreenVerdict>> Screen(int64_t sim_ms);

  // Clusters the unscreened columns into num_clusters groups.
  Status Solve(uint64_t kmeans_seed, int64_t q_devices, int64_t sim_ms);

  // After Solve: the labels of `device`'s accepted samples, in upload order
  // (the sentinel for each when it was screened), and Phase 3 for an
  // unscreened device through ScatterLabels.
  std::vector<int64_t> SampleLabels(int64_t device) const;
  std::vector<int64_t> PointLabels(int64_t device,
                                   const LocalClusteringOutput& local,
                                   std::vector<int64_t>* point_sample) const;

  CentralSolve TakeSolve() { return std::move(solve_); }

 private:
  struct Upload {
    Matrix accepted;            // columns that passed validation
    std::vector<int64_t> kept;  // upload column of each accepted column
    bool screened = false;
    int64_t offset = 0;         // first column in the pool
  };

  // The one pooling loop: every unscreened column, in device order.
  void Pool();
  ScPipelineOptions CentralOptions(uint64_t kmeans_seed,
                                   int64_t q_devices) const;

  int64_t num_clusters_;
  FedScOptions options_;
  Status options_status_;
  int64_t ambient_dim_;
  std::vector<Upload> devices_;  // indexed by device id
  int64_t registered_samples_ = 0;
  bool pooled_ = false;
  CentralSolve solve_;
};

}  // namespace fedsc

#endif  // FEDSC_CORE_AGGREGATOR_H_
