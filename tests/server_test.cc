// Tests for the stateful client/server API (core/server.h) and the
// differential-privacy uplink (fed/privacy.h).

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core/server.h"
#include "data/synthetic.h"
#include "fed/faults.h"
#include "fed/network.h"
#include "fed/partition.h"
#include "fed/privacy.h"
#include "linalg/blas.h"
#include "metrics/clustering_metrics.h"

namespace fedsc {
namespace {

struct Federation {
  Dataset data;
  FederatedDataset fed;
};

Federation MakeFederation(int64_t num_subspaces, int64_t per_subspace,
                          int64_t num_devices, int64_t clusters_per_device,
                          uint64_t seed) {
  SyntheticOptions options;
  options.ambient_dim = 24;
  options.subspace_dim = 3;
  options.num_subspaces = num_subspaces;
  options.points_per_subspace = per_subspace;
  options.seed = seed;
  auto data = GenerateUnionOfSubspaces(options);
  EXPECT_TRUE(data.ok());
  PartitionOptions partition;
  partition.num_devices = num_devices;
  partition.clusters_per_device = clusters_per_device;
  partition.seed = seed ^ 0x1234;
  auto fed = PartitionAcrossDevices(*data, partition);
  EXPECT_TRUE(fed.ok());
  return {std::move(data).value(), std::move(fed).value()};
}

TEST(FedScServerTest, MatchesBatchPipelineQuality) {
  Federation f = MakeFederation(5, 60, 12, 2, 301);
  FedScOptions options;

  FedScServer server(5, options);
  std::vector<FedScClient> clients;
  clients.reserve(static_cast<size_t>(f.fed.num_devices()));
  std::vector<int64_t> ids;
  Rng rng(77);
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    clients.emplace_back(f.fed.points[static_cast<size_t>(z)], options,
                         rng.Next());
    auto upload = clients.back().ProduceUpload();
    ASSERT_TRUE(upload.ok()) << upload.status().ToString();
    auto id = server.AddUpload(*upload);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(server.Cluster().ok());

  std::vector<std::vector<int64_t>> device_labels(
      static_cast<size_t>(f.fed.num_devices()));
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    auto assignments = server.AssignmentsFor(ids[static_cast<size_t>(z)]);
    ASSERT_TRUE(assignments.ok());
    auto labels =
        clients[static_cast<size_t>(z)].ApplyAssignments(*assignments);
    ASSERT_TRUE(labels.ok());
    device_labels[static_cast<size_t>(z)] = std::move(labels).value();
  }
  const auto global = f.fed.ToGlobalOrder(device_labels);
  EXPECT_GE(ClusteringAccuracy(f.data.labels, global), 98.0);
}

TEST(FedScServerTest, IncrementalDevicesReclusterCorrectly) {
  Federation f = MakeFederation(4, 60, 10, 2, 303);
  FedScOptions options;
  FedScServer server(4, options);

  // First half of the federation only: not enough subspace coverage is
  // possible, but the server still clusters what it has.
  std::vector<FedScClient> clients;
  Rng rng(88);
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    clients.emplace_back(f.fed.points[static_cast<size_t>(z)], options,
                         rng.Next());
  }
  for (int64_t z = 0; z < 5; ++z) {
    auto upload = clients[static_cast<size_t>(z)].ProduceUpload();
    ASSERT_TRUE(upload.ok());
    ASSERT_TRUE(server.AddUpload(*upload).ok());
  }
  ASSERT_TRUE(server.Cluster().ok());
  const int64_t samples_before = server.total_samples();

  // Late joiners invalidate the clustering; re-cluster covers them too.
  for (int64_t z = 5; z < f.fed.num_devices(); ++z) {
    auto upload = clients[static_cast<size_t>(z)].ProduceUpload();
    ASSERT_TRUE(upload.ok());
    ASSERT_TRUE(server.AddUpload(*upload).ok());
  }
  EXPECT_FALSE(server.AssignmentsFor(7).ok());  // stale until Cluster()
  ASSERT_TRUE(server.Cluster().ok());
  EXPECT_GT(server.total_samples(), samples_before);

  std::vector<std::vector<int64_t>> device_labels(
      static_cast<size_t>(f.fed.num_devices()));
  for (int64_t z = 0; z < f.fed.num_devices(); ++z) {
    auto assignments = server.AssignmentsFor(z);
    ASSERT_TRUE(assignments.ok());
    auto labels =
        clients[static_cast<size_t>(z)].ApplyAssignments(*assignments);
    ASSERT_TRUE(labels.ok());
    device_labels[static_cast<size_t>(z)] = std::move(labels).value();
  }
  const auto global = f.fed.ToGlobalOrder(device_labels);
  EXPECT_GE(ClusteringAccuracy(f.data.labels, global), 95.0);
}

TEST(FedScServerTest, Validation) {
  FedScOptions options;
  FedScServer server(3, options);
  EXPECT_FALSE(server.AddUpload(Matrix(4, 0)).ok());   // empty upload
  EXPECT_FALSE(server.Cluster().ok());                 // no samples yet
  Matrix upload(4, 2);
  upload(0, 0) = 1.0;
  upload(1, 1) = 1.0;
  ASSERT_TRUE(server.AddUpload(upload).ok());
  EXPECT_FALSE(server.AddUpload(Matrix(5, 2)).ok());   // dimension mismatch
  EXPECT_FALSE(server.AssignmentsFor(0).ok());         // not clustered
  EXPECT_FALSE(server.AssignmentsFor(9).ok());         // unknown id
}

TEST(FedScClientTest, AssignmentsValidation) {
  // Correlated points (mutually orthogonal data would make SSC degenerate).
  Rng rng(21);
  const Matrix basis = RandomOrthonormalBasis(6, 2, &rng);
  Matrix coeffs(2, 4);
  for (int64_t j = 0; j < 4; ++j) {
    coeffs(0, j) = rng.Gaussian();
    coeffs(1, j) = rng.Gaussian();
  }
  const Matrix points = MatMul(basis, coeffs);
  FedScClient client(points, FedScOptions{}, 5);
  EXPECT_FALSE(client.ApplyAssignments({0}).ok());  // before ProduceUpload
  ASSERT_TRUE(client.ProduceUpload().ok());
  std::vector<int64_t> wrong_size(
      static_cast<size_t>(client.num_samples() + 1), 0);
  EXPECT_FALSE(client.ApplyAssignments(wrong_size).ok());

  // Out-of-range assignments (e.g. a leaked failed-device sentinel) are
  // rejected instead of silently labeling points -1.
  std::vector<int64_t> negative(static_cast<size_t>(client.num_samples()),
                                0);
  negative.back() = -1;
  auto rejected = client.ApplyAssignments(negative);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  std::vector<int64_t> valid(static_cast<size_t>(client.num_samples()), 0);
  EXPECT_TRUE(client.ApplyAssignments(valid).ok());
}

TEST(FedScServerTest, AddUploadQuarantinesCorruptColumns) {
  FedScOptions options;
  FedScServer server(2, options);
  Matrix upload(4, 3);
  upload(0, 0) = 1.0;                                      // honest
  upload(1, 1) = std::numeric_limits<double>::quiet_NaN();  // corrupt
  upload(2, 2) = 1.0;                                      // honest
  auto id = server.AddUpload(upload);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(server.total_samples(), 2);
  EXPECT_EQ(server.quarantined_samples(), 1);

  // An upload with no valid column at all is rejected outright.
  Matrix hopeless(4, 2);
  hopeless(0, 0) = std::numeric_limits<double>::infinity();
  hopeless(0, 1) = 1e9;  // far outside the norm acceptance bounds
  auto rejected = server.AddUpload(hopeless);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.num_devices(), 1);
  EXPECT_EQ(server.quarantined_samples(), 3);
}

// The server rejects what RunFedSc rejects, including num_clusters = 0
// (whose q rule would divide by zero).
TEST(FedScServerTest, RejectsTheOptionsRunFedScRejects) {
  Matrix upload(4, 2);
  upload(0, 0) = 1.0;
  upload(1, 1) = 1.0;
  FedScOptions nsn;
  nsn.central_method = ScMethod::kNsn;
  FedScOptions high_quorum;
  high_quorum.quorum = 7.0;
  FedScOptions negative_quorum;
  negative_quorum.quorum = -0.5;
  const std::pair<int64_t, FedScOptions> cases[] = {
      {2, nsn}, {2, high_quorum}, {2, negative_quorum}, {0, FedScOptions{}}};
  for (const auto& [num_clusters, options] : cases) {
    FedScServer server(num_clusters, options);
    auto added = server.AddUpload(upload);
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
    const Status clustered = server.Cluster();
    EXPECT_EQ(clustered.code(), StatusCode::kInvalidArgument)
        << clustered.ToString();
  }
}

// FNV-1a over the labels' bytes: pins a label vector in one number.
uint64_t LabelFingerprint(const std::vector<int64_t>& labels) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int64_t label : labels) {
    const auto bits = static_cast<uint64_t>(label);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// A round with channel noise, injected dropouts and colluding Byzantine
// devices, and the defense on (6 subspaces, 24 devices, 2 clusters each).
FedScOptions FaultyDefendedOptions() {
  FedScOptions options;
  options.channel.noise_delta = 0.02;
  options.faults.dropout_rate = 0.1;
  options.faults.byzantine_rate = 0.2;
  options.faults.byzantine_mode = ByzantineMode::kCollude;
  options.defense.enabled = true;
  options.quorum = 0.5;
  return options;
}

// The client/server protocol driven by hand the way RunFedSc simulates it:
// RunFedSc's device seeds, one Channel and FaultPlan in device order, then
// AddUpload, Cluster, AssignmentsFor and ApplyAssignments. Points of devices
// that delivered nothing, or that the defense screened, keep the sentinel.
struct HandDrivenRound {
  std::vector<int64_t> global_labels;
  std::vector<int64_t> sample_labels;  // FedScServer::sample_labels()
  // The server's central solve re-derived from its unscreened uploads with
  // its own k-means seed (seed ^ 0x5e47e4) and TSC device count (every
  // registered upload); the sentinel on screened samples.
  std::vector<int64_t> reference_labels;
  int64_t screened_devices = 0;
};

std::vector<int64_t> ReferenceServerLabels(
    const std::vector<Matrix>& registered, const FedScServer& server,
    int64_t num_clusters, const FedScOptions& o) {
  std::vector<int64_t> unscreened;
  for (size_t id = 0; id < registered.size(); ++id) {
    if (!server.screened(static_cast<int64_t>(id))) {
      unscreened.push_back(static_cast<int64_t>(id));
    }
  }
  int64_t total = 0;
  for (int64_t id : unscreened) total += registered[static_cast<size_t>(id)].cols();
  Matrix pooled(registered.front().rows(), total);
  std::vector<int64_t> sample_device;
  for (int64_t id : unscreened) {
    const Matrix& m = registered[static_cast<size_t>(id)];
    for (int64_t c = 0; c < m.cols(); ++c) {
      pooled.SetCol(static_cast<int64_t>(sample_device.size()), m.ColData(c));
      sample_device.push_back(id);
    }
  }
  ScPipelineOptions central;
  central.method = o.central_method;
  central.central = o.central;
  central.sketch = o.central_sketch;
  central.sketch.seed = MixSeeds(o.seed, 0x5ce7c4ULL);
  central.ssc = o.central_ssc;
  central.tsc.q = std::min<int64_t>(
      std::max<int64_t>(3, (static_cast<int64_t>(registered.size()) +
                            num_clusters - 1) / num_clusters),
      total - 1);
  central.spectral = o.central_spectral;
  central.spectral.kmeans.seed = o.seed ^ 0x5e47e4ULL;
  KMeansRobustOptions& robust = central.spectral.kmeans.robust;
  robust.enabled = o.defense.enabled;
  robust.trim_fraction = o.defense.trim_fraction;
  robust.center = o.defense.robust_center;
  robust.max_group_fraction = o.defense.max_device_fraction;
  robust.point_group = sample_device;
  central.num_threads = o.num_threads;
  auto solved = RunSubspaceClustering(pooled, num_clusters, central);
  EXPECT_TRUE(solved.ok()) << solved.status().ToString();
  if (!solved.ok()) return {};
  std::vector<int64_t> labels;
  size_t next = 0;
  for (size_t id = 0; id < registered.size(); ++id) {
    for (int64_t c = 0; c < registered[id].cols(); ++c) {
      labels.push_back(server.screened(static_cast<int64_t>(id))
                           ? FedScResult::kFailedDeviceLabel
                           : solved->labels[next++]);
    }
  }
  return labels;
}

HandDrivenRound DriveClientServer(const FederatedDataset& fed,
                                  int64_t num_clusters,
                                  const FedScOptions& options) {
  const int64_t num_devices = fed.num_devices();
  Rng rng(options.seed);
  std::vector<FedScClient> clients;
  clients.reserve(static_cast<size_t>(num_devices));
  for (int64_t z = 0; z < num_devices; ++z) {
    clients.emplace_back(fed.points[static_cast<size_t>(z)], options,
                         rng.Next());
  }
  auto plan = FaultPlan::Create(num_devices, options.faults);
  EXPECT_TRUE(plan.ok());
  Channel channel(options.channel);
  FedScServer server(num_clusters, options);
  std::vector<int64_t> ids(static_cast<size_t>(num_devices), -1);
  std::vector<Matrix> registered;
  for (int64_t z = 0; z < num_devices; ++z) {
    auto upload = clients[static_cast<size_t>(z)].ProduceUpload();
    EXPECT_TRUE(upload.ok()) << upload.status().ToString();
    SimClock clock;
    const UplinkOutcome outcome =
        channel.UplinkWithRetry(z, *upload, *plan, options.retry, &clock);
    if (!outcome.delivered) continue;
    auto id = server.AddUpload(outcome.received);
    if (!id.ok()) continue;
    ids[static_cast<size_t>(z)] = *id;
    registered.push_back(outcome.received);
  }
  // No column was quarantined, so the registered uploads are the received.
  EXPECT_EQ(server.quarantined_samples(), 0);
  const Status clustered = server.Cluster();
  EXPECT_TRUE(clustered.ok()) << clustered.ToString();

  HandDrivenRound round;
  std::vector<std::vector<int64_t>> device_labels(
      static_cast<size_t>(num_devices));
  for (int64_t z = 0; z < num_devices; ++z) {
    auto& labels = device_labels[static_cast<size_t>(z)];
    labels.assign(
        static_cast<size_t>(fed.points[static_cast<size_t>(z)].cols()),
        FedScResult::kFailedDeviceLabel);
    const int64_t id = ids[static_cast<size_t>(z)];
    if (id < 0) continue;
    if (server.screened(id)) {
      ++round.screened_devices;
      EXPECT_FALSE(server.AssignmentsFor(id).ok());
      continue;
    }
    auto assignments = server.AssignmentsFor(id);
    EXPECT_TRUE(assignments.ok()) << assignments.status().ToString();
    auto applied =
        clients[static_cast<size_t>(z)].ApplyAssignments(*assignments);
    EXPECT_TRUE(applied.ok()) << applied.status().ToString();
    if (applied.ok()) labels = std::move(applied).value();
  }
  round.global_labels = fed.ToGlobalOrder(device_labels);
  round.sample_labels = server.sample_labels();
  round.reference_labels =
      ReferenceServerLabels(registered, server, num_clusters, options);
  return round;
}

// The fingerprints below were taken before RunFedSc and FedScServer were
// built on one central aggregator; they pin that the refactor moved no
// label of either API. They hold in the default release build (-O3) and in
// the -O1 thread-sanitizer build of scripts/ci_tsan.sh. Other optimisation
// levels round the local and central solves differently, which changes
// these rounds (an -O2 build clusters this federation differently).
TEST(FedScServerTest, RunFedScLabelsArePinned) {
  const Federation f = MakeFederation(6, 64, 24, 2, 311);
  FedScOptions options = FaultyDefendedOptions();
  // Corrupt payloads too; under this fault seed one delivering device has
  // a column quarantined and is still labelled through the rest.
  options.faults.corrupt_rate = 0.25;
  options.faults.seed = 1;
  // TSC pins the q rule's device count (every scheduled device) as well.
  struct Pin {
    ScMethod method;
    uint64_t global_labels;
    uint64_t sample_labels;
  };
  for (const Pin& pin : {Pin{ScMethod::kSsc, 12430524524154752862ULL,
                             5883334972867614887ULL},
                         Pin{ScMethod::kTsc, 16285220352110455036ULL,
                             15276249751361160611ULL}}) {
    options.central_method = pin.method;
    auto result = RunFedSc(f.fed, 6, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->screened_devices, 0);
    EXPECT_TRUE(std::any_of(result->device_reports.begin(),
                            result->device_reports.end(),
                            [](const DeviceReport& report) {
                              return report.outcome == DeviceOutcome::kOk &&
                                     report.quarantined_samples > 0;
                            }));
    EXPECT_EQ(LabelFingerprint(result->global_labels), pin.global_labels);
    EXPECT_EQ(LabelFingerprint(result->sample_labels), pin.sample_labels);
  }
}

// Renames labels in order of first appearance, keeping the sentinel, so a
// fingerprint of the result pins the partition rather than the label ids.
// The server's ids are not stable across build flags: the -O1 sanitizer
// build rounds differently from the -O3 release build, and the central
// k-means then numbers the same clusters in another order.
std::vector<int64_t> FirstAppearanceOrder(std::vector<int64_t> labels) {
  std::map<int64_t, int64_t> renamed;
  for (int64_t& label : labels) {
    if (label == FedScResult::kFailedDeviceLabel) continue;
    const auto next = static_cast<int64_t>(renamed.size());
    label = renamed.emplace(label, next).first->second;
  }
  return labels;
}

// The server's labels equal its central solve re-derived by hand (the
// k-means seed and the TSC device count included) and are the same at 1 and
// 2 threads. The SSC partition matches the one pinned before the refactor;
// the TSC partition of this pool moves with the build's floating-point
// rounding, so TSC is held to the reference solve only.
TEST(FedScServerTest, DefendedServerLabelsArePinnedAcrossThreadCounts) {
  const Federation f = MakeFederation(6, 64, 24, 2, 313);
  for (ScMethod method : {ScMethod::kSsc, ScMethod::kTsc}) {
    std::vector<int64_t> one_thread;
    for (int num_threads : {1, 2}) {
      FedScOptions options = FaultyDefendedOptions();
      options.central_method = method;
      options.num_threads = num_threads;
      const HandDrivenRound round = DriveClientServer(f.fed, 6, options);
      EXPECT_GT(round.screened_devices, 0);
      EXPECT_EQ(round.sample_labels, round.reference_labels)
          << ScMethodName(method) << " num_threads " << num_threads;
      if (num_threads == 1) one_thread = round.sample_labels;
      EXPECT_EQ(round.sample_labels, one_thread) << ScMethodName(method);
      if (method == ScMethod::kSsc) {
        EXPECT_EQ(LabelFingerprint(FirstAppearanceOrder(round.sample_labels)),
                  2631289819050689319ULL)
            << "num_threads " << num_threads;
      }
    }
  }
}

// Both APIs cluster the same pool, so they agree on the partition of the
// points; their labels may differ by a permutation because each API seeds
// the central k-means its own way.
TEST(FedScServerTest, ClientServerRoundMatchesRunFedSc) {
  const Federation f = MakeFederation(6, 64, 24, 2, 317);
  const FedScOptions options = FaultyDefendedOptions();
  auto batch = RunFedSc(f.fed, 6, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const HandDrivenRound round = DriveClientServer(f.fed, 6, options);
  EXPECT_GT(batch->screened_devices, 0);
  EXPECT_EQ(round.screened_devices, batch->screened_devices);

  const std::vector<int64_t>& a = batch->global_labels;
  const std::vector<int64_t>& b = round.global_labels;
  ASSERT_EQ(a.size(), b.size());
  std::map<int64_t, int64_t> a_to_b;
  std::map<int64_t, int64_t> b_to_a;
  int64_t labelled = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == FedScResult::kFailedDeviceLabel ||
        b[i] == FedScResult::kFailedDeviceLabel) {
      EXPECT_EQ(a[i], b[i]) << "point " << i;
      continue;
    }
    ++labelled;
    EXPECT_EQ(a_to_b.emplace(a[i], b[i]).first->second, b[i])
        << "point " << i;
    EXPECT_EQ(b_to_a.emplace(b[i], a[i]).first->second, a[i])
        << "point " << i;
  }
  EXPECT_GT(labelled, 0);
  EXPECT_EQ(a_to_b.size(), 6U);
}

TEST(PrivacyTest, SigmaFormulaAndValidation) {
  DpOptions options;
  options.epsilon = 1.0;
  options.delta = 1e-5;
  options.sensitivity = 2.0;
  auto sigma = GaussianMechanismSigma(options);
  ASSERT_TRUE(sigma.ok());
  EXPECT_NEAR(*sigma, 2.0 * std::sqrt(2.0 * std::log(1.25e5)), 1e-9);

  options.epsilon = 0.0;
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
  options.epsilon = 1.5;  // outside the theorem's regime
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
  options.epsilon = 0.5;
  options.delta = 0.0;
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
  options.delta = 1e-5;
  options.sensitivity = -1.0;
  EXPECT_FALSE(GaussianMechanismSigma(options).ok());
}

TEST(PrivacyTest, ClipsAndPerturbsWithRequestedScale) {
  Rng rng(9);
  Matrix samples(2000, 2);
  for (int64_t i = 0; i < 2000; ++i) samples(i, 0) = 0.1;  // norm ~ 4.47 > 1
  DpOptions options;
  options.epsilon = 1.0;
  options.delta = 1e-3;
  options.sensitivity = 2.0;
  auto released = PrivatizeSamples(samples, options, &rng);
  ASSERT_TRUE(released.ok());
  const double sigma = *GaussianMechanismSigma(options);
  // Column 1 was all zeros: its released values are pure noise with
  // variance sigma^2.
  double sum2 = 0.0;
  for (int64_t i = 0; i < 2000; ++i) {
    sum2 += (*released)(i, 1) * (*released)(i, 1);
  }
  EXPECT_NEAR(sum2 / 2000.0, sigma * sigma, 0.1 * sigma * sigma);
}

TEST(PrivacyTest, FedScRunsEndToEndWithDp) {
  Federation f = MakeFederation(3, 40, 8, 2, 307);
  FedScOptions options;
  options.use_dp = true;
  options.dp.epsilon = 1.0;
  options.dp.delta = 1e-5;
  auto result = RunFedSc(f.fed, 3, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // With this much noise on 24-dim vectors, utility collapses — the honest
  // privacy-utility tradeoff. The pipeline must still be well-formed.
  EXPECT_EQ(result->global_labels.size(), f.data.labels.size());
  for (int64_t l : result->global_labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 3);
  }
  // And DP must be deterministic under the same seed.
  auto repeat = RunFedSc(f.fed, 3, options);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(result->global_labels, repeat->global_labels);
}

}  // namespace
}  // namespace fedsc
