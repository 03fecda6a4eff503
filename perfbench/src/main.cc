// fedsc_perfbench: times federated rounds of one workload and checks every
// round's output; with --trace 1 it also replays rounds layer by layer.
//
//   fedsc_perfbench --workload local_admm|many_devices|tall_defended
//                   --seed N --seconds S --trace 0|1 [--tiny]
//   fedsc_perfbench --check-selftest
//
// Prints one JSON object on stdout. perfbench/run.py builds this binary,
// adds the host context and prints the benchmark's result line.
//
// A run sets up kSetups times (inputs, partition, clients and options, and
// one untimed warm-up round each) and reports the median as setup_s. It then
// times rounds until S seconds have passed (at least kMinRounds) and checks
// each one. Round wall and CPU times are the fastest round's: on a shared
// host a round is only ever slowed, and round times jump between a fast and
// a slow level within seconds, so a run's median flips between the two
// levels while its fastest round stays near the round's own cost. The
// other metrics are medians. Library logging is silenced while a round is
// timed; the warm-up round's log lines are only counted.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/manifest.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr int kMinRounds = 3;
constexpr int kMinReplays = 2;
// core.phase_coverage must lie in [1 - kCoverageSlack, 1 + kCoverageSlack]:
// the replayed phases account for the replayed round's wall time to within
// 10%. The tiny shapes skip this check: their rounds last milliseconds.
constexpr double kCoverageSlack = 0.10;

std::atomic<int64_t> g_log_lines{0};

void CountingSink(fedsc::LogLevel, const std::string&) { ++g_log_lines; }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonList(const std::vector<double>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    list += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return list + "]";
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool check_selftest = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> v;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--check-selftest") {
      args.check_selftest = true;
    } else if (flag == "--workload" && (v = value())) {
      args.workload = *v;
    } else if (flag == "--seed" && (v = value())) {
      args.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (flag == "--seconds" && (v = value())) {
      args.seconds = std::strtod(v->c_str(), nullptr);
    } else if (flag == "--trace" && (v = value())) {
      args.trace = *v == "1";
    } else {
      std::fprintf(stderr, "fedsc_perfbench: bad argument '%s'\n",
                   flag.c_str());
      return std::nullopt;
    }
  }
  if (!args.check_selftest && args.workload.empty()) {
    std::fprintf(stderr, "fedsc_perfbench: --workload is required\n");
    return std::nullopt;
  }
  return args;
}

// Everything a run builds before its first timed round.
struct Setup {
  Workload workload;
  Inputs inputs;
  RoundCheck reference;  // the warm-up round's check
  int64_t warmup_log_lines = 0;
};

fedsc::Result<Setup> SetUp(const Args& args) {
  FEDSC_ASSIGN_OR_RETURN(Workload workload,
                         MakeWorkload(args.workload, args.seed, args.tiny));
  FEDSC_ASSIGN_OR_RETURN(Inputs inputs, MakeInputs(workload));
  RoundState state = PrepareRound(workload, inputs);
  const int64_t lines_before = g_log_lines.load();
  const RoundOutput warmup = RunRound(workload, inputs, &state);
  Setup setup{std::move(workload), std::move(inputs), {}, 0};
  setup.warmup_log_lines = g_log_lines.load() - lines_before;
  setup.reference = CheckRound(setup.workload, setup.inputs, warmup);
  return setup;
}

struct TimedRound {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  bool ok = false;
  std::string failure;
  RoundCheck check;
  int64_t uplink_bytes = 0;
};

TimedRound RunTimedRound(const Setup& setup) {
  RoundState state = PrepareRound(setup.workload, setup.inputs);
  const fedsc::LogLevel level = fedsc::GetLogLevel();
  fedsc::SetLogLevel(fedsc::LogLevel::kError);
  const double cpu0 = ProcessCpuSeconds();
  fedsc::Stopwatch wall;
  const RoundOutput output = RunRound(setup.workload, setup.inputs, &state);
  TimedRound round;
  round.wall_ms = Ms(wall);
  round.cpu_ms = 1e3 * (ProcessCpuSeconds() - cpu0);
  fedsc::SetLogLevel(level);
  round.uplink_bytes = output.uplink_bytes;
  round.check = CheckRound(setup.workload, setup.inputs, output);
  round.ok = round.check.ok;
  round.failure = round.check.reason;
  if (round.ok && round.check.fingerprint != setup.reference.fingerprint) {
    round.ok = false;
    round.failure = "labels differ from the warm-up round's";
  }
  return round;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Args& args, const Setup& setup, bool correct,
                 int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::string>& failures,
                 const std::map<std::string, std::string>& notes) {
  const fedsc::RunManifest manifest = fedsc::CollectRunManifest();
  std::ostringstream os;
  os << "{\"workload\": " << JsonString(args.workload)
     << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << JsonString(metrics[i].name) << ": {\"value\": "
       << JsonNumber(metrics[i].value)
       << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  os << "}, \"failures\": [";
  for (size_t i = 0; i < failures.size() && i < 10; ++i) {
    os << (i ? ", " : "") << JsonString(failures[i]);
  }
  os << "], \"context\": {\"build_type\": " << JsonString(manifest.build_type)
     << ", \"gemm_isa\": " << JsonString(manifest.gemm_isa)
     << ", \"isa_pin_source\": " << JsonString(manifest.isa_pin_source)
     << ", \"cpu_model\": " << JsonString(manifest.cpu_model)
     << ", \"hardware_threads\": " << manifest.hardware_threads
     << ", \"compiler\": " << JsonString(manifest.compiler)
     << ", \"num_threads\": " << setup.workload.options.num_threads
     << ", \"devices\": " << setup.inputs.data.num_devices()
     << ", \"points\": " << setup.inputs.data.total_points
     << ", \"warmup_log_lines\": " << setup.warmup_log_lines
     << ", \"timed_rounds_logging\": \"silenced\"";
  for (const auto& [key, value] : notes) {
    os << ", " << JsonString(key) << ": " << value;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

int RunWorkload(const Args& args) {
  fedsc::SetLogSink(&CountingSink);
  fedsc::EnableMetrics(false);

  // Set up K times and keep the last; every set-up builds identical inputs.
  std::vector<double> setup_seconds;
  std::optional<Setup> setup;
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();
    fedsc::Stopwatch watch;
    fedsc::Result<Setup> made = SetUp(args);
    setup_seconds.push_back(watch.ElapsedSeconds());
    if (!made.ok()) {
      std::fprintf(stderr, "fedsc_perfbench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup.emplace(std::move(made).value());
  }

  std::vector<std::string> failures;
  if (!setup->reference.ok) {
    failures.push_back("warm-up round: " + setup->reference.reason);
  }
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::vector<double> acc;
  std::vector<double> covered;
  std::vector<double> bytes;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto record = [&](const TimedRound& round) {
    ++attempted;
    wall_ms.push_back(round.wall_ms);
    cpu_ms.push_back(round.cpu_ms);
    acc.push_back(round.check.acc_pct);
    covered.push_back(round.check.covered_frac);
    bytes.push_back(static_cast<double>(round.uplink_bytes));
    if (!round.ok) {
      ++failed;
      failures.push_back("round " + std::to_string(attempted) + ": " +
                         round.failure);
    }
  };

  std::vector<ReplayResult> replays;
  fedsc::Stopwatch run;
  while (run.ElapsedSeconds() < args.seconds ||
         attempted < kMinRounds ||
         (args.trace && static_cast<int>(replays.size()) < kMinReplays)) {
    record(RunTimedRound(*setup));
    if (args.trace) {
      const fedsc::LogLevel level = fedsc::GetLogLevel();
      fedsc::SetLogLevel(fedsc::LogLevel::kError);
      replays.push_back(ReplayRound(setup->workload, setup->inputs));
      fedsc::SetLogLevel(level);
    }
  }

  const double round_wall = *std::min_element(wall_ms.begin(), wall_ms.end());
  std::vector<Metric> metrics;
  std::map<std::string, std::string> notes;
  notes["timed_rounds"] = std::to_string(attempted);
  notes["round_wall_median_ms"] = JsonNumber(Median(wall_ms));
  notes["round_wall_ms_each"] = JsonList(wall_ms);
  notes["setup_s_each"] = JsonList(setup_seconds);
  notes["undersampled_subspaces"] =
      std::to_string(setup->reference.undersampled);
  notes["acc_floor_pct"] = JsonNumber(setup->reference.acc_floor_pct);

  if (!args.trace) {
    metrics = {
        {"round_wall_ms", round_wall, "ms"},
        {"round_cpu_ms", *std::min_element(cpu_ms.begin(), cpu_ms.end()),
         "ms"},
        {"setup_s", Median(setup_seconds), "s"},
        {"uplink_bytes", Median(bytes), "B"},
        {"acc_pct", Median(acc), "%"},
        {"covered_frac", Median(covered), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"round_ok_frac",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    // Replays must reproduce the round and repeat their registry counts.
    for (size_t i = 0; i < replays.size(); ++i) {
      const ReplayResult& replay = replays[i];
      const std::string tag = "replay " + std::to_string(i + 1) + ": ";
      if (!replay.error.empty()) failures.push_back(tag + replay.error);
      if (LabelFingerprint(replay.labels) != setup->reference.fingerprint) {
        failures.push_back(tag + "labels differ from the round's");
      }
      if (replay.uplink_bytes != static_cast<int64_t>(bytes.front())) {
        failures.push_back(tag + "uplink bytes differ from the round's");
      }
      for (const auto& [name, value] : replays.front().counts) {
        const auto it = replay.counts.find(name);
        if (it == replay.counts.end() || it->second != value) {
          failures.push_back(tag + "registry count " + name +
                             " did not repeat");
        }
      }
    }
    // Phase coverage compares each replayed round's phase walls with that
    // same round's wall: single rounds on a shared host swing by 15% and
    // more, so a ratio across two rounds would mostly measure the host. The
    // overhead compares each replay with the timed round just before it.
    std::map<std::string, std::vector<double>> series;
    std::vector<double> coverage_ratios;
    std::vector<double> overhead_ratios;
    for (size_t i = 0; i < replays.size(); ++i) {
      for (const auto& [name, metric] : replays[i].layer) {
        series[name].push_back(metric.value);
      }
      coverage_ratios.push_back(replays[i].phase_sum_ms / replays[i].round_ms);
      overhead_ratios.push_back(replays[i].round_ms / wall_ms[i]);
    }
    const double coverage = Median(coverage_ratios);
    if (!args.tiny && std::fabs(coverage - 1.0) > kCoverageSlack) {
      failures.push_back("core.phase_coverage " + JsonNumber(coverage) +
                         " lies outside [0.9, 1.1]");
    }
    const bool sketched = Median(series["sc.sketched_solves"]) > 0.0;
    if (sketched != (setup->workload.name == "many_devices")) {
      failures.push_back(
          "sc.sketched_solves must be non-zero on many_devices only");
    }
    for (const auto& [name, metric] : replays.front().layer) {
      // Times are medians over the replays; counts repeat exactly.
      const bool time = metric.unit == "ms";
      metrics.push_back(
          {name, time ? Median(series[name]) : metric.value, metric.unit});
    }
    metrics.push_back({"core.phase_coverage", coverage, "ratio"});
    metrics.push_back(
        {"trace.overhead_pct", 100.0 * (Median(overhead_ratios) - 1.0), "%"});
    notes["replays"] = std::to_string(replays.size());
    notes["untraced_round_wall_ms"] = JsonNumber(round_wall);
  }
  const bool correct = failures.empty();
  PrintResult(args, *setup, correct, attempted, failed, metrics, failures,
              notes);
  return 0;
}

// The output check must reject corrupted label vectors: a sentinel on a
// reporting device, a missing label, an out-of-range label, and a scrambled
// labelling whose accuracy falls below the floor. A changed label must
// change the fingerprint.
int CheckSelfTest() {
  fedsc::SetLogSink(&CountingSink);
  Args args;
  args.workload = "local_admm";
  args.tiny = true;
  fedsc::Result<Setup> setup = SetUp(args);
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 setup.status().ToString().c_str());
    return 1;
  }
  const Workload& w = setup->workload;
  const Inputs& in = setup->inputs;
  RoundState state = PrepareRound(w, in);
  const RoundOutput clean = RunRound(w, in, &state);
  std::vector<std::pair<std::string, bool>> cases;
  cases.push_back({"clean round passes", CheckRound(w, in, clean).ok});

  RoundOutput sentinel = clean;
  sentinel.labels[0] = fedsc::FedScResult::kFailedDeviceLabel;
  cases.push_back({"sentinel on a reporting device fails",
                   !CheckRound(w, in, sentinel).ok});

  RoundOutput truncated = clean;
  truncated.labels.pop_back();
  cases.push_back({"missing label fails", !CheckRound(w, in, truncated).ok});

  RoundOutput out_of_range = clean;
  out_of_range.labels[1] = in.data.num_clusters;
  cases.push_back({"out-of-range label fails",
                   !CheckRound(w, in, out_of_range).ok});

  const RoundCheck clean_check = CheckRound(w, in, clean);
  cases.push_back({"no subspace of the self-test input is under-sampled",
                   clean_check.undersampled == 0});

  // Failing every device that holds subspace 0 leaves it no samples, so
  // the round is held to a lower floor.
  RoundOutput lost_subspace = clean;
  for (int64_t z = 0; z < in.data.num_devices(); ++z) {
    const auto& index = in.data.global_index[static_cast<size_t>(z)];
    const bool holds = std::any_of(index.begin(), index.end(), [&](int64_t g) {
      return in.truth[static_cast<size_t>(g)] == 0;
    });
    if (!holds) continue;
    lost_subspace.device_failed[static_cast<size_t>(z)] = 1;
    for (int64_t g : index) {
      lost_subspace.labels[static_cast<size_t>(g)] =
          fedsc::FedScResult::kFailedDeviceLabel;
    }
  }
  const RoundCheck lost_check = CheckRound(w, in, lost_subspace);
  cases.push_back({"a round that loses a subspace passes at a lower floor",
                   lost_check.ok && lost_check.undersampled >= 1 &&
                       lost_check.acc_floor_pct < w.acc_floor_pct});

  RoundOutput scrambled = clean;
  for (size_t i = 0; i < scrambled.labels.size(); ++i) {
    scrambled.labels[i] = static_cast<int64_t>(i) % in.data.num_clusters;
  }
  cases.push_back({"scrambled labels fail the accuracy floor",
                   !CheckRound(w, in, scrambled).ok});

  RoundOutput failed_device = clean;
  failed_device.device_failed[0] = 1;
  cases.push_back({"real labels on a failed device fail",
                   !CheckRound(w, in, failed_device).ok});

  RoundOutput relabelled = clean;
  relabelled.labels[2] = (relabelled.labels[2] + 1) % in.data.num_clusters;
  cases.push_back({"one changed label changes the fingerprint",
                   LabelFingerprint(relabelled.labels) !=
                       LabelFingerprint(clean.labels)});

  bool all = true;
  std::ostringstream os;
  os << "{\"check_selftest\": {";
  for (size_t i = 0; i < cases.size(); ++i) {
    os << (i ? ", " : "") << JsonString(cases[i].first) << ": "
       << (cases[i].second ? "true" : "false");
    all = all && cases[i].second;
  }
  os << "}, \"passed\": " << (all ? "true" : "false") << "}";
  std::printf("%s\n", os.str().c_str());
  return all ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args =
      perfbench::ParseArgs(argc, argv);
  if (!args) return 2;
  const fedsc::RunManifest manifest = fedsc::CollectRunManifest();
  if (manifest.build_type != "Release") {
    std::fprintf(stderr,
                 "fedsc_perfbench: refusing to time a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 manifest.build_type.c_str());
    return 3;
  }
  if (args->check_selftest) return perfbench::CheckSelfTest();
  return perfbench::RunWorkload(*args);
}
