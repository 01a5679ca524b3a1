#ifndef WSIE_BENCH_E2E_WORKLOADS_H_
#define WSIE_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wsie::e2e {

/// The workloads, in the order run.py alternates them.
const std::vector<std::string>& WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase. Batch workloads run as many cycles of
  /// fixed work as fit in it at a nominal cycle length.
  double seconds = 12.0;
  /// Multiplies every input size (documents, hosts, pages).
  double scale = 1.0;
  /// Executor degree of parallelism. Fixed, never read from the host.
  size_t dop = 4;
  /// Set-up runs this many times; setup_s is the median.
  size_t setup_reps = 3;
  /// Scratch directory for stores; created and removed by the run.
  std::string work_dir = "wsie_bench_work";
  /// When set, spans are recorded and written there as a Chrome trace.
  std::string trace_path;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t n = 1;  ///< samples behind the value
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// FNV-1a over the store's answers (ingest) or the replayed requests
  /// (query_mix); equal for equal seeds.
  uint64_t digest = 0;
  std::vector<std::string> failed_checks;
  std::vector<std::string> notes;
  std::map<std::string, Metric> metrics;
};

/// Runs one workload in this process. Never throws; failures show in
/// `correct`, `failed` and `failed_checks`.
RunResult RunWorkload(const RunOptions& options);

}  // namespace wsie::e2e

#endif  // WSIE_BENCH_E2E_WORKLOADS_H_
