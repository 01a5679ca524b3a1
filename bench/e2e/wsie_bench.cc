// End-to-end benchmark program: runs one seeded workload through the
// system's public entry points and prints every metric by name and unit.
//
//   wsie_bench --workload=NAME --seed=N [--seconds=S] [--scale=F]
//              [--trace=PATH] [--work-dir=DIR]
//
// Workloads: web_ingest, abstract_ingest, query_mix (see README.md). The last stdout line is one JSON object with every metric;
// bench/e2e/run.py turns it into the benchmark's result line. Exits 1 when
// an output check or an operation fails, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

const char* ValueOf(const char* arg, const char* flag) {
  const size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=') return arg + len + 1;
  return nullptr;
}

int Usage(const char* program, const char* arg) {
  std::fprintf(stderr,
               "unknown argument '%s'\nusage: %s --workload=NAME --seed=N "
               "[--seconds=S] [--scale=F] [--trace=PATH] [--work-dir=DIR]\n",
               arg, program);
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  wsie::e2e::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = ValueOf(arg, "--workload")) {
      options.workload = v;
    } else if (const char* v = ValueOf(arg, "--seed")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = ValueOf(arg, "--seconds")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = ValueOf(arg, "--scale")) {
      options.scale = std::strtod(v, nullptr);
    } else if (const char* v = ValueOf(arg, "--trace")) {
      options.trace_path = v;
    } else if (const char* v = ValueOf(arg, "--work-dir")) {
      options.work_dir = v;
    } else {
      return Usage(argv[0], arg);
    }
  }
  if (options.workload.empty() || options.seconds <= 0 || options.scale <= 0) {
    return Usage(argv[0], "(missing --workload, or a non-positive size)");
  }

  const wsie::e2e::RunResult result = wsie::e2e::RunWorkload(options);
  for (const std::string& note : result.notes) std::printf("note %s\n", note.c_str());
  for (const std::string& check : result.failed_checks) {
    std::printf("check FAILED: %s\n", check.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("metric %-32s %16.6f %-8s n=%zu\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.n);
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
              "\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%016llx\","
              "\"failed_checks\":[",
              JsonEscape(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed),
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.digest));
  for (size_t i = 0; i < result.failed_checks.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",",
                JsonEscape(result.failed_checks[i]).c_str());
  }
  std::printf("],\"metrics\":{");
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%zu}",
                first ? "" : ",", name.c_str(), metric.value, metric.unit.c_str(),
                metric.n);
    first = false;
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
