// nova_perfbench: runs one benchmark workload and prints its result line.
//
//   nova_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--chrome-trace PREFIX]
//
// The last line of standard output is the JSON result; the line before it
// is the simulated-statistics digest. perfbench/run.py builds and runs this
// binary; README.md documents the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: nova_perfbench --workload "
               "compile_ept|compile_shadow|disk_4k|migrate --seed N "
               "--seconds S --trace 0|1 [--chrome-trace PREFIX]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  nova::perfbench::Options opts;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opts.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opts.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && opts.seconds > 0 && opts.seconds <= 3600;
    } else if (std::strcmp(flag, "--trace") == 0) {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      opts.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--chrome-trace") == 0) {
      opts.chrome_trace = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      !nova::perfbench::ParseWorkload(workload, &opts.workload)) {
    return Usage();
  }

  const nova::perfbench::Result r = nova::perfbench::RunBenchmark(opts);
  if (!r.error.empty()) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(),
                 r.error.c_str());
  }
  std::printf("sim_digest %s seed=%llu %016llx\n", workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(r.digest));
  nova::perfbench::PrintResult(stdout, r.correct, r.attempted, r.failed,
                               r.correct ? r.metrics
                                         : nova::perfbench::Metrics{});
  return 0;
}
