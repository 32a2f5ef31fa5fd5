// perfbench: runs one named workload in this process and prints its
// metrics (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --tmpdir DIR [--trace-out FILE] [--git-sha SHA] [--smoke]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "measure.h"
#include "report.h"
#include "sketch/kernels/simd_dispatch.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

size_t SlicesFor(const RunConfig& config, double share,
                 double nominal_slice_seconds, size_t minimum) {
  const double slices =
      share * static_cast<double>(config.seconds) / nominal_slice_seconds;
  return std::max(minimum, static_cast<size_t>(slices + 0.5));
}

void SetTraceOverhead(const OverheadProbe& probe, Report& report) {
  report.Set("trace.span_cost_ns", Tracer::MeasureSpanCostNs());
  report.Set("trace.overhead_fraction", probe.Fraction());
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_cms|learn_aol|learn_synthetic_bcd --seed N --seconds S "
               "--trace 0|1 --tmpdir DIR [--trace-out FILE] [--git-sha SHA] "
               "[--smoke]\n",
               problem);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  std::string git_sha = "unknown";
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--tmpdir") {
      config.tmpdir = argv[++i];
    } else if (arg == "--trace-out") {
      trace_out = argv[++i];
    } else if (arg == "--git-sha") {
      git_sha = argv[++i];
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || config.seconds < 1 || (trace != 0 && trace != 1) ||
      config.tmpdir.empty()) {
    return Usage("--seed, --seconds >= 1, --trace 0|1 and --tmpdir are "
                 "required");
  }
  void (*run)(const RunConfig&, Tracer&, Report&) = nullptr;
  if (config.workload == "serve_cms") run = RunServeCms;
  if (config.workload == "learn_aol") run = RunLearnAol;
  if (config.workload == "learn_synthetic_bcd") run = RunLearnSyntheticBcd;
  if (run == nullptr) return Usage("unknown workload");

  Report report;
  report.Header("workload", config.workload);
  report.Header("seed", std::to_string(config.seed));
  report.Header("seconds", std::to_string(config.seconds) +
                               (config.smoke ? " (smoke inputs)" : ""));
  report.Header("trace", std::to_string(trace));
  report.Header("cpu", CpuModel());
  report.Header("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Header("kernel tier", std::string(opthash::sketch::kernels::KernelTierName(
                                   opthash::sketch::kernels::ActiveKernelTier())));
  report.Header("compiler", __VERSION__);
  report.Header("build type", PERFBENCH_BUILD_TYPE);
  report.Header("git sha", git_sha);

  Tracer tracer(trace == 1);
  run(config, tracer, report);
  if (tracer.enabled() && !trace_out.empty()) {
    if (!tracer.WriteJsonLines(trace_out)) {
      report.Fail("cannot write " + trace_out);
    } else {
      report.Note("spans written to " + trace_out + " (" +
                  std::to_string(tracer.size()) + " spans)");
    }
  }
  return report.Finish();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
