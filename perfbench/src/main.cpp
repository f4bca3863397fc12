// DDR benchmark: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// Runs one workload for `seconds` of timed ops and prints, as the last line
// of standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. An untraced run reports the end-to-end metrics, a traced run
// the per-layer ones; the names and units are the ones in BENCHMARK.json.
// Exits non-zero without a result on bad arguments or when the workload
// would run more threads than the host has CPUs.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},        {"op_ms.p50", "ms"},
    {"op_ms.p90", "ms"},         {"cpu_ms_per_op", "ms"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
    {"frame_latency_ms.p50", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"ddr.setup_ms", "ms"},
    {"ddr.redistribute_ms", "ms"},
    {"ddr.network_bytes_per_op", "B"},
    {"ddr.self_bytes_per_op", "B"},
    {"ddr.transfers_per_op", "count"},
    {"ddr.rounds", "count"},
    {"planner.predicted_over_measured", "ratio"},
    {"mpi.messages_per_op", "count"},
    {"mpi.staging_acquires_per_op", "count"},
    {"mpi.staging_heap_allocs_per_op", "count"},
    {"mpi.rank_skew_ms.p50", "ms"},
    {"mpi.pack_threads", "count"},
    {"pencil.transpose_ms", "ms"},
    {"pencil.analytic_bytes_match", "bool"},
    {"loader.execute_ms", "ms"},
    {"loader.ddr_ms", "ms"},
    {"tiff.decode_ms_per_op", "ms"},
    {"loader.images_read_per_op", "count"},
    {"loader.bytes_read_per_op", "B"},
    {"dvr.render_ms", "ms"},
    {"lbm.step_ms", "ms"},
    {"lbm.mlups", "MLUPS"},
    {"stream.send_ms", "ms"},
    {"stream.receive_wait_ms", "ms"},
    {"stream.frame_bytes", "B"},
    {"image.colormap_ms", "ms"},
    {"jpeg.encode_ms", "ms"},
    {"jpeg.bytes_per_frame", "B"},
    {"jpeg.reduction_pct", "%"},
    {"trace.overhead_frac", "frac"},
    {"trace.closure_gap_frac", "frac"},
    {"host.steal_frac", "frac"},
    {"host.nivcsw_per_op", "count"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pencil_fft|rebalance|tiff_volume|lbm_intransit> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, pb::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         !a.workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");

  // A fixed allocator policy. By default glibc raises its mmap threshold as
  // large blocks are freed, so whether a set-up's buffers are fresh pages
  // (faulted in) or reused heap depends on the process's history: the same
  // pencil_fft set-up took 1.1 ms in some processes and 1.9 ms in others.
  // Serving every block below 32 MiB from the heap and never trimming it
  // gives every process the steady state of a long-running one.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  pb::Report report;
  try {
    std::filesystem::create_directories(args.workdir);
    if (args.workload == "pencil_fft") report = pb::run_pencil_fft(args);
    else if (args.workload == "rebalance") report = pb::run_rebalance(args);
    else if (args.workload == "tiff_volume") report = pb::run_tiff_volume(args);
    else if (args.workload == "lbm_intransit")
      report = pb::run_lbm_intransit(args);
    else return usage("unknown workload");
  } catch (const pb::ThreadBudgetExceeded& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  bool finite = true;
  std::string json;
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    const auto it = report.metrics.find(d.name);
    // A layer the workload does not exercise did no work: it reads 0.
    const double v = it == report.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) finite = false;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name, std::isfinite(v) ? v : 0.0,
                  d.unit);
    json += buf;
    first = false;
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) {
      if (report.metrics.count(d.name) == 0) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                     d.name);
        finite = false;
      }
      emit(d);
    }
  }
  for (const std::string& n : report.notes)
    std::fprintf(stderr, "[%s] %s\n", args.workload.c_str(), n.c_str());
  if (!finite)
    std::fprintf(stderr, "[%s] a metric was missing or not finite\n",
                 args.workload.c_str());

  const bool correct = report.failed == 0 && report.checks_ok && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), json.c_str());
  return 0;
}
