// tbm_perfbench: the repository benchmark program.
//
//   tbm_perfbench --workload play|materialize|ingest --seed N
//                 --seconds S --trace 0|1 --workdir DIR
//                 [--commit REV] [--trace-out PREFIX]
//
// Prints a provenance line, the workload's report line (its metrics
// under their own names), any digest or ladder lines, and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end metrics, measured
// untraced. With --trace 1 they are the per-layer metrics: the named
// workload runs its traced flow for the full time, and the other two
// workloads run theirs briefly so that every layer reports.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.P50();
}

double Mean(const std::vector<double>& values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Mean();
}

WindowedSamples::Summary SetOpMetrics(const WindowedSamples& ops,
                                      const Interval& measured,
                                      bool check_tail, WorkloadResult* result) {
  // The samples are the benchmark's memory, not the program's.
  result->e2e.Set("peak_rss_mb",
                  measured.peak_rss_mb - ops.Bytes() / 1048576.0, "MB");
  WindowedSamples::Summary s =
      ops.Summarize(measured.start_ns, measured.end_ns, measured.pauses,
                    measured.cpu, kMaxWindowSteal, kMinSamples);
  result->e2e.Set("op_p50_us", s.p50, "us");
  result->e2e.Set("op_p99_us", s.p99, "us");
  result->e2e.Set("ops_per_s", s.per_s, "1/s");
  result->e2e.Set("media_mb_s", s.mb_s, "MB/s");
  result->named.Set("windows", static_cast<double>(s.windows), "count");
  result->named.Set("stolen_windows", static_cast<double>(s.stolen_windows),
                    "count");
  result->named.Set("samples", static_cast<double>(s.samples), "count");
  if (check_tail && s.samples < kMinSamples) {
    result->tally.attempted++;
    result->tally.Fail("fewer than ten samples beyond the p99 (" +
                       std::to_string(s.samples) + " samples)");
  }
  return s;
}

namespace {

/// Set-ups of an untraced run; setup_s is their mean.
constexpr int kSetups = 7;

/// Length of the traced side runs of the workloads not named.
constexpr double kSideSeconds = 3.0;

using RunFn = WorkloadResult (*)(const RunSpec&);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {{"play", &RunPlay},
                                   {"materialize", &RunMaterialize},
                                   {"ingest", &RunIngest}};

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: tbm_perfbench --workload "
               "play|materialize|ingest --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--commit REV] [--trace-out PREFIX]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--commit") {
      opt.commit = value;
    } else if (key == "--trace-out") {
      opt.trace_path = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in pairs");
  const Workload* own = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) own = &w;
  }
  if (own == nullptr) return Usage("unknown workload");
  if (opt.workdir.empty()) return Usage("--workdir is required");
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");

  const std::string run_dir = opt.workdir + "/" + opt.workload + "-" +
                              std::to_string(::getpid());
  RemoveTree(run_dir);
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) return Usage(("cannot create " + run_dir).c_str());

  const CpuTimes cpu_start = ReadCpuTimes();
  std::printf("{\"provenance\": %s}\n",
              ProvenanceJson(opt, run_dir).c_str());
  std::fflush(stdout);

  // The named workload first (full length), then in a traced run the
  // others as short side runs.
  MetricSet metrics;
  std::vector<const Workload*> order = {own};
  if (opt.trace) {
    for (const Workload& w : kWorkloads) {
      if (&w != own) order.push_back(&w);
    }
  }
  Tally tally;
  MetricSet layers;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  for (const Workload* w : order) {
    RunSpec spec;
    spec.options = &opt;
    spec.dir = run_dir + "/" + w->name;
    spec.seconds = w == own ? opt.seconds : kSideSeconds;
    spec.setups = opt.trace ? 1 : kSetups;
    spec.side = w != own;
    if (opt.trace) {
      recorders.push_back(std::make_unique<SpanRecorder>());
      spec.recorder = recorders.back().get();
    }
    WorkloadResult r = w->run(spec);
    RemoveTree(spec.dir);
    tally.Merge(r.tally);
    for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
    layers.Merge(r.layers);
    if (w != own) continue;
    MetricSet named = r.named;
    const CpuTimes cpu_end = ReadCpuTimes();
    if (cpu_end.total > cpu_start.total) {
      named.Set("cpu_steal_pct",
                100.0 * (cpu_end.steal - cpu_start.steal) /
                    (cpu_end.total - cpu_start.total),
                "%");
    }
    named.Set("failed_frac",
              r.tally.attempted > 0
                  ? static_cast<double>(r.tally.failed) / r.tally.attempted
                  : 0.0,
              "ratio");
    std::printf("{\"report\": {\"workload\": \"%s\", \"values\": %s}}\n",
                w->name, named.PlainJson().c_str());
    if (!opt.trace) {
      metrics = r.e2e;
    } else {
      layers.Set("bench.trace_overhead_pct",
                 r.layers.Get("bench." + opt.workload + "_trace_overhead_pct"),
                 "%");
    }
  }
  if (opt.trace) {
    size_t spans = 0;
    for (size_t i = 0; i < recorders.size(); ++i) {
      spans += recorders[i]->SpanCount();
      if (!opt.trace_path.empty()) {
        recorders[i]->WriteJsonLines(opt.trace_path + "." +
                                     order[i]->name + ".jsonl");
      }
    }
    layers.Set("bench.spans", static_cast<double>(spans), "count");
    layers.Set("bench.failed_frac",
               tally.attempted > 0
                   ? static_cast<double>(tally.failed) / tally.attempted
                   : 0.0,
               "ratio");
    metrics = layers;
  }
  RemoveTree(run_dir);

  for (const std::string& e : tally.errors) {
    std::printf("{\"error\": %s}\n", JsonString(e).c_str());
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, tally.attempted)),
      static_cast<unsigned long long>(tally.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}
