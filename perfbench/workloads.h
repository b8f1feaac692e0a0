// The three workloads of the repository benchmark. Each builds its own
// catalog from seeded inputs, drives it in a closed loop from a few
// client threads (ClientThreads), checks every output, and fills in its
// metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunSpec {
  const Options* options = nullptr;
  std::string dir;       ///< This workload's working directory.
  double seconds = 10;   ///< Measured loop time.
  /// Set-ups whose mean is setup_s: one before the measured loop, the
  /// rest in pauses spread across it (RunPhased).
  int setups = 3;
  /// Traced run: the measured time is split into an untraced half and
  /// a half recorded by `recorder`, followed by the layer probes.
  SpanRecorder* recorder = nullptr;
  /// A short traced side run, for per-layer metrics only.
  bool side = false;
};

struct WorkloadResult {
  Tally tally;
  /// Workload-neutral end-to-end metrics (every workload reports each):
  /// setup_s, op_p50_us, op_p99_us, ops_per_s, media_mb_s, peak_rss_mb.
  MetricSet e2e;
  /// The same numbers under the workload's own names (read_p50_us,
  /// materialize_p50_ms, commit_p50_us, ...), for the report line.
  MetricSet named;
  /// Per-layer metrics of a traced run.
  MetricSet layers;
  /// Extra JSON lines printed before the result (digests, ladders).
  std::vector<std::string> lines;
};

WorkloadResult RunPlay(const RunSpec& spec);
WorkloadResult RunMaterialize(const RunSpec& spec);
WorkloadResult RunIngest(const RunSpec& spec);

/// Median and mean of `values` (0 when empty).
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Measured operations a run needs: 1000 put ten samples beyond the p99.
inline constexpr size_t kMinSamples = 1000;

/// One-second windows in which the hypervisor stole more than this share
/// of the machine's CPU time are left out: on a shared virtual machine
/// such periods slowed a whole 30-second run of `play` by half.
inline constexpr double kMaxWindowSteal = 0.05;

/// How often RunPhased samples the machine's CPU times.
inline constexpr int64_t kCpuSampleNs = 100'000'000;

enum Phase { kWarmup = 0, kMeasure = 1, kStop = 2, kPause = 3 };

/// The phase the threads of a closed loop run in. RunPhased moves it;
/// each thread polls it between operations.
class PhaseGate {
 public:
  /// The current phase. In a pause, reports this thread idle and waits
  /// for the pause to end.
  int Poll() {
    int p = phase_.load(std::memory_order_acquire);
    if (p != kPause) return p;
    idle_.fetch_add(1, std::memory_order_acq_rel);
    idle_.notify_one();
    phase_.wait(kPause, std::memory_order_acquire);
    return phase_.load(std::memory_order_acquire);
  }

  void Set(int phase) {
    phase_.store(phase, std::memory_order_release);
    phase_.notify_all();
  }

  /// Starts a pause and returns once each of `threads` is idle in Poll
  /// or has ended.
  void Pause(int threads) {
    Set(kPause);
    for (int idle; (idle = idle_.load(std::memory_order_acquire)) +
                       ended_.load(std::memory_order_acquire) <
                   threads;) {
      idle_.wait(idle, std::memory_order_acquire);
    }
    idle_.store(0, std::memory_order_release);
  }

  /// Called by a thread whose body has returned.
  void End() {
    ended_.fetch_add(1, std::memory_order_acq_rel);
    idle_.notify_one();
  }

 private:
  std::atomic<int> phase_{kWarmup};
  std::atomic<int> idle_{0};
  std::atomic<int> ended_{0};
};

/// The measured part of a closed-loop run: its bounds, the pauses in
/// it, the machine's CPU times sampled across it, and the peak resident
/// set outside the pauses.
struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<int64_t, int64_t>> pauses;
  std::vector<CpuSample> cpu;
  double peak_rss_mb = 0;
};

/// Runs `body(thread_index, gate)` on `threads` threads while the gate
/// moves from kWarmup (for `warmup` seconds) to kMeasure (for `seconds`)
/// to kStop; joins them and returns the measured interval. Each body
/// loops until it sees kStop and keeps only what it did in kMeasure.
/// The measured time is cut into `interludes` + 1 equal slices; between
/// two slices the threads pause while the calling thread runs
/// `interlude` (the workload's repeated set-ups). The memory an interlude
/// uses does not count in `peak_rss_mb`: the peak is read before it and
/// restarted after it (ResetPeakRss).
template <typename Body>
Interval RunPhased(int threads, double warmup, double seconds, Body body,
                   int interludes = 0,
                   const std::function<void()>& interlude = {}) {
  PhaseGate gate;
  Interval measured;
  auto sample_until = [&measured](int64_t end) {
    for (int64_t now = NowNs(); now < end; now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(end - now, kCpuSampleNs)));
      measured.cpu.push_back(CpuSample{NowNs(), ReadCpuTimes()});
    }
  };
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&body, &gate, t] {
        body(t, gate);
        gate.End();
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
    measured.cpu.push_back(CpuSample{NowNs(), ReadCpuTimes()});
    measured.start_ns = NowNs();
    gate.Set(kMeasure);
    const auto slice_ns =
        static_cast<int64_t>(seconds * 1e9 / (interludes + 1));
    for (int i = 0; i < interludes; ++i) {
      sample_until(NowNs() + slice_ns);
      gate.Pause(threads);
      const int64_t paused = NowNs();
      measured.peak_rss_mb = std::max(measured.peak_rss_mb, PeakRssMb());
      interlude();
      ResetPeakRss();
      measured.pauses.emplace_back(paused, NowNs());
      gate.Set(kMeasure);
    }
    sample_until(NowNs() + slice_ns);
    gate.Set(kStop);
    measured.end_ns = NowNs();
  }  // jthreads join here.
  measured.peak_rss_mb = std::max(measured.peak_rss_mb, PeakRssMb());
  return measured;
}

/// Sets peak_rss_mb: the measured interval's peak resident set less the
/// memory of the samples in `ops`. Sets op_p50_us, op_p99_us, ops_per_s
/// and media_mb_s from the operations that ended in `measured`, over its
/// one-second windows with at most kMaxWindowSteal hypervisor steal,
/// pauses left out (WindowedSamples::Summarize). With
/// `check_tail`, fails the run when the p99 has fewer than ten samples
/// beyond it (fewer than kMinSamples operations).
WindowedSamples::Summary SetOpMetrics(const WindowedSamples& ops,
                                      const Interval& measured,
                                      bool check_tail, WorkloadResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
