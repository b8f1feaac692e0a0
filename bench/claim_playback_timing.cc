// Validates the paper's timing claims (§2.2 Timing, §5): with timing
// information in the data model, "play" is meaningful; deadlines are
// soft; "playback 'jitter' can be removed by the application just
// prior to presentation"; and misses appear when media data rates
// exceed service capacity. Sweeps service speed, load noise and
// start-delay buffering on simulated synchronized A/V playback.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "playback/admission.h"
#include "playback/simulator.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

MediaDescriptor Descriptor(const char* type, MediaKind kind) {
  MediaDescriptor desc;
  desc.type_name = type;
  desc.kind = kind;
  return desc;
}

TimedStream VideoSchedule(int64_t frames, size_t bytes_per_frame) {
  TimedStream stream(Descriptor("video/tjpeg", MediaKind::kVideo),
                     TimeSystem(25));
  for (int64_t i = 0; i < frames; ++i) {
    CheckOk(stream.AppendContiguous(Bytes(bytes_per_frame, 0), 1), "frame");
  }
  return stream;
}

TimedStream AudioSchedule(int64_t frames) {
  TimedStream stream(Descriptor("audio/pcm-block", MediaKind::kAudio),
                     TimeSystem(25));
  for (int64_t i = 0; i < frames; ++i) {
    CheckOk(stream.AppendContiguous(Bytes(1764 * 4, 0), 1), "block");
  }
  return stream;
}

void PrintTiming() {
  bench::Header(
      "Claim (paper §2.2/§5): playback timing — deadlines are soft,\n"
      "jitter is removable by application-side buffering, and misses\n"
      "appear when the data rate exceeds service capacity");

  const int64_t frames = 250;  // 10 s at 25 fps.
  TimedStream video = VideoSchedule(frames, 20000);  // 0.5 MB/s.
  TimedStream audio = AudioSchedule(frames);         // 176 kB/s.
  std::vector<const TimedStream*> streams = {&video, &audio};

  std::printf(
      "Sweep 1: service capacity (noise 20 ms peak, no buffer).\n"
      "%14s %10s %12s %12s %10s\n",
      "service MB/s", "misses", "mean late", "max late", "util");
  for (double mbps : {0.2, 0.7, 2.0, 20.0}) {
    PlaybackConfig config;
    config.seconds_per_megabyte = 1.0 / mbps;
    config.load_noise_us = 20000.0;
    config.seed = 11;
    PlaybackReport report =
        ValueOrDie(SimulatePlayback(streams, config), "simulate");
    std::printf("%14.1f %6lld/%-3lld %10.1fms %10.1fms %9.2f\n", mbps,
                static_cast<long long>(report.total_misses),
                static_cast<long long>(report.total_elements),
                report.mean_lateness_us / 1000.0,
                report.max_lateness_us / 1000.0, report.utilization);
  }

  std::printf(
      "\nSweep 2: start-delay buffer at 2.0 MB/s service with bursty\n"
      "load noise — adequate average capacity, transient lateness\n"
      "(jitter removal, paper §5).\n"
      "%12s %10s %12s %12s %12s\n",
      "buffer ms", "misses", "mean late", "max late", "max skew");
  for (double buffer_ms : {0.0, 50.0, 200.0, 1000.0}) {
    PlaybackConfig config;
    config.seconds_per_megabyte = 1.0 / 2.0;
    config.load_noise_us = 30000.0;
    config.seed = 11;
    config.buffer_delay_ms = buffer_ms;
    PlaybackReport report =
        ValueOrDie(SimulatePlayback(streams, config), "simulate");
    std::printf("%12.0f %6lld/%-3lld %10.1fms %10.1fms %10.1fms\n", buffer_ms,
                static_cast<long long>(report.total_misses),
                static_cast<long long>(report.total_elements),
                report.mean_lateness_us / 1000.0,
                report.max_lateness_us / 1000.0,
                report.max_sync_skew_us / 1000.0);
  }
  std::printf(
      "\nShape check: misses collapse to zero once capacity exceeds the\n"
      "stream rate; with marginal capacity, a modest start delay removes\n"
      "all residual jitter. Without timing information (a bare BLOB) none\n"
      "of these rows could even be computed — \"play\" would have no\n"
      "meaning.\n");

  // Sweep 3: descriptor-driven admission control (paper §4.1:
  // descriptors carry the data rates resource allocation needs). Use a
  // bursty stream — action scenes every 10 s that triple the rate —
  // so the two booking policies genuinely differ.
  TimedStream bursty(Descriptor("video/tmpeg", MediaKind::kVideo),
                     TimeSystem(25));
  for (int64_t i = 0; i < 250; ++i) {
    size_t bytes = (i / 25) % 10 == 0 ? 36000 : 8000;
    CheckOk(bursty.AppendContiguous(Bytes(bytes, 0), 1), "bursty frame");
  }
  RateProfile bursty_profile = MeasureRateProfile(bursty);
  MediaDescriptor session_desc;
  session_desc.type_name = "video/tmpeg";
  session_desc.kind = MediaKind::kVideo;
  AnnotateRateProfile(&session_desc, bursty_profile);
  std::printf(
      "\nSweep 3: admission control on a 2.0 MB/s server; each session\n"
      "plays a bursty clip (avg %s, peak %s, burstiness %.1fx).\n"
      "%14s %12s %12s\n",
      HumanRate(bursty_profile.average_bytes_per_second).c_str(),
      HumanRate(bursty_profile.peak_bytes_per_second).c_str(),
      bursty_profile.Burstiness(), "policy", "admitted", "booked");
  for (auto policy : {AdmissionController::Policy::kAverageRate,
                      AdmissionController::Policy::kPeakRate}) {
    AdmissionController controller(2.0e6, policy);
    int admitted = 0;
    while (controller
               .Admit('s' + std::to_string(admitted), session_desc)
               .ok()) {
      ++admitted;
    }
    std::printf("%14s %12d %12s\n",
                policy == AdmissionController::Policy::kAverageRate
                    ? "average-rate"
                    : "peak-rate",
                admitted, HumanRate(controller.booked()).c_str());
  }
  std::printf(
      "Shape check: peak-rate booking admits fewer sessions but\n"
      "guarantees each one the capacity sweep above shows it needs.\n");
}

// --- Benchmarks -------------------------------------------------------------

void BM_SimulatePlayback(benchmark::State& state) {
  TimedStream video = VideoSchedule(state.range(0), 20000);
  TimedStream audio = AudioSchedule(state.range(0));
  std::vector<const TimedStream*> streams = {&video, &audio};
  PlaybackConfig config;
  config.seconds_per_megabyte = 0.5;
  config.load_noise_us = 10000.0;
  for (auto _ : state) {
    auto report = SimulatePlayback(streams, config);
    CheckOk(report.status(), "simulate");
    benchmark::DoNotOptimize(report->total_misses);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_SimulatePlayback)->Range(64, 8192);

void BM_ScheduleExtraction(benchmark::State& state) {
  // Building the deadline list from stream timing — the part of "play"
  // the data model enables.
  TimedStream video = VideoSchedule(state.range(0), 100);
  for (auto _ : state) {
    double total = 0;
    for (const StreamElement& element : video) {
      total += video.time_system().ToSecondsF(element.start);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleExtraction)->Range(256, 16384);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  tbm::PrintTiming();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
