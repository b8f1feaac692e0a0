// Reproduces Figure 2 and the §4.1 worked example: a PAL video signal
// with stereo CD audio digitized, compressed (RGB → YUV → TJPEG at "VHS
// quality"), interleaved in one BLOB, and interpreted. Prints the two
// media descriptors in the paper's box style, checks the paper's data-
// rate numbers, and benchmarks indexed vs linear element lookup.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "blob/memory_store.h"
#include "codec/synthetic.h"
#include "interp/av_capture.h"
#include "interp/index.h"
#include "interp/streaming.h"
#include "stream/category.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

// Scaled-down stand-in for the paper's 10-minute PAL tape: full PAL
// geometry (640x480 @ 25 fps) but a few seconds long; every reported
// rate is per second, so the paper's numbers are directly comparable.
constexpr int kPalWidth = 640;
constexpr int kPalHeight = 480;
constexpr double kSeconds = 2.0;

struct CapturedExample {
  MemoryBlobStore store;
  AvCaptureResult result;
};

CapturedExample& Example() {
  static CapturedExample* example = [] {
    auto* e = new CapturedExample();
    std::vector<Image> frames =
        videogen::Clip(kPalWidth, kPalHeight,
                       static_cast<int64_t>(kSeconds * 25), 1994);
    AudioBuffer audio =
        audiogen::Sine(44100, 2, 440.0, 0.5, kSeconds + 0.1);
    AvCaptureConfig config;  // PAL + VHS quality + CD audio defaults.
    e->result = ValueOrDie(
        CaptureInterleavedAv(&e->store, frames, audio, config),
        "figure 2 capture");
    return e;
  }();
  return *example;
}

void PrintFigure2() {
  bench::Header(
      "Figure 2 reproduction: interpretation of a BLOB\n"
      "(PAL video, RGB->YUV->TJPEG at \"VHS quality\", interleaved with\n"
      " 44.1 kHz 16-bit stereo PCM; audio samples follow their frame)");
  CapturedExample& e = Example();
  const Interpretation& interp = e.result.interpretation;

  for (const InterpretedObject& object : interp.objects()) {
    TimedStream stream = ValueOrDie(
        MaterializeStreamed(e.store, interp, object.name), "materialize");
    StreamCategories cats = Classify(stream);
    MediaDescriptor desc = object.descriptor;
    desc.attrs.SetString("category", cats.ToString());
    desc.attrs.SetString(
        "duration", std::to_string(stream.DurationSeconds().ToDouble()) + " s");
    std::printf("\n%s\n", desc.ToString(object.name).c_str());
  }

  uint64_t blob_size = ValueOrDie(e.store.Size(e.result.blob), "blob size");
  double raw_rate = e.result.raw_video_bytes / kSeconds;
  double video_rate = e.result.encoded_video_bytes / kSeconds;
  double audio_rate = e.result.audio_bytes / kSeconds;

  std::printf("\nData-rate accounting (paper's numbers in brackets):\n");
  std::printf("  raw video           %10s   [~22 MB/s for 24-bit PAL]\n",
              HumanRate(raw_rate).c_str());
  std::printf("  encoded video       %10s   [~0.5 MB/s at VHS quality]\n",
              HumanRate(video_rate).c_str());
  std::printf("  audio               %10s   [172 kB/s = 44100*2*2]\n",
              HumanRate(audio_rate).c_str());
  std::printf("  compression ratio   %9.1fx   [~44x]\n",
              raw_rate / video_rate);
  std::printf("  BLOB size           %10s   coverage %.1f%%\n",
              HumanBytes(blob_size).c_str(),
              100.0 * interp.Coverage(blob_size));

  // The paper's table view of the mapping: one row per element.
  auto video_obj = ValueOrDie(interp.FindObject("video1"), "video1");
  std::printf("\nvideo1(elementNumber, elementSize, blobPlacement) — first rows:\n");
  for (int i = 0; i < 4; ++i) {
    const ElementPlacement& p = video_obj->elements[i];
    std::printf("  (%3lld, %6llu, %8llu)\n",
                static_cast<long long>(p.element_number),
                static_cast<unsigned long long>(p.placement.length),
                static_cast<unsigned long long>(p.placement.offset));
  }
  auto audio_obj = ValueOrDie(interp.FindObject("audio1"), "audio1");
  std::printf("audio1 element 0: %lld sample pairs [paper: 1764 per PAL frame]\n",
              static_cast<long long>(audio_obj->elements[0].duration));

  CompactElementIndex index = CompactElementIndex::Build(*video_obj);
  std::printf(
      "\nIndex compaction (QuickTime-style): flat table %zu B -> compact "
      "%zu B (%zu time runs, %zu chunks)\n",
      video_obj->elements.size() * sizeof(ElementPlacement),
      index.MemoryBytes(), index.time_run_count(), index.chunk_count());
}

// --- Benchmarks -------------------------------------------------------------

void BM_IndexedElementAtTime(benchmark::State& state) {
  CapturedExample& e = Example();
  auto video_obj =
      ValueOrDie(e.result.interpretation.FindObject("video1"), "video1");
  CompactElementIndex index = CompactElementIndex::Build(*video_obj);
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.ElementAtTime(t));
    t = (t + 3) % index.element_count();
  }
}
BENCHMARK(BM_IndexedElementAtTime);

void BM_LinearElementAtTime(benchmark::State& state) {
  CapturedExample& e = Example();
  auto video_obj =
      ValueOrDie(e.result.interpretation.FindObject("video1"), "video1");
  int64_t t = 0;
  for (auto _ : state) {
    // Linear scan baseline over the flat table.
    const ElementPlacement* hit = nullptr;
    for (const ElementPlacement& p : video_obj->elements) {
      if (p.start <= t && t < p.start + p.duration) {
        hit = &p;
        break;
      }
    }
    benchmark::DoNotOptimize(hit);
    t = (t + 3) % static_cast<int64_t>(video_obj->elements.size());
  }
}
BENCHMARK(BM_LinearElementAtTime);

void BM_MaterializeVideoElement(benchmark::State& state) {
  CapturedExample& e = Example();
  int64_t element = 0;
  for (auto _ : state) {
    auto read = e.result.interpretation.ReadElement(e.store, "video1",
                                                    element);
    bench::CheckOk(read.status(), "read element");
    benchmark::DoNotOptimize(read->data.data());
    element = (element + 1) % 50;
  }
}
BENCHMARK(BM_MaterializeVideoElement);

void BM_MaterializeSpan(benchmark::State& state) {
  CapturedExample& e = Example();
  for (auto _ : state) {
    auto span = MaterializeStreamed(e.store, e.result.interpretation, "audio1",
                                    {}, TickSpan{44100 / 2, 44100 / 4});
    bench::CheckOk(span.status(), "span");
    benchmark::DoNotOptimize(span->size());
  }
}
BENCHMARK(BM_MaterializeSpan);

void BM_CaptureInterleaved(benchmark::State& state) {
  // Cost of the whole Figure 2 capture pipeline per frame, at reduced
  // geometry to keep iterations fast.
  std::vector<Image> frames = videogen::Clip(160, 120, 10, 7);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 0.5);
  for (auto _ : state) {
    MemoryBlobStore store;
    auto result =
        CaptureInterleavedAv(&store, frames, audio, AvCaptureConfig{});
    bench::CheckOk(result.status(), "capture");
    benchmark::DoNotOptimize(result->encoded_video_bytes);
  }
  state.SetItemsProcessed(state.iterations() * frames.size());
}
BENCHMARK(BM_CaptureInterleaved)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  tbm::PrintFigure2();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
