// Validates the §2.2 "scalability" claim: a stream recorded at high
// fidelity can be presented at lower fidelity while *reading only part
// of the storage unit* — here by decoding only the key frames of an
// interframe-coded (TMPEG) stream, found through the interpretation's
// sync index. Sweeps the key interval and reports the fraction of BLOB
// bytes touched versus the fraction of frames delivered.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "blob/memory_store.h"
#include "codec/layered.h"
#include "codec/synthetic.h"
#include "codec/tmpeg.h"
#include "db/codec_bridge.h"
#include "interp/index.h"
#include "interp/streaming.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

constexpr int kW = 160, kH = 120;
constexpr int64_t kFrames = 48;

struct StoredClip {
  MemoryBlobStore store;
  Interpretation interp;
};

StoredClip MakeClip(int key_interval) {
  StoredClip clip;
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(kW, kH, kFrames, 61);
  StoreOptions options;
  options.video_codec = "tmpeg";
  options.key_interval = key_interval;
  clip.interp = ValueOrDie(
      StoreValue(&clip.store, video, "clip", options), "store");
  return clip;
}

void PrintScalability() {
  bench::Header(
      "Claim (paper §2.2): scalability — \"bandwidth can be saved and\n"
      "processing reduced if the video sequence is 'scaled' to a lower\n"
      "resolution by ignoring parts of the storage unit\"");

  std::printf("%12s %10s %14s %14s %12s\n", "key interval", "keys",
              "bytes touched", "of total", "frames out");
  for (int key_interval : {4, 8, 12, 24}) {
    StoredClip clip = MakeClip(key_interval);
    auto object = ValueOrDie(clip.interp.FindObject("clip"), "object");
    CompactElementIndex index = CompactElementIndex::Build(*object);
    uint64_t key_bytes = 0;
    for (int64_t key : index.sync_elements()) {
      key_bytes += ValueOrDie(index.PlacementOf(key), "placement").length;
    }
    uint64_t total = object->PayloadBytes();
    std::printf("%12d %10zu %14llu %13.1f%% %8zu/%lld\n", key_interval,
                index.sync_elements().size(),
                static_cast<unsigned long long>(key_bytes),
                100.0 * key_bytes / total, index.sync_elements().size(),
                static_cast<long long>(kFrames));
  }
  std::printf(
      "\nShape check: the scaled read touches a shrinking fraction of the\n"
      "BLOB as the key interval grows, while full-fidelity playback always\n"
      "reads 100%%.\n");

  // Image scalability: layered coding (base + enhancement), per the
  // paper's citation of Lippman's feature sets.
  std::printf(
      "\nLayered image coding (base layer only vs full read):\n"
      "%12s %12s %12s %10s %10s\n",
      "geometry", "base bytes", "total bytes", "base PSNR", "full PSNR");
  for (int32_t size : {128, 256, 512}) {
    Image image = videogen::Still(size, size * 3 / 4, 1994);
    LayeredImage layered = ValueOrDie(LayeredEncode(image), "layered");
    Image base = ValueOrDie(LayeredDecodeBase(layered), "base");
    Image full = ValueOrDie(LayeredDecodeFull(layered), "full");
    char geometry[16];
    std::snprintf(geometry, sizeof(geometry), "%dx%d", size, size * 3 / 4);
    std::printf("%12s %12zu %12zu %9.1f %9.1f\n", geometry,
                layered.base.size(),
                layered.base.size() + layered.enhancement.size(),
                ValueOrDie(Psnr(image, base), "psnr"),
                ValueOrDie(Psnr(image, full), "psnr"));
  }
}

void BM_LayeredBaseOnlyDecode(benchmark::State& state) {
  Image image = videogen::Still(256, 192, 3);
  LayeredImage layered = ValueOrDie(LayeredEncode(image), "layered");
  for (auto _ : state) {
    auto base = LayeredDecodeBase(layered);
    CheckOk(base.status(), "base");
    benchmark::DoNotOptimize(base->data.data());
  }
}
BENCHMARK(BM_LayeredBaseOnlyDecode)->Unit(benchmark::kMillisecond);

void BM_LayeredFullDecode(benchmark::State& state) {
  Image image = videogen::Still(256, 192, 3);
  LayeredImage layered = ValueOrDie(LayeredEncode(image), "layered");
  for (auto _ : state) {
    auto full = LayeredDecodeFull(layered);
    CheckOk(full.status(), "full");
    benchmark::DoNotOptimize(full->data.data());
  }
}
BENCHMARK(BM_LayeredFullDecode)->Unit(benchmark::kMillisecond);

// --- Benchmarks -------------------------------------------------------------

void BM_FullFidelityDecode(benchmark::State& state) {
  StoredClip clip = MakeClip(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto stream = MaterializeStreamed(clip.store, clip.interp, "clip");
    CheckOk(stream.status(), "materialize");
    auto value = DecodeStream(*stream);
    CheckOk(value.status(), "decode");
    benchmark::DoNotOptimize(std::get<VideoValue>(*value).frames.size());
  }
  state.SetItemsProcessed(state.iterations() * kFrames);
}
BENCHMARK(BM_FullFidelityDecode)->Arg(8)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_ScaledKeysOnlyDecode(benchmark::State& state) {
  StoredClip clip = MakeClip(static_cast<int>(state.range(0)));
  auto object = ValueOrDie(clip.interp.FindObject("clip"), "object");
  CompactElementIndex index = CompactElementIndex::Build(*object);
  for (auto _ : state) {
    std::vector<TmpegFrame> keys;
    for (int64_t key : index.sync_elements()) {
      auto element = clip.interp.ReadElement(clip.store, "clip", key);
      CheckOk(element.status(), "read key");
      keys.push_back(ValueOrDie(TmpegParseFrame(element->data), "parse"));
    }
    auto decoded = TmpegDecodeKeysOnly(keys);
    CheckOk(decoded.status(), "keys only");
    benchmark::DoNotOptimize(decoded->size());
  }
  state.SetItemsProcessed(state.iterations() * index.sync_elements().size());
}
BENCHMARK(BM_ScaledKeysOnlyDecode)->Arg(8)->Arg(24)
    ->Unit(benchmark::kMillisecond);

void BM_SeekViaSyncIndex(benchmark::State& state) {
  // Random access into interframe video: nearest key at or before the
  // target, then decode forward — the sync table's purpose.
  StoredClip clip = MakeClip(8);
  auto object = ValueOrDie(clip.interp.FindObject("clip"), "object");
  CompactElementIndex index = CompactElementIndex::Build(*object);
  int64_t target = 0;
  for (auto _ : state) {
    int64_t key = ValueOrDie(index.SyncBefore(target), "sync");
    benchmark::DoNotOptimize(key);
    target = (target + 7) % kFrames;
  }
}
BENCHMARK(BM_SeekViaSyncIndex);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  tbm::PrintScalability();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
