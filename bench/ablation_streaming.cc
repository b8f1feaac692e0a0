// Streaming read-pipeline ablation: the tentpole acceptance check for
// the chunked-read + prefetch + retry stack. A TJPEG clip is stored in
// a cold FileBlobStore wrapped in a FaultInjectingStore that models a
// mid-90s sequential device (fixed per-request latency plus a per-KiB
// transfer cost), and the same object is then expanded to frames four
// ways:
//
//  - whole:    one ranged read of the entire BLOB, slice, decode —
//              maximum batching, whole object resident;
//  - sync:     an Interpretation::ReadElement loop (one ranged read
//              per element) + DecodeStream — the pre-streaming read path;
//  - depth N:  DecodeStreamed with chunked reads and a prefetch depth
//              of N (N = 1, 4, 16), decode overlapping store I/O.
//
// A second section plays the clip through PlayStreamed against a 5%
// transient read-fault rate with retries enabled, demonstrating the
// zero-abort acceptance criterion.
//
// Prints a JSON object; `-o <file>` also writes it to a file (the
// committed BENCH_streaming.json at the repo root is one such run).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "base/thread_pool.h"
#include "bench/bench_util.h"
#include "blob/fault_store.h"
#include "blob/file_store.h"
#include "codec/synthetic.h"
#include "db/codec_bridge.h"
#include "playback/streaming.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

constexpr int kFrames = 256;
constexpr int kRepetitions = 3;  // Keep the min: device latency is
                                 // injected, so runs are near-identical
                                 // and the min sheds scheduler noise.

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

VideoValue MakeClip() {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(128, 96, kFrames, 11);
  return video;
}

size_t FrameCount(const MediaValue& value) {
  return std::get<VideoValue>(value).frames.size();
}

/// Baseline A: one ranged read of the whole BLOB, then slice elements
/// out of the buffer and decode.
double MeasureWholeObjectMs(const BlobStore& store,
                            const Interpretation& interp,
                            const std::string& name) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double start = NowMs();
    uint64_t blob_size = ValueOrDie(store.Size(interp.blob()), "size");
    BufferSlice all =
        ValueOrDie(store.Read(interp.blob(), ByteRange{0, blob_size}), "read");
    const InterpretedObject* object =
        ValueOrDie(interp.FindObject(name), "find");
    TimedStream stream(object->descriptor, object->time_system);
    for (const ElementPlacement& element : object->elements) {
      Bytes data(all.begin() + element.placement.offset,
                 all.begin() + element.placement.end());
      CheckOk(stream.Append({std::move(data), element.start, element.duration,
                             element.descriptor}),
              "append");
    }
    MediaValue value = ValueOrDie(DecodeStream(stream), "decode");
    if (FrameCount(value) != kFrames) std::abort();
    best = std::min(best, NowMs() - start);
  }
  return best;
}

/// Baseline B: the pre-streaming path — one ranged read per element
/// (ReadElement), then decode the assembled stream.
double MeasureSyncElementsMs(const BlobStore& store,
                             const Interpretation& interp,
                             const std::string& name) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double start = NowMs();
    const InterpretedObject* object =
        ValueOrDie(interp.FindObject(name), "find");
    TimedStream stream(object->descriptor, object->time_system);
    for (size_t i = 0; i < object->elements.size(); ++i) {
      CheckOk(stream.Append(ValueOrDie(
                  interp.ReadElement(store, name, static_cast<int64_t>(i)),
                  "read element")),
              "append");
    }
    MediaValue value = ValueOrDie(DecodeStream(stream), "decode");
    if (FrameCount(value) != kFrames) std::abort();
    best = std::min(best, NowMs() - start);
  }
  return best;
}

/// Streamed: chunked reads with prefetch depth `depth`, decode
/// overlapping I/O.
double MeasureStreamedMs(const BlobStore& store, const Interpretation& interp,
                         const std::string& name, int depth, ThreadPool* pool,
                         ElementStreamStats* stats) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double start = NowMs();
    StreamReadOptions options;
    options.chunk_size = 16 * 1024;
    options.prefetch_depth = depth;
    options.pool = depth > 0 ? pool : nullptr;
    ElementStreamStats run_stats;
    MediaValue value = ValueOrDie(
        DecodeStreamed(store, interp, name, options, &run_stats), "streamed");
    if (FrameCount(value) != kFrames) std::abort();
    double elapsed = NowMs() - start;
    if (elapsed < best) {
      best = elapsed;
      if (stats != nullptr) *stats = run_stats;
    }
  }
  return best;
}

int Run(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) out_path = argv[i + 1];
  }

  std::string dir = std::filesystem::temp_directory_path() /
                    "tbm_bench_streaming";
  std::filesystem::remove_all(dir);

  // The device model: 8 ms per request (seek + rotational + request
  // round-trip) plus 150 us/KiB (~6.5 MB/s sustained) — a mid-90s
  // magnetic disk, the hardware the paper's continuous-media servers
  // ran on. Faults off in the latency section.
  FaultConfig device;
  device.read_latency_fixed_us = 8'000.0;
  device.read_latency_per_kib_us = 150.0;
  FaultInjectingStore store(
      ValueOrDie(FileBlobStore::Open(dir), "open file store"), device);

  Interpretation interp = ValueOrDie(
      StoreValue(store.inner(), MediaValue(MakeClip()), "clip"), "store clip");
  uint64_t blob_bytes = ValueOrDie(store.Size(interp.blob()), "size");

  ThreadPool pool(8);
  double whole_ms = MeasureWholeObjectMs(store, interp, "clip");
  double sync_ms = MeasureSyncElementsMs(store, interp, "clip");
  ElementStreamStats depth4_stats;
  double depth1_ms = MeasureStreamedMs(store, interp, "clip", 1, &pool, nullptr);
  double depth4_ms =
      MeasureStreamedMs(store, interp, "clip", 4, &pool, &depth4_stats);
  double depth16_ms =
      MeasureStreamedMs(store, interp, "clip", 16, &pool, nullptr);
  double speedup = depth4_ms > 0 ? sync_ms / depth4_ms : 0.0;

  // Fault tolerance: 5% transient read-fault rate, retries on — the
  // zero-abort criterion. Latency off so retries are cheap to run.
  FaultConfig flaky;
  flaky.read_fault_rate = 0.05;
  flaky.seed = 42;
  FaultInjectingStore faulty(
      ValueOrDie(FileBlobStore::Open(dir), "reopen file store"), flaky);
  StreamReadOptions robust;
  robust.chunk_size = 8 * 1024;
  robust.prefetch_depth = 4;
  robust.pool = &pool;
  robust.policy.max_retries = 8;
  robust.policy.backoff_initial_us = 50.0;
  StreamedPlaybackReport report = ValueOrDie(
      PlayStreamed(faulty, interp, {"clip"}, PlaybackConfig{}, robust),
      "faulty playback");

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"ablation_streaming\",\n"
      " \"workload\": \"TJPEG clip, %d frames, %llu KiB BLOB, cold file "
      "store\",\n"
      " \"device_model\": \"8 ms/request + 150 us/KiB (~6.5 MB/s)\",\n"
      " \"whole_object_ms\": %.1f,\n"
      " \"sync_per_element_ms\": %.1f,\n"
      " \"streamed_depth1_ms\": %.1f,\n"
      " \"streamed_depth4_ms\": %.1f,\n"
      " \"streamed_depth16_ms\": %.1f,\n"
      " \"speedup_depth4_vs_sync\": %.2f,\n"
      " \"depth4_prefetch_hit_rate\": %.2f,\n"
      " \"depth4_prefetch_stalls\": %llu,\n"
      " \"fault_rate\": 0.05,\n"
      " \"fault_injected_read_faults\": %llu,\n"
      " \"fault_elements_skipped\": %llu,\n"
      " \"fault_elements_played\": %lld}\n",
      kFrames, static_cast<unsigned long long>(blob_bytes / 1024), whole_ms,
      sync_ms, depth1_ms, depth4_ms, depth16_ms, speedup,
      depth4_stats.prefetch.HitRate(),
      static_cast<unsigned long long>(depth4_stats.prefetch.stalls),
      static_cast<unsigned long long>(faulty.injected_read_faults()),
      static_cast<unsigned long long>(report.elements_skipped),
      static_cast<long long>(report.playback.total_elements));
  std::printf("%s", json);
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: depth-4 speedup %.2fx < 1.5x\n", speedup);
    return 1;
  }
  if (report.elements_skipped != 0) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: %llu elements skipped\n",
                 static_cast<unsigned long long>(report.elements_skipped));
    return 1;
  }
  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    std::fputs(json, f);
    std::fclose(f);
  }
  std::filesystem::remove_all(dir);
  return 0;
}

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) { return tbm::Run(argc, argv); }
