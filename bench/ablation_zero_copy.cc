// Zero-copy buffer-sharing ablation: the acceptance check for the
// ref-counted Buffer/BufferSlice ownership refactor. A timing-only
// derivation program (edit → reverse → 4x slow-motion) is run over a
// decoded clip two ways:
//
//  - deep-copy:  every step materializes owned pixel vectors, the
//                pre-refactor ownership model (emulated here with
//                MutableCopy at each frame hand-off);
//  - zero-copy:  the shipped operator path, where timing-only steps
//                re-arrange BufferSlices over the source's buffers and
//                no pixel is copied.
//
// Besides wall time, the run reports the memory story the paper's
// storage argument (Table 1) depends on: the derived program's
// logical bytes (every frame counted at full size) against its
// resident bytes (unique backing buffers only), and the cache charge
// for inserting source + view under deduplicated accounting.
//
// Prints a JSON object; `-o <file>` also writes it to a file (the
// committed BENCH_zero_copy.json at the repo root is one such run).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "codec/synthetic.h"
#include "derive/cache.h"
#include "derive/operators.h"
#include "derive/value.h"

namespace tbm {
namespace {

using bench::ValueOrDie;

constexpr int kFrames = 192;
constexpr int kWidth = 320;
constexpr int kHeight = 240;
constexpr int kRepetitions = 5;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const DerivationRegistry& Reg() { return DerivationRegistry::Builtin(); }

MediaValue MakeClip() {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(kWidth, kHeight, kFrames, 5);
  return video;
}

/// Forces every frame of `video` onto a freshly owned buffer — the
/// pre-refactor cost of handing a value across an ownership boundary.
VideoValue DeepCopy(const VideoValue& video) {
  VideoValue out;
  out.frame_rate = video.frame_rate;
  out.frames.reserve(video.frames.size());
  for (const Image& frame : video.frames) {
    Image copy = frame;
    copy.data = frame.data.MutableCopy();
    out.frames.push_back(std::move(copy));
  }
  return out;
}

/// The timing-only program: edit out a span, reverse it, slow it 4x.
MediaValue RunProgram(const MediaValue& source, bool deep_copy) {
  AttrMap edit_params;
  edit_params.SetInt("start frame", kFrames / 8);
  edit_params.SetInt("frame count", 3 * kFrames / 4);
  MediaValue edited =
      ValueOrDie(Reg().Apply("video edit", {&source}, edit_params), "edit");
  if (deep_copy) edited = DeepCopy(std::get<VideoValue>(edited));
  MediaValue reversed =
      ValueOrDie(Reg().Apply("video reverse", {&edited}, AttrMap{}), "rev");
  if (deep_copy) reversed = DeepCopy(std::get<VideoValue>(reversed));
  AttrMap speed_params;
  speed_params.SetInt("speed num", 1);
  speed_params.SetInt("speed den", 4);
  MediaValue slowed =
      ValueOrDie(Reg().Apply("video speed", {&reversed}, speed_params), "spd");
  if (deep_copy) slowed = DeepCopy(std::get<VideoValue>(slowed));
  return slowed;
}

double MeasureMs(const MediaValue& source, bool deep_copy) {
  double best = 1e300;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    double start = NowMs();
    MediaValue result = RunProgram(source, deep_copy);
    if (std::get<VideoValue>(result).frames.empty()) std::abort();
    best = std::min(best, NowMs() - start);
  }
  return best;
}

int Run(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) out_path = argv[i + 1];
  }

  MediaValue source = MakeClip();
  uint64_t source_bytes = ExpandedBytes(source);

  double copy_ms = MeasureMs(source, /*deep_copy=*/true);
  double share_ms = MeasureMs(source, /*deep_copy=*/false);
  double speedup = share_ms > 0 ? copy_ms / share_ms : 0.0;

  MediaValue derived = RunProgram(source, /*deep_copy=*/false);
  uint64_t logical = ExpandedBytes(derived);
  uint64_t resident = ResidentBytes(derived);

  // Deduplicated cache accounting: caching the 4x-expanded view next
  // to its source charges (nearly) nothing beyond the source.
  ExpansionCache cache(1ull << 30);
  cache.Insert(1, std::make_shared<const MediaValue>(source), source_bytes,
               0.01);
  uint64_t charge_before = cache.stats().bytes_cached;
  cache.Insert(2, std::make_shared<const MediaValue>(std::move(derived)),
               logical, 0.01);
  uint64_t view_charge = cache.stats().bytes_cached - charge_before;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"ablation_zero_copy\",\n"
      " \"workload\": \"%dx%d RGB clip, %d frames; edit + reverse + 4x "
      "slow-motion (timing-only)\",\n"
      " \"deep_copy_ms\": %.2f,\n"
      " \"zero_copy_ms\": %.2f,\n"
      " \"speedup\": %.1f,\n"
      " \"derived_logical_bytes\": %llu,\n"
      " \"derived_resident_bytes\": %llu,\n"
      " \"logical_over_resident\": %.2f,\n"
      " \"cache_charge_source\": %llu,\n"
      " \"cache_charge_view\": %llu}\n",
      kWidth, kHeight, kFrames, copy_ms, share_ms, speedup,
      (unsigned long long)logical, (unsigned long long)resident,
      resident > 0 ? (double)logical / (double)resident : 0.0,
      (unsigned long long)charge_before, (unsigned long long)view_charge);
  std::printf("%s", json);
  if (speedup < 5.0) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: speedup %.1fx < 5x\n", speedup);
    return 1;
  }
  if (resident >= logical) {
    std::fprintf(stderr,
                 "ACCEPTANCE FAILURE: resident %llu >= logical %llu\n",
                 (unsigned long long)resident, (unsigned long long)logical);
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
  return 0;
}

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) { return tbm::Run(argc, argv); }
