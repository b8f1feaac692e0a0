// Quickstart: create a database, capture synthetic audio/video into an
// interleaved BLOB with its interpretation, register the media objects,
// query a descriptor, and "play" (simulate presentation of) the result.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "tbm.h"

using namespace tbm;

namespace {

#define DIE_IF(expr)                                              \
  do {                                                            \
    if (auto s = (expr); !s.ok()) {                               \
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str()); \
      return 1;                                                   \
    }                                                             \
  } while (false)

#define UNWRAP(var, expr)                                                  \
  auto var##_result = (expr);                                              \
  if (!var##_result.ok()) {                                                \
    std::fprintf(stderr, "error: %s\n",                                    \
                 var##_result.status().ToString().c_str());                \
    return 1;                                                              \
  }                                                                        \
  auto& var = *var##_result

}  // namespace

int main() {
  // 1. An in-memory database (use MediaDatabase::Open(dir) to persist).
  std::unique_ptr<MediaDatabase> db = MediaDatabase::CreateInMemory();

  // 2. "Capture hardware": 2 seconds of synthetic PAL-style video plus
  //    a stereo CD-quality tone.
  std::vector<Image> frames = videogen::Clip(320, 240, 50, /*scene_id=*/42);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 2.1);

  // 3. Digitize into one interleaved BLOB. The interpretation — which
  //    byte ranges are which elements of which media objects — is built
  //    alongside and permanently associated with the BLOB.
  AvCaptureConfig config;
  config.video_quality = "VHS quality";  // Descriptive quality factor.
  UNWRAP(capture,
         CaptureInterleavedAv(db->blob_store(), frames, audio, config));
  std::printf("captured BLOB %llu: raw video %s -> encoded %s\n",
              (unsigned long long)capture.blob,
              HumanBytes(capture.raw_video_bytes).c_str(),
              HumanBytes(capture.encoded_video_bytes).c_str());

  // 4. Register in the catalog.
  UNWRAP(interp_id, db->AddInterpretation("clip_interp",
                                          capture.interpretation));
  UNWRAP(video_id, db->AddMediaObject("clip_video", interp_id, "video1"));
  UNWRAP(audio_id, db->AddMediaObject("clip_audio", interp_id, "audio1"));

  // 5. Inspect the video's media descriptor and stream category.
  UNWRAP(video_stream, db->MaterializeStream(video_id));
  std::printf("\n%s\n", video_stream.descriptor().ToString("clip_video").c_str());
  std::printf("category: %s\n", Classify(video_stream).ToString().c_str());
  std::printf("span: %lld frames, %.2f s, mean rate %s\n",
              (long long)video_stream.size(),
              video_stream.DurationSeconds().ToDouble(),
              HumanRate(video_stream.MeanDataRate()).c_str());

  // 6. A structural query: frames [10, 20) only — no full-BLOB read.
  UNWRAP(span, db->MaterializeStream(video_id, TickSpan{10, 10}));
  std::printf("\nduration query: materialized %zu of %zu elements\n",
              span.size(), video_stream.size());

  // 7. "Play": simulate synchronized presentation of both streams and
  //    report timing (this is what a BLOB without interpretation cannot
  //    do — it has no notion of deadlines).
  UNWRAP(audio_stream, db->MaterializeStream(audio_id));
  PlaybackConfig playback;
  playback.seconds_per_megabyte = 0.01;
  playback.buffer_delay_ms = 5.0;
  UNWRAP(report, SimulatePlayback({&video_stream, &audio_stream}, playback));
  std::printf(
      "play: %lld elements, %lld deadline misses, max A/V skew %.1f us\n",
      (long long)report.total_elements, (long long)report.total_misses,
      report.max_sync_skew_us);

  std::printf("\nquickstart OK\n");
  return 0;
}
