// The paper's introduction scenario: "consider a digital movie with
// audio tracks in different languages. If the movie is represented
// structurally, rather than as a long uninterpreted byte sequence, it
// is possible to issue queries which select a specific sound track, or
// select a specific duration, or perhaps retrieve frames at a specific
// visual fidelity."
#include <cstdio>

#include "tbm.h"

using namespace tbm;

namespace {

#define UNWRAP(var, expr)                                                  \
  auto var##_result = (expr);                                              \
  if (!var##_result.ok()) {                                                \
    std::fprintf(stderr, "error: %s\n",                                    \
                 var##_result.status().ToString().c_str());                \
    return 1;                                                              \
  }                                                                        \
  auto& var = *var##_result

constexpr int kW = 320, kH = 240;
constexpr int64_t kFrames = 75;  // 3 seconds at 25 fps.

}  // namespace

int main() {
  std::unique_ptr<MediaDatabase> db = MediaDatabase::CreateInMemory();

  // --- Ingest one movie with three language tracks, all interleaved in
  // --- a single BLOB frame-by-frame.
  UNWRAP(session, CaptureSession::Begin(db->blob_store()));

  MediaDescriptor video_desc;
  video_desc.type_name = "video/tjpeg";
  video_desc.kind = MediaKind::kVideo;
  video_desc.attrs.SetRational("frame rate", Rational(25));
  video_desc.attrs.SetInt("frame width", kW);
  video_desc.attrs.SetInt("frame height", kH);
  video_desc.attrs.SetInt("frame depth", 24);
  video_desc.attrs.SetString("color model", "RGB");
  video_desc.attrs.SetString("encoding", "YUV 4:2:0, TJPEG");
  video_desc.attrs.SetString("quality factor", "VHS quality");
  UNWRAP(video_handle,
         session.DeclareObject("video", video_desc, TimeSystem(25)));

  const char* languages[] = {"English", "German", "French"};
  MediaDescriptor audio_desc;
  audio_desc.type_name = "audio/pcm-block";
  audio_desc.kind = MediaKind::kAudio;
  audio_desc.attrs.SetInt("sample rate", 22050);
  audio_desc.attrs.SetInt("sample size", 16);
  audio_desc.attrs.SetInt("number of channels", 1);
  audio_desc.attrs.SetString("encoding", "PCM");
  size_t track_handles[3];
  AudioBuffer tracks[3];
  for (int t = 0; t < 3; ++t) {
    UNWRAP(handle,
           session.DeclareObject(std::string("audio_") + languages[t],
                                 audio_desc, TimeSystem(22050)));
    track_handles[t] = handle;
    tracks[t] = audiogen::Narration(22050, 1, kFrames / 25.0 + 0.1,
                                    1000 + t);
  }

  for (int64_t f = 0; f < kFrames; ++f) {
    Image frame = videogen::Frame(kW, kH, f, 7);
    UNWRAP(encoded, TjpegEncode(frame, 50));
    if (auto s = session.CaptureContiguous(video_handle, encoded, 1);
        !s.ok()) {
      std::fprintf(stderr, "capture: %s\n", s.ToString().c_str());
      return 1;
    }
    // 882 samples of each language track follow the frame.
    const int64_t a0 = f * 22050 / 25, a1 = (f + 1) * 22050 / 25;
    for (int t = 0; t < 3; ++t) {
      Bytes block((a1 - a0) * 2);
      for (int64_t i = 0; i < a1 - a0; ++i) {
        uint16_t u = static_cast<uint16_t>(tracks[t].samples[a0 + i]);
        block[2 * i] = static_cast<uint8_t>(u);
        block[2 * i + 1] = static_cast<uint8_t>(u >> 8);
      }
      if (auto s = session.CaptureContiguous(track_handles[t], block,
                                             a1 - a0);
          !s.ok()) {
        std::fprintf(stderr, "capture: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  UNWRAP(interp, session.Finish());
  UNWRAP(blob_size, db->blob_store()->Size(interp.blob()));
  std::printf("movie BLOB: %s holding 1 video + 3 audio tracks\n",
              HumanBytes(blob_size).c_str());

  UNWRAP(interp_id, db->AddInterpretation("movie_interp", interp));
  UNWRAP(video_id, db->AddMediaObject("movie_video", interp_id, "video"));
  for (int t = 0; t < 3; ++t) {
    AttrMap attrs;
    attrs.SetString("language", languages[t]);
    UNWRAP(track_id,
           db->AddMediaObject(std::string("movie_audio_") + languages[t],
                              interp_id, std::string("audio_") + languages[t],
                              attrs));
    (void)track_id;
  }
  AttrMap movie_attrs;
  movie_attrs.SetString("title", "Der Film");
  movie_attrs.SetString("director", "S. Gibbs");
  UNWRAP(movie, db->AddEntity("movie", movie_attrs));
  if (auto s = db->SetMediaAttr(movie, "content", video_id); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // --- Query 1: select a specific sound track --------------------------------
  std::printf("\nQ1: select the German sound track\n");
  auto hits = db->SelectByAttr("language", AttrValue(std::string("German")));
  for (ObjectId id : hits) {
    UNWRAP(entry, db->Get(id));
    UNWRAP(stream, db->MaterializeStream(id));
    std::printf("  -> %s: %zu elements, %.2f s, %s\n", entry->name.c_str(),
                stream.size(), stream.DurationSeconds().ToDouble(),
                HumanBytes(stream.TotalBytes()).c_str());
  }

  // --- Query 2: select a specific duration -----------------------------------
  std::printf("\nQ2: select seconds [1.0, 2.0) of the video\n");
  UNWRAP(span, db->MaterializeStream(video_id, TickSpan{25, 25}));
  std::printf("  -> %zu frames materialized (of %lld), first start = %lld\n",
              span.size(), (long long)kFrames, (long long)span.at(0).start);

  // --- Query 3: retrieve frames at a specific visual fidelity ----------------
  std::printf("\nQ3: retrieve frames at reduced fidelity (keys only)\n");
  {
    // Store an interframe-coded rendition and read only its sync
    // (key) elements through the compact index.
    VideoValue rendition;
    rendition.frame_rate = Rational(25);
    rendition.frames = videogen::Clip(kW, kH, 24, 7);
    StoreOptions options;
    options.video_codec = "tmpeg";
    options.key_interval = 8;
    UNWRAP(scalable,
           StoreValue(db->blob_store(), rendition, "rendition", options));
    UNWRAP(object, scalable.FindObject("rendition"));
    CompactElementIndex index = CompactElementIndex::Build(*object);
    uint64_t key_bytes = 0;
    std::vector<TmpegFrame> keys;
    for (int64_t key : index.sync_elements()) {
      UNWRAP(element,
             scalable.ReadElement(*db->blob_store(), "rendition", key));
      key_bytes += element.data.size();
      UNWRAP(parsed, TmpegParseFrame(element.data));
      keys.push_back(std::move(parsed));
    }
    UNWRAP(decoded, TmpegDecodeKeysOnly(keys));
    std::printf(
        "  -> %zu key frames decoded, reading %s of %s (%.0f%% of bytes)\n",
        decoded.size(), HumanBytes(key_bytes).c_str(),
        HumanBytes(object->PayloadBytes()).c_str(),
        100.0 * key_bytes / object->PayloadBytes());
  }

  // --- Subtitles: timed text per language, burned in on demand ----------------
  std::printf("\nSubtitles: caption track + burn-in derivation\n");
  {
    CaptionTrack subtitles(TimeSystem(25));
    if (auto s = subtitles.Add(5, 30, "GUTEN TAG"); !s.ok()) return 1;
    if (auto s = subtitles.Add(45, 25, "AUF WIEDERSEHEN"); !s.ok()) return 1;
    UNWRAP(subtitle_stream, subtitles.ToTimedStream());
    UNWRAP(subtitle_interp,
           StoreValue(db->blob_store(), MediaValue(subtitle_stream),
                      "subtitles_de"));
    UNWRAP(subtitle_interp_id,
           db->AddInterpretation("subtitles_de_interp", subtitle_interp));
    UNWRAP(subtitle_id, db->AddMediaObject("subtitles_de", subtitle_interp_id,
                                           "subtitles_de"));
    AttrMap burn_params;
    burn_params.SetInt("scale", 2);
    UNWRAP(burned, db->AddDerivedObject("movie_subtitled", "caption burn-in",
                                        {video_id, subtitle_id}, burn_params));
    UNWRAP(burned_value, db->Materialize(burned));
    const VideoValue& subtitled = std::get<VideoValue>(burned_value);
    std::printf("  burned %zu frames; exporting a subtitled poster frame\n",
                subtitled.frames.size());
    // Export one subtitled frame for external viewing.
    if (auto s = WritePnm(subtitled.frames[10], "/tmp/movie_subtitled.ppm");
        s.ok()) {
      std::printf("  wrote /tmp/movie_subtitled.ppm\n");
    }
  }

  // --- Indexed queries ---------------------------------------------------------
  if (auto s = db->CreateAttrIndex("language"); !s.ok()) return 1;
  auto indexed = db->SelectByAttr("language", AttrValue(std::string("French")));
  std::printf("\nindexed language query: %zu hit(s)\n", indexed.size());

  // --- Entity-level query -----------------------------------------------------
  std::printf("\nQ4: the movie entity and its media-valued attribute\n");
  UNWRAP(content, db->GetMediaAttr(movie, "content"));
  UNWRAP(content_entry, db->Get(content));
  std::printf("  movie \"Der Film\" content -> %s\n",
              content_entry->name.c_str());

  std::printf("\nmultilingual_movie OK\n");
  return 0;
}
