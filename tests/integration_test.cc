// End-to-end reproduction of the paper's §4.3 composition example
// (Figure 4) and the Figure 5 layering, exercised through the database
// API: capture → interpretation → derivation → composition.
#include <gtest/gtest.h>

#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "codec/tmpeg.h"
#include "db/database.h"
#include "interp/capture.h"
#include "interp/index.h"
#include "interp/streaming.h"
#include "stream/category.h"

namespace tbm {
namespace {

constexpr int kW = 48, kH = 32;

// Builds the paper's raw material:
//  - audio1 (music) and audio2 (narration) interleaved in one BLOB;
//  - video1 and video2 (two shots from "a single capture") in another.
struct RawMaterial {
  ObjectId audio1, audio2, video1, video2;
};

RawMaterial BuildRawMaterial(MediaDatabase* db) {
  RawMaterial out{};
  // --- Audio BLOB: music and narration interleaved.
  AudioBuffer music = audiogen::Sine(8000, 1, 330.0, 0.4, 4.0);
  AudioBuffer narration = audiogen::Narration(8000, 1, 3.0, 5);
  auto session = CaptureSession::Begin(db->blob_store());
  EXPECT_TRUE(session.ok());
  MediaDescriptor audio_desc;
  audio_desc.type_name = "audio/pcm-block";
  audio_desc.kind = MediaKind::kAudio;
  audio_desc.attrs.SetInt("sample rate", 8000);
  audio_desc.attrs.SetInt("sample size", 16);
  audio_desc.attrs.SetInt("number of channels", 1);
  audio_desc.attrs.SetString("encoding", "PCM");
  auto h1 = session->DeclareObject("audio1", audio_desc, TimeSystem(8000));
  auto h2 = session->DeclareObject("audio2", audio_desc, TimeSystem(8000));
  EXPECT_TRUE(h1.ok() && h2.ok());
  // Interleave in 0.5 s blocks.
  const int64_t block = 4000;
  for (int64_t f = 0; f < 32000; f += block) {
    Bytes music_bytes(block * 2);
    for (int64_t i = 0; i < block; ++i) {
      uint16_t u = static_cast<uint16_t>(music.samples[f + i]);
      music_bytes[2 * i] = static_cast<uint8_t>(u);
      music_bytes[2 * i + 1] = static_cast<uint8_t>(u >> 8);
    }
    EXPECT_TRUE(session->CaptureContiguous(*h1, music_bytes, block).ok());
    if (f < 24000) {
      Bytes narration_bytes(block * 2);
      for (int64_t i = 0; i < block; ++i) {
        uint16_t u = static_cast<uint16_t>(narration.samples[f + i]);
        narration_bytes[2 * i] = static_cast<uint8_t>(u);
        narration_bytes[2 * i + 1] = static_cast<uint8_t>(u >> 8);
      }
      EXPECT_TRUE(
          session->CaptureContiguous(*h2, narration_bytes, block).ok());
    }
  }
  auto audio_interp = session->Finish();
  EXPECT_TRUE(audio_interp.ok());
  auto audio_interp_id = db->AddInterpretation("audio_blob_interp",
                                               *audio_interp);
  EXPECT_TRUE(audio_interp_id.ok());
  out.audio1 = *db->AddMediaObject("audio1", *audio_interp_id, "audio1");
  out.audio2 = *db->AddMediaObject("audio2", *audio_interp_id, "audio2");

  // --- Video BLOB: two shots from a single digitization.
  auto vsession = CaptureSession::Begin(db->blob_store());
  EXPECT_TRUE(vsession.ok());
  MediaDescriptor video_desc;
  video_desc.type_name = "video/raw";
  video_desc.kind = MediaKind::kVideo;
  video_desc.attrs.SetRational("frame rate", Rational(25));
  video_desc.attrs.SetInt("frame width", kW);
  video_desc.attrs.SetInt("frame height", kH);
  video_desc.attrs.SetInt("frame depth", 24);
  video_desc.attrs.SetString("color model", "RGB");
  auto v1 = vsession->DeclareObject("video1", video_desc, TimeSystem(25));
  auto v2 = vsession->DeclareObject("video2", video_desc, TimeSystem(25));
  EXPECT_TRUE(v1.ok() && v2.ok());
  for (int i = 0; i < 50; ++i) {  // Shot 1: 2 s.
    EXPECT_TRUE(
        vsession->CaptureContiguous(*v1, videogen::Frame(kW, kH, i, 100).data, 1)
            .ok());
  }
  for (int i = 0; i < 50; ++i) {  // Shot 2: different scene.
    EXPECT_TRUE(
        vsession->CaptureContiguous(*v2, videogen::Frame(kW, kH, i, 200).data, 1)
            .ok());
  }
  auto video_interp = vsession->Finish();
  EXPECT_TRUE(video_interp.ok());
  auto video_interp_id =
      db->AddInterpretation("video_blob_interp", *video_interp);
  EXPECT_TRUE(video_interp_id.ok());
  out.video1 = *db->AddMediaObject("video1", *video_interp_id, "video1");
  out.video2 = *db->AddMediaObject("video2", *video_interp_id, "video2");
  return out;
}

TEST(Figure4Test, FullCompositionScenario) {
  auto db = MediaDatabase::CreateInMemory();
  RawMaterial raw = BuildRawMaterial(db.get());

  // Step 1 (paper): derive a fade from video1 to video2.
  // First cut the shots, then fade between them.
  AttrMap cut1_params;
  cut1_params.SetInt("start frame", 0);
  cut1_params.SetInt("frame count", 40);
  auto cut1 = db->AddDerivedObject("cut1", "video edit", {raw.video1},
                                   cut1_params);
  ASSERT_TRUE(cut1.ok());
  AttrMap cut2_params;
  cut2_params.SetInt("start frame", 10);
  cut2_params.SetInt("frame count", 40);
  auto cut2 = db->AddDerivedObject("cut2", "video edit", {raw.video2},
                                   cut2_params);
  ASSERT_TRUE(cut2.ok());

  AttrMap fade_params;
  fade_params.SetString("kind", "fade");
  fade_params.SetInt("duration frames", 10);
  auto fade = db->AddDerivedObject("fade", "video transition",
                                   {*cut1, *cut2}, fade_params);
  ASSERT_TRUE(fade.ok());

  // The fade IS video3 (A-head + blend + B-tail): 30 + 10 + 30 frames.
  auto video3_value = db->Materialize(*fade);
  ASSERT_TRUE(video3_value.ok()) << video3_value.status();
  const VideoValue& video3 = std::get<VideoValue>(*video3_value);
  EXPECT_EQ(video3.frames.size(), 70u);

  // Step 2: temporal composition into multimedia object m.
  std::vector<StoredComponent> components;
  components.push_back({"c1", raw.audio1, Rational(0), std::nullopt});
  components.push_back({"c2", raw.audio2, Rational(1), std::nullopt});
  components.push_back({"c3", *fade, Rational(0), std::nullopt});
  auto m = db->AddMultimediaObject("m", components);
  ASSERT_TRUE(m.ok());

  auto view = db->Compose(*m);
  ASSERT_TRUE(view.ok()) << view.status();
  auto timeline = (*view)->object.Timeline();
  ASSERT_TRUE(timeline.ok());
  ASSERT_EQ(timeline->size(), 3u);

  // Timeline shape (paper Figure 4b): audio1 spans the whole piece;
  // audio2 starts later and ends together with it — Allen "finishes"
  // (narration [1 s, 4 s] inside music [0 s, 4 s]).
  auto relation = (*view)->object.RelationBetween("c2", "c1");
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(*relation, IntervalRelation::kFinishes);

  // Durations: music 4 s, narration 3 s at offset 1 s, video 70/25 s.
  auto duration = (*view)->object.Duration();
  ASSERT_TRUE(duration.ok());
  EXPECT_EQ(*duration, Rational(4));

  // Audible mixdown and visible frame both render.
  auto mix = (*view)->object.MixAudio(8000, 1);
  ASSERT_TRUE(mix.ok());
  EXPECT_EQ(mix->FrameCount(), 4 * 8000);
  EXPECT_GT(RmsAmplitude(*mix), 100.0);
  auto frame = (*view)->object.RenderFrameAt(1.5, kW, kH);
  ASSERT_TRUE(frame.ok());

  // ASCII instance diagram materials exist.
  auto ascii = (*view)->object.RenderTimelineAscii();
  ASSERT_TRUE(ascii.ok());
  EXPECT_NE(ascii->find("audio1"), std::string::npos);
  EXPECT_NE(ascii->find("audio2"), std::string::npos);
  EXPECT_NE(ascii->find("fade"), std::string::npos);

  // Storage economics (paper §4.2): the four derivation objects
  // (cut1, cut2, fade) are tiny next to the expanded video3.
  auto record = db->DerivationRecordBytes(*fade);
  ASSERT_TRUE(record.ok());
  EXPECT_LT(*record * 1000, ExpandedBytes(*video3_value));
}

TEST(Figure5Test, LayeringBlobToMultimedia) {
  // BLOB -> interpretation -> non-derived media objects -> derived
  // media objects -> temporal composition -> multimedia object.
  auto db = MediaDatabase::CreateInMemory();
  RawMaterial raw = BuildRawMaterial(db.get());

  // Layer checks, bottom-up.
  // 1. The BLOB is an uninterpreted byte sequence.
  auto video1_entry = db->Get(raw.video1);
  ASSERT_TRUE(video1_entry.ok());
  auto interp_entry = db->Get((*video1_entry)->interpretation_ref);
  ASSERT_TRUE(interp_entry.ok());
  BlobId blob = (*interp_entry)->interpretation.blob();
  auto blob_size = db->blob_store()->Size(blob);
  ASSERT_TRUE(blob_size.ok());
  EXPECT_EQ(*blob_size, 100u * kW * kH * 3);  // 100 raw frames.

  // 2. Interpretation exposes two media objects over that one BLOB.
  EXPECT_EQ((*interp_entry)->interpretation.objects().size(), 2u);

  // 3. Non-derived media objects materialize as categorized streams.
  auto stream = db->MaterializeStream(raw.video1);
  ASSERT_TRUE(stream.ok());
  StreamCategories cats = Classify(*stream);
  EXPECT_TRUE(cats.uniform);  // Raw video: constant size and duration.
  EXPECT_TRUE(cats.homogeneous);

  // 4. A derived media object on top.
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 10);
  auto cut = db->AddDerivedObject("cut", "video edit", {raw.video1}, params);
  ASSERT_TRUE(cut.ok());

  // 5. Composition at the top.
  std::vector<StoredComponent> components;
  components.push_back({"c1", *cut, Rational(0), std::nullopt});
  components.push_back({"c2", raw.audio1, Rational(0), std::nullopt});
  auto m = db->AddMultimediaObject("pyramid", components);
  ASSERT_TRUE(m.ok());
  auto view = db->Compose(*m);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->object.components().size(), 2u);
  auto duration = (*view)->object.Duration();
  ASSERT_TRUE(duration.ok());
  EXPECT_EQ(*duration, Rational(4));  // Music is the longest component.
}

TEST(ScalabilityTest, KeysOnlyReadTouchesFewerBytes) {
  // Paper §2.2 scalability: present at reduced fidelity while reading
  // only part of the storage. TMPEG keys-only decode via the sync
  // index.
  auto db = MediaDatabase::CreateInMemory();
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(kW, kH, 24, 7);
  StoreOptions options;
  options.video_codec = "tmpeg";
  options.key_interval = 8;
  auto interp = StoreValue(db->blob_store(), video, "clip", options);
  ASSERT_TRUE(interp.ok()) << interp.status();
  auto object = interp->FindObject("clip");
  ASSERT_TRUE(object.ok());

  CompactElementIndex index = CompactElementIndex::Build(**object);
  EXPECT_EQ(index.sync_elements().size(), 3u);  // Keys at 0, 8, 16.

  uint64_t key_bytes = 0;
  for (int64_t key : index.sync_elements()) {
    key_bytes += (*index.PlacementOf(key)).length;
  }
  uint64_t total_bytes = (*object)->PayloadBytes();
  EXPECT_LT(key_bytes, total_bytes);

  // The keys really decode without touching delta bytes.
  auto full = MaterializeStreamed(*db->blob_store(), *interp, "clip");
  ASSERT_TRUE(full.ok());
  std::vector<TmpegFrame> key_frames;
  for (int64_t key : index.sync_elements()) {
    auto frame = TmpegParseFrame(full->at(key).data);
    ASSERT_TRUE(frame.ok());
    key_frames.push_back(std::move(*frame));
  }
  auto decoded = TmpegDecodeKeysOnly(key_frames);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 3u);
  EXPECT_GT(*Psnr(video.frames[8], (*decoded)[1].second), 20.0);
}

TEST(OutOfOrderTest, BidirectionalStorageThroughInterpretation) {
  // Paper §2.2 out-of-order elements: "the placement order could be
  // 1,4,2,3". Store bidirectional TMPEG through the bridge and verify
  // that element (presentation) order differs from byte (placement)
  // order, yet materialization and decode recover presentation order.
  auto db = MediaDatabase::CreateInMemory();
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(kW, kH, 8, 3);
  StoreOptions options;
  options.video_codec = "tmpeg";
  options.key_interval = 7;  // Keys at 0 and 7; B frames between.
  options.bidirectional = true;
  auto interp = StoreValue(db->blob_store(), video, "clip", options);
  ASSERT_TRUE(interp.ok()) << interp.status();
  auto object = interp->FindObject("clip");
  ASSERT_TRUE(object.ok());
  const auto& elements = (*object)->elements;
  ASSERT_EQ(elements.size(), 8u);
  // Element 7 (the second key) is stored BEFORE element 1 in the BLOB.
  EXPECT_LT(elements[7].placement.offset, elements[1].placement.offset);
  // Element table itself is in presentation order.
  for (size_t i = 0; i < elements.size(); ++i) {
    EXPECT_EQ(elements[i].start, static_cast<int64_t>(i));
  }
  // Decode through the bridge recovers presentation order.
  auto stream = MaterializeStreamed(*db->blob_store(), *interp, "clip");
  ASSERT_TRUE(stream.ok());
  auto value = DecodeStream(*stream);
  ASSERT_TRUE(value.ok()) << value.status();
  const VideoValue& decoded = std::get<VideoValue>(*value);
  ASSERT_EQ(decoded.frames.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_GT(*Psnr(video.frames[i], decoded.frames[i]), 20.0) << i;
  }
}

TEST(BridgeTest, AllValueKindsRoundTripThroughStorage) {
  auto db = MediaDatabase::CreateInMemory();
  // Audio.
  {
    MediaValue value = audiogen::Sine(8000, 2, 440, 0.5, 0.5);
    auto interp = StoreValue(db->blob_store(), value, "a");
    ASSERT_TRUE(interp.ok());
    auto stream = MaterializeStreamed(*db->blob_store(), *interp, "a");
    ASSERT_TRUE(stream.ok());
    auto back = DecodeStream(*stream);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::get<AudioBuffer>(*back).samples,
              std::get<AudioBuffer>(value).samples);
  }
  // Image (TJPEG, lossy).
  {
    MediaValue value = videogen::Still(64, 48, 5);
    auto interp = StoreValue(db->blob_store(), value, "i");
    ASSERT_TRUE(interp.ok());
    auto stream = MaterializeStreamed(*db->blob_store(), *interp, "i");
    ASSERT_TRUE(stream.ok());
    auto back = DecodeStream(*stream);
    ASSERT_TRUE(back.ok());
    EXPECT_GT(*Psnr(std::get<Image>(value), std::get<Image>(*back)), 25.0);
  }
  // MIDI (lossless).
  {
    MidiSequence seq(480, 120.0);
    ASSERT_TRUE(seq.AddNote(0, 480, 60).ok());
    ASSERT_TRUE(seq.AddNote(480, 480, 64).ok());
    MediaValue value = seq;
    auto interp = StoreValue(db->blob_store(), value, "midi");
    ASSERT_TRUE(interp.ok());
    auto stream = MaterializeStreamed(*db->blob_store(), *interp, "midi");
    ASSERT_TRUE(stream.ok());
    auto back = DecodeStream(*stream);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::get<MidiSequence>(*back).events(), seq.events());
  }
  // Animation scene (lossless).
  {
    AnimationScene scene(64, 48, Rational(25));
    SceneObject ball;
    ball.id = 1;
    ASSERT_TRUE(scene.AddObject(ball).ok());
    ASSERT_TRUE(scene.AddMovement({0, 10, 1, 30, 30}).ok());
    MediaValue value = scene;
    auto interp = StoreValue(db->blob_store(), value, "anim");
    ASSERT_TRUE(interp.ok());
    auto stream = MaterializeStreamed(*db->blob_store(), *interp, "anim");
    ASSERT_TRUE(stream.ok());
    auto back = DecodeStream(*stream);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::get<AnimationScene>(*back).movements().size(), 1u);
  }
  // Raw video (lossless).
  {
    VideoValue video;
    video.frame_rate = Rational(25);
    video.frames = videogen::Clip(32, 24, 5, 2);
    MediaValue value = video;
    StoreOptions options;
    options.video_codec = "raw";
    auto interp = StoreValue(db->blob_store(), value, "v", options);
    ASSERT_TRUE(interp.ok());
    auto stream = MaterializeStreamed(*db->blob_store(), *interp, "v");
    ASSERT_TRUE(stream.ok());
    auto back = DecodeStream(*stream);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::get<VideoValue>(*back).frames[3].data,
              video.frames[3].data);
  }
}

}  // namespace
}  // namespace tbm
