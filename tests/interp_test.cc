#include <gtest/gtest.h>

#include "blob/memory_store.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "interp/av_capture.h"
#include "interp/capture.h"
#include "interp/index.h"
#include "interp/interpretation.h"
#include "interp/streaming.h"

namespace tbm {
namespace {

Bytes Data(size_t n, uint8_t fill) { return Bytes(n, fill); }

MediaDescriptor VideoDescriptor() {
  MediaDescriptor desc;
  desc.type_name = "video/tjpeg";
  desc.kind = MediaKind::kVideo;
  desc.attrs.SetRational("frame rate", Rational(25));
  desc.attrs.SetInt("frame width", 64);
  desc.attrs.SetInt("frame height", 48);
  desc.attrs.SetInt("frame depth", 24);
  desc.attrs.SetString("color model", "RGB");
  desc.attrs.SetString("encoding", "YUV 4:2:0, TJPEG");
  return desc;
}

// ---------------------------------------------------------------------------
// Interpretation structure (Definition 5)

TEST(InterpretationTest, AddObjectValidatesElementTable) {
  Interpretation interp(1);
  InterpretedObject object;
  object.name = "video1";
  object.descriptor = VideoDescriptor();
  object.time_system = TimeSystem(25);
  object.elements.push_back({0, 0, 1, ByteRange{0, 10}, {}});
  object.elements.push_back({1, 1, 1, ByteRange{10, 10}, {}});
  EXPECT_TRUE(interp.AddObject(object).ok());
  // Duplicate name.
  EXPECT_TRUE(interp.AddObject(object).IsAlreadyExists());
  // Bad element numbering.
  InterpretedObject bad = object;
  bad.name = "video2";
  bad.elements[1].element_number = 5;
  EXPECT_TRUE(interp.AddObject(bad).IsInvalidArgument());
  // Decreasing starts.
  bad = object;
  bad.name = "video3";
  bad.elements[1].start = -1;
  EXPECT_TRUE(interp.AddObject(bad).IsInvalidArgument());
}

TEST(InterpretationTest, ValidateAgainstBlobSize) {
  Interpretation interp(1);
  InterpretedObject object;
  object.name = "x";
  object.descriptor = VideoDescriptor();
  object.time_system = TimeSystem(25);
  object.elements.push_back({0, 0, 1, ByteRange{90, 20}, {}});
  ASSERT_TRUE(interp.AddObject(object).ok());
  EXPECT_TRUE(interp.ValidateAgainstBlobSize(200).ok());
  EXPECT_TRUE(interp.ValidateAgainstBlobSize(100).IsOutOfRange());
}

TEST(InterpretationTest, FindObject) {
  Interpretation interp(1);
  InterpretedObject object;
  object.name = "audio1";
  object.descriptor = VideoDescriptor();
  ASSERT_TRUE(interp.AddObject(object).ok());
  EXPECT_TRUE(interp.FindObject("audio1").ok());
  EXPECT_TRUE(interp.FindObject("audio2").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Capture + materialization

TEST(CaptureTest, InterleavedCaptureRoundTrip) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());

  auto video = session->DeclareObject("video1", VideoDescriptor(),
                                      TimeSystem(25));
  ASSERT_TRUE(video.ok());
  MediaDescriptor audio_desc;
  audio_desc.type_name = "audio/pcm-block";
  audio_desc.kind = MediaKind::kAudio;
  audio_desc.attrs.SetInt("sample rate", 44100);
  audio_desc.attrs.SetInt("sample size", 16);
  audio_desc.attrs.SetInt("number of channels", 2);
  audio_desc.attrs.SetString("encoding", "PCM");
  auto audio = session->DeclareObject("audio1", audio_desc,
                                      TimeSystem(44100));
  ASSERT_TRUE(audio.ok());

  // Interleave: frame, samples, frame, samples.
  ASSERT_TRUE(session->CaptureContiguous(*video, Data(100, 0xB0), 1).ok());
  ASSERT_TRUE(session->CaptureContiguous(*audio, Data(1764 * 4, 0xA0), 1764)
                  .ok());
  ASSERT_TRUE(session->CaptureContiguous(*video, Data(90, 0xB1), 1).ok());
  ASSERT_TRUE(session->CaptureContiguous(*audio, Data(1764 * 4, 0xA1), 1764)
                  .ok());

  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());

  // Materialized streams unscramble the interleaving.
  auto video_stream = MaterializeStreamed(store, *interp, "video1");
  ASSERT_TRUE(video_stream.ok());
  EXPECT_EQ(video_stream->size(), 2u);
  EXPECT_EQ(video_stream->at(0).data.size(), 100u);
  EXPECT_EQ(video_stream->at(1).data.size(), 90u);
  EXPECT_EQ(video_stream->at(1).start, 1);

  auto audio_stream = MaterializeStreamed(store, *interp, "audio1");
  ASSERT_TRUE(audio_stream.ok());
  EXPECT_EQ(audio_stream->size(), 2u);
  EXPECT_EQ(audio_stream->at(1).start, 1764);
  EXPECT_EQ(audio_stream->at(1).data, Data(1764 * 4, 0xA1));
}

TEST(CaptureTest, PaddingIsUninterpreted) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto video = session->DeclareObject("v", VideoDescriptor(), TimeSystem(25));
  ASSERT_TRUE(video.ok());
  ASSERT_TRUE(session->CaptureContiguous(*video, Data(100, 1), 1).ok());
  ASSERT_TRUE(session->AppendPadding(400).ok());
  ASSERT_TRUE(session->CaptureContiguous(*video, Data(100, 2), 1).ok());
  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());
  // 200 of 600 bytes are element payload.
  EXPECT_NEAR(interp->Coverage(600), 200.0 / 600.0, 1e-9);
  auto stream = MaterializeStreamed(store, *interp, "v");
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->at(1).data, Data(100, 2));
}

TEST(CaptureTest, FinishedSessionRejectsFurtherUse) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto v = session->DeclareObject("v", VideoDescriptor(), TimeSystem(25));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(session->Finish().ok());
  EXPECT_TRUE(session->CaptureContiguous(*v, Data(1, 0), 1)
                  .IsFailedPrecondition());
  EXPECT_TRUE(session->Finish().status().IsFailedPrecondition());
}

TEST(InterpretationTest, MaterializeSpanSelectsDuration) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto v = session->DeclareObject("v", VideoDescriptor(), TimeSystem(25));
  ASSERT_TRUE(v.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        session->CaptureElement(*v, Data(10, static_cast<uint8_t>(i)), i, 1)
            .ok());
    // Zero-duration markers at 15 (inside the span) and 20 (on its
    // end, which a half-open span excludes).
    if (i == 15 || i == 20) {
      ASSERT_TRUE(session->CaptureElement(*v, Data(1, 0xEE), i, 0).ok());
    }
  }
  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());
  // Frames 10..19 (span [10, 20)) plus the marker at 15.
  auto span = MaterializeStreamed(store, *interp, "v", {}, TickSpan{10, 10});
  ASSERT_TRUE(span.ok()) << span.status();
  ASSERT_EQ(span->size(), 11u);
  EXPECT_EQ(span->at(0).data[0], 10);
  EXPECT_EQ(span->at(6).data[0], 0xEE);
  EXPECT_EQ(span->at(6).duration, 0);
  EXPECT_EQ(span->at(10).data[0], 19);
  // A span holding only the marker's instant selects the marker and
  // the frame overlapping it.
  auto instant = MaterializeStreamed(store, *interp, "v", {}, TickSpan{15, 1});
  ASSERT_TRUE(instant.ok());
  ASSERT_EQ(instant->size(), 2u);
  EXPECT_EQ(instant->at(1).data[0], 0xEE);
}

TEST(InterpretationTest, ReadElementBounds) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto v = session->DeclareObject("v", VideoDescriptor(), TimeSystem(25));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(session->CaptureContiguous(*v, Data(10, 42), 1).ok());
  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());
  auto element = interp->ReadElement(store, "v", 0);
  ASSERT_TRUE(element.ok());
  EXPECT_EQ(element->data, Data(10, 42));
  EXPECT_TRUE(interp->ReadElement(store, "v", 1).status().IsOutOfRange());
  EXPECT_TRUE(interp->ReadElement(store, "v", -1).status().IsOutOfRange());
}

TEST(InterpretationTest, RestrictMakesAlternativeView) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto v = session->DeclareObject("video1", VideoDescriptor(), TimeSystem(25));
  MediaDescriptor adesc;
  adesc.type_name = "audio/pcm-block";
  adesc.kind = MediaKind::kAudio;
  auto a = session->DeclareObject("audio1", adesc, TimeSystem(44100));
  ASSERT_TRUE(v.ok() && a.ok());
  ASSERT_TRUE(session->CaptureContiguous(*v, Data(10, 1), 1).ok());
  ASSERT_TRUE(session->CaptureContiguous(*a, Data(10, 2), 1764).ok());
  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());

  // Paper §4.1: an alternative view where only the audio is visible.
  auto view = interp->Restrict({"audio1"});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->objects().size(), 1u);
  EXPECT_TRUE(view->FindObject("video1").status().IsNotFound());
  EXPECT_TRUE(MaterializeStreamed(store, *view, "audio1").ok());
  EXPECT_TRUE(interp->Restrict({"nonexistent"}).status().IsNotFound());
}

TEST(InterpretationTest, SerializeRoundTrip) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto v = session->DeclareObject("v", VideoDescriptor(), TimeSystem(25));
  ASSERT_TRUE(v.ok());
  ElementDescriptor ed;
  ed.SetString("frame kind", "key");
  ASSERT_TRUE(session->CaptureContiguous(*v, Data(10, 1), 1, ed).ok());
  ASSERT_TRUE(session->CaptureContiguous(*v, Data(20, 2), 1).ok());
  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());

  BinaryWriter writer;
  interp->Serialize(&writer);
  BinaryReader reader(writer.buffer());
  auto restored = Interpretation::Deserialize(&reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->blob(), interp->blob());
  auto object = restored->FindObject("v");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ((*object)->elements.size(), 2u);
  EXPECT_EQ((*object)->elements, (*interp->FindObject("v"))->elements);
}

TEST(InterpretationTest, ReadingDeletedBlobFails) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto v = session->DeclareObject("v", VideoDescriptor(), TimeSystem(25));
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(session->CaptureContiguous(*v, Data(10, 1), 1).ok());
  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());
  ASSERT_TRUE(store.Delete(interp->blob()).ok());
  EXPECT_TRUE(MaterializeStreamed(store, *interp, "v").status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Compact index

TEST(IndexTest, MatchesFlatTableOnInterleavedCapture) {
  MemoryBlobStore store;
  auto session = CaptureSession::Begin(&store);
  ASSERT_TRUE(session.ok());
  auto v = session->DeclareObject("v", VideoDescriptor(), TimeSystem(25));
  ASSERT_TRUE(v.ok());
  // Variable-size frames.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(session->CaptureContiguous(
                    *v, Data(50 + (i * 7) % 40, static_cast<uint8_t>(i)), 1)
                    .ok());
  }
  auto interp = session->Finish();
  ASSERT_TRUE(interp.ok());
  auto object = interp->FindObject("v");
  ASSERT_TRUE(object.ok());
  CompactElementIndex index = CompactElementIndex::Build(**object);
  ASSERT_EQ(index.element_count(), 200);

  for (int64_t e = 0; e < 200; ++e) {
    const ElementPlacement& truth = (*object)->elements[e];
    EXPECT_EQ(*index.PlacementOf(e), truth.placement) << e;
    EXPECT_EQ(*index.SpanOf(e), (TickSpan{truth.start, truth.duration})) << e;
    EXPECT_EQ(*index.ElementAtTime(truth.start), e);
  }
  EXPECT_TRUE(index.ElementAtTime(200).status().IsNotFound());
  EXPECT_TRUE(index.PlacementOf(200).status().IsOutOfRange());
}

TEST(IndexTest, ConstantStreamsCompressToOneRun) {
  InterpretedObject object;
  object.name = "audio";
  object.time_system = TimeSystem(44100);
  for (int64_t i = 0; i < 10000; ++i) {
    object.elements.push_back(
        {i, i * 100, 100, ByteRange{static_cast<uint64_t>(i) * 400, 400}, {}});
  }
  CompactElementIndex index = CompactElementIndex::Build(object);
  EXPECT_EQ(index.time_run_count(), 1u);
  EXPECT_EQ(index.chunk_count(), 1u);
  // Massive memory advantage over the flat table.
  size_t flat = object.elements.size() * sizeof(ElementPlacement);
  EXPECT_LT(index.MemoryBytes() * 100, flat);
  EXPECT_EQ(*index.ElementAtTime(555 * 100 + 3), 555);
}

TEST(IndexTest, GapsCreateRunsAndLookupRespectsThem) {
  InterpretedObject object;
  object.name = "anim";
  object.time_system = TimeSystem(25);
  object.elements.push_back({0, 0, 10, ByteRange{0, 4}, {}});
  object.elements.push_back({1, 10, 10, ByteRange{4, 4}, {}});
  object.elements.push_back({2, 50, 10, ByteRange{8, 4}, {}});  // Gap.
  CompactElementIndex index = CompactElementIndex::Build(object);
  EXPECT_EQ(index.time_run_count(), 2u);
  EXPECT_EQ(*index.ElementAtTime(15), 1);
  EXPECT_TRUE(index.ElementAtTime(30).status().IsNotFound());
  EXPECT_EQ(*index.ElementAtTime(50), 2);
  EXPECT_TRUE(index.ElementAtTime(-5).status().IsNotFound());
}

TEST(IndexTest, SyncTableFindsKeyFrames) {
  InterpretedObject object;
  object.name = "v";
  object.time_system = TimeSystem(25);
  for (int64_t i = 0; i < 30; ++i) {
    ElementPlacement placement{
        i, i, 1, ByteRange{static_cast<uint64_t>(i) * 10, 10}, {}};
    placement.descriptor.SetString("frame kind",
                                   i % 10 == 0 ? "key" : "delta");
    object.elements.push_back(std::move(placement));
  }
  CompactElementIndex index = CompactElementIndex::Build(object);
  EXPECT_EQ(index.sync_elements(), (std::vector<int64_t>{0, 10, 20}));
  EXPECT_EQ(*index.SyncBefore(15), 10);
  EXPECT_EQ(*index.SyncBefore(10), 10);
  EXPECT_EQ(*index.SyncBefore(9), 0);
  EXPECT_EQ(*index.SyncBefore(29), 20);
}

TEST(IndexTest, EmptyObject) {
  InterpretedObject object;
  object.name = "empty";
  CompactElementIndex index = CompactElementIndex::Build(object);
  EXPECT_EQ(index.element_count(), 0);
  EXPECT_TRUE(index.ElementAtTime(0).status().IsNotFound());
  EXPECT_TRUE(index.SyncBefore(0).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Figure 2 A/V capture

TEST(AvCaptureTest, Figure2NumbersHold) {
  MemoryBlobStore store;
  // 2 seconds of PAL video with CD stereo audio (scaled-down geometry
  // keeps the test fast; rates are per-second so the paper's numbers
  // scale).
  std::vector<Image> frames = videogen::Clip(160, 120, 50, 42);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 2.1);
  AvCaptureConfig config;
  auto result = CaptureInterleavedAv(&store, frames, audio, config);
  ASSERT_TRUE(result.ok()) << result.status();

  // Both objects present.
  auto video_obj = result->interpretation.FindObject("video1");
  auto audio_obj = result->interpretation.FindObject("audio1");
  ASSERT_TRUE(video_obj.ok() && audio_obj.ok());
  EXPECT_EQ((*video_obj)->elements.size(), 50u);
  EXPECT_EQ((*audio_obj)->elements.size(), 50u);

  // The Figure 2 constant: 1764 sample pairs per PAL frame.
  for (const ElementPlacement& e : (*audio_obj)->elements) {
    EXPECT_EQ(e.duration, 1764);
    EXPECT_EQ(e.placement.length, 1764u * 2 * 2);
  }

  // Audio rate: 44100 Hz * 16 bit * 2 ch = 176.4 kB/s ("172 kbyte/sec"
  // in the paper's KiB-style accounting).
  double seconds = 50.0 / 25.0;
  EXPECT_NEAR(result->audio_bytes / seconds, 176400.0, 1.0);

  // Compression reduced the video rate substantially.
  EXPECT_LT(result->encoded_video_bytes, result->raw_video_bytes / 5);

  // Interleaving: video element 0, then audio element 0, then video 1...
  EXPECT_LT((*video_obj)->elements[0].placement.offset,
            (*audio_obj)->elements[0].placement.offset);
  EXPECT_LT((*audio_obj)->elements[0].placement.offset,
            (*video_obj)->elements[1].placement.offset);

  // Every byte of the BLOB is covered (no padding configured).
  auto blob_size = store.Size(result->blob);
  ASSERT_TRUE(blob_size.ok());
  EXPECT_DOUBLE_EQ(result->interpretation.Coverage(*blob_size), 1.0);
}

TEST(AvCaptureTest, NtscRatesDistributeSamples) {
  MemoryBlobStore store;
  std::vector<Image> frames = videogen::Clip(64, 48, 30, 9);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 1.2);
  AvCaptureConfig config;
  config.frame_rate = Rational(30000, 1001);
  auto result = CaptureInterleavedAv(&store, frames, audio, config);
  ASSERT_TRUE(result.ok()) << result.status();
  auto audio_obj = result->interpretation.FindObject("audio1");
  ASSERT_TRUE(audio_obj.ok());
  // 44100*1001/30000 = 1471.47: elements alternate 1471 and 1472.
  int64_t total = 0;
  for (const ElementPlacement& e : (*audio_obj)->elements) {
    EXPECT_GE(e.duration, 1471);
    EXPECT_LE(e.duration, 1472);
    total += e.duration;
  }
  EXPECT_EQ(total, RescaleTicks(30, Rational(44100 * 1001, 30000),
                                Rounding::kFloor));
}

TEST(AvCaptureTest, ShortAudioRejected) {
  MemoryBlobStore store;
  std::vector<Image> frames = videogen::Clip(32, 32, 25, 1);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 0.5);  // Too short.
  EXPECT_TRUE(CaptureInterleavedAv(&store, frames, audio, AvCaptureConfig{})
                  .status()
                  .IsInvalidArgument());
}

TEST(AvCaptureTest, PaddingConfigured) {
  MemoryBlobStore store;
  std::vector<Image> frames = videogen::Clip(32, 32, 5, 2);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 0.3);
  AvCaptureConfig config;
  config.padding_per_frame = 256;
  auto result = CaptureInterleavedAv(&store, frames, audio, config);
  ASSERT_TRUE(result.ok());
  auto blob_size = store.Size(result->blob);
  ASSERT_TRUE(blob_size.ok());
  EXPECT_LT(result->interpretation.Coverage(*blob_size), 1.0);
}

}  // namespace
}  // namespace tbm
