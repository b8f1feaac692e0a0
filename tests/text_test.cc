// Tests for timed text: the bitmap font, caption tracks as
// non-continuous streams, storage through the bridge, and the caption
// burn-in / video poster derivations.
#include <gtest/gtest.h>

#include "blob/memory_store.h"
#include "codec/synthetic.h"
#include "db/codec_bridge.h"
#include "derive/operators.h"
#include "interp/streaming.h"
#include "stream/category.h"
#include "text/captions.h"
#include "text/font.h"

namespace tbm {
namespace {

// ---------------------------------------------------------------------------
// Font

TEST(FontTest, Metrics) {
  EXPECT_EQ(font5x7::TextWidth(""), 0);
  EXPECT_EQ(font5x7::TextWidth("A"), 5);
  EXPECT_EQ(font5x7::TextWidth("AB"), 11);   // 5 + 1 + 5.
  EXPECT_EQ(font5x7::TextWidth("AB", 2), 22);
  EXPECT_EQ(font5x7::TextHeight(), 7);
  EXPECT_EQ(font5x7::TextHeight(3), 21);
}

TEST(FontTest, DrawTextMarksPixels) {
  Image canvas = Image::Zero(40, 12, ColorModel::kRgb24);
  ASSERT_TRUE(font5x7::DrawText(&canvas, "HI", 1, 2, 255, 0, 0).ok());
  // Some pixels are now red.
  int red_pixels = 0;
  for (size_t i = 0; i < canvas.data.size(); i += 3) {
    if (canvas.data[i] == 255) ++red_pixels;
  }
  EXPECT_GT(red_pixels, 10);
  // 'I' has a vertical bar: pixel in the middle column of the glyph.
  // H occupies columns 1..5; I starts at column 7; its center ~ column 9.
  const uint8_t* center =
      canvas.data.data() + 3 * (5 * canvas.width + 9);
  EXPECT_EQ(center[0], 255);
}

TEST(FontTest, LowercaseMapsToUppercase) {
  Image a = Image::Zero(10, 10, ColorModel::kRgb24);
  Image b = Image::Zero(10, 10, ColorModel::kRgb24);
  ASSERT_TRUE(font5x7::DrawText(&a, "q", 0, 0, 255, 255, 255).ok());
  ASSERT_TRUE(font5x7::DrawText(&b, "Q", 0, 0, 255, 255, 255).ok());
  EXPECT_EQ(a.data, b.data);
}

TEST(FontTest, ClipsAtBorders) {
  Image canvas = Image::Zero(8, 8, ColorModel::kRgb24);
  // Drawing far outside must not crash or write.
  ASSERT_TRUE(font5x7::DrawText(&canvas, "XYZ", -100, -100, 255, 0, 0).ok());
  ASSERT_TRUE(font5x7::DrawText(&canvas, "XYZ", 100, 100, 255, 0, 0).ok());
  // Partially off-screen writes only the visible part.
  ASSERT_TRUE(font5x7::DrawText(&canvas, "W", -2, -2, 255, 0, 0).ok());
  for (size_t i = 0; i < canvas.data.size(); i += 3) {
    // No green/blue contamination.
    EXPECT_EQ(canvas.data[i + 1], 0);
  }
}

TEST(FontTest, Validation) {
  Image gray = Image::Zero(8, 8, ColorModel::kGray8);
  EXPECT_TRUE(
      font5x7::DrawText(&gray, "A", 0, 0, 1, 2, 3).IsInvalidArgument());
  Image rgb = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(
      font5x7::DrawText(&rgb, "A", 0, 0, 1, 2, 3, 0).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Caption tracks

TEST(CaptionTest, OrderingAndOverlapRules) {
  CaptionTrack track(TimeSystem(25));
  ASSERT_TRUE(track.Add(0, 50, "HELLO").ok());
  EXPECT_TRUE(track.Add(25, 10, "OVERLAP").IsInvalidArgument());
  ASSERT_TRUE(track.Add(75, 50, "WORLD").ok());
  EXPECT_TRUE(track.Add(10, 5, "BACKWARDS").IsInvalidArgument());
  EXPECT_TRUE(track.Add(200, 0, "EMPTY DURATION").IsInvalidArgument());
  EXPECT_TRUE(track.Add(200, 10, "").IsInvalidArgument());
}

TEST(CaptionTest, LookupBySpan) {
  CaptionTrack track(TimeSystem(25));
  ASSERT_TRUE(track.Add(0, 50, "FIRST").ok());
  ASSERT_TRUE(track.Add(75, 25, "SECOND").ok());
  EXPECT_EQ((*track.At(0))->text, "FIRST");
  EXPECT_EQ((*track.At(49))->text, "FIRST");
  EXPECT_TRUE(track.At(60).status().IsNotFound());  // Silence gap.
  EXPECT_EQ((*track.At(80))->text, "SECOND");
  EXPECT_TRUE(track.At(100).status().IsNotFound());
}

TEST(CaptionTest, StreamRoundTripAndCategory) {
  CaptionTrack track(TimeSystem(25));
  ASSERT_TRUE(track.Add(10, 40, "A CAPTION").ok());
  ASSERT_TRUE(track.Add(60, 30, "ANOTHER").ok());
  auto stream = track.ToTimedStream();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->descriptor().kind, MediaKind::kText);
  // Captions with gaps: non-continuous, like the paper's music example.
  EXPECT_TRUE(Classify(*stream).non_continuous());
  // Validates against the registered media type.
  EXPECT_TRUE(
      ValidateAgainstType(*stream, MediaTypeRegistry::Builtin()).ok());
  auto restored = CaptionTrack::FromTimedStream(*stream);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->captions(), track.captions());
}

TEST(CaptionTest, StoresThroughBridge) {
  MemoryBlobStore store;
  CaptionTrack track(TimeSystem(25));
  ASSERT_TRUE(track.Add(0, 50, "STORED TEXT").ok());
  auto stream = track.ToTimedStream();
  ASSERT_TRUE(stream.ok());
  auto interp = StoreValue(&store, MediaValue(*stream), "captions");
  ASSERT_TRUE(interp.ok());
  auto materialized = MaterializeStreamed(store, *interp, "captions");
  ASSERT_TRUE(materialized.ok());
  auto value = DecodeStream(*materialized);
  ASSERT_TRUE(value.ok());
  auto restored =
      CaptionTrack::FromTimedStream(std::get<TimedStream>(*value));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->captions()[0].text, "STORED TEXT");
}

// ---------------------------------------------------------------------------
// Derivations

TEST(CaptionTest, BurnInDrawsOnlyDuringCaptions) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(80, 60, 50, 7);
  CaptionTrack track(TimeSystem(25));
  ASSERT_TRUE(track.Add(10, 20, "HI").ok());  // Frames [10, 30).
  auto caption_stream = track.ToTimedStream();
  ASSERT_TRUE(caption_stream.ok());

  MediaValue video_value = video;
  MediaValue text_value = *caption_stream;
  AttrMap params;
  params.SetInt("scale", 1);
  auto burned = DerivationRegistry::Builtin().Apply(
      "caption burn-in", {&video_value, &text_value}, params);
  ASSERT_TRUE(burned.ok()) << burned.status();
  const VideoValue& out = std::get<VideoValue>(*burned);
  ASSERT_EQ(out.frames.size(), 50u);
  // Frames outside the caption span are untouched.
  EXPECT_EQ(out.frames[0].data, video.frames[0].data);
  EXPECT_EQ(out.frames[40].data, video.frames[40].data);
  // Frames inside differ (white pixels drawn).
  EXPECT_NE(out.frames[15].data, video.frames[15].data);
}

TEST(CaptionTest, BurnInIsRegisteredAsContentChange) {
  auto op = DerivationRegistry::Builtin().Find("caption burn-in");
  ASSERT_TRUE(op.ok());
  EXPECT_EQ((*op)->category, DerivationCategory::kContent);
  EXPECT_EQ((*op)->arg_kinds[1], MediaKind::kText);
}

TEST(PosterTest, ExtractsFrameAsImage) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 10, 3);
  MediaValue value = video;
  AttrMap params;
  params.SetInt("frame", 4);
  auto poster = DerivationRegistry::Builtin().Apply("video poster",
                                                    {&value}, params);
  ASSERT_TRUE(poster.ok());
  EXPECT_EQ(KindOfValue(*poster), MediaKind::kImage);
  EXPECT_EQ(std::get<Image>(*poster).data, video.frames[4].data);
  params.SetInt("frame", 99);
  EXPECT_TRUE(DerivationRegistry::Builtin()
                  .Apply("video poster", {&value}, params)
                  .status()
                  .IsOutOfRange());
  // Type change registered correctly.
  auto op = DerivationRegistry::Builtin().Find("video poster");
  ASSERT_TRUE(op.ok());
  EXPECT_EQ((*op)->category, DerivationCategory::kType);
}

}  // namespace
}  // namespace tbm
