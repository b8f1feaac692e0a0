// Tests for the stored-form <-> typed-value codec bridge, focusing on
// paths the integration suite doesn't reach: heterogeneous ADPCM
// streams rebuilt from element descriptors, corruption and
// unsupported-type handling, and TMPEG bidirectional re-sorting.
#include <gtest/gtest.h>

#include "blob/memory_store.h"
#include "codec/adpcm.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "db/codec_bridge.h"
#include "interp/capture.h"
#include "interp/streaming.h"

namespace tbm {
namespace {

// Builds an audio/adpcm stream with per-element coder state in element
// descriptors — the paper's §3.3 heterogeneous example — and round
// trips it through BLOB storage and the bridge.
TEST(BridgeTest, AdpcmHeterogeneousRoundTrip) {
  AudioBuffer original = audiogen::Sine(22050, 2, 440.0, 0.6, 0.4);
  auto blocks = AdpcmEncode(original, 1024);
  ASSERT_TRUE(blocks.ok());

  MediaDescriptor desc;
  desc.type_name = "audio/adpcm";
  desc.kind = MediaKind::kAudio;
  desc.attrs.SetInt("sample rate", 22050);
  desc.attrs.SetInt("number of channels", 2);
  desc.attrs.SetInt("block size", 1024);
  desc.attrs.SetString("encoding", "IMA ADPCM");
  TimedStream stream(desc, TimeSystem(22050));
  for (const AdpcmBlock& block : *blocks) {
    ElementDescriptor ed;
    ed.SetInt("predictor", block.predictor[0]);
    ed.SetInt("step index", block.step_index[0]);
    ed.SetInt("predictor1", block.predictor[1]);
    ed.SetInt("step index1", block.step_index[1]);
    ASSERT_TRUE(
        stream.AppendContiguous(block.data, block.frames, std::move(ed)).ok());
  }

  // Store + materialize + decode.
  MemoryBlobStore store;
  auto interp = StoreValue(&store, MediaValue(stream), "adpcm");
  ASSERT_TRUE(interp.ok()) << interp.status();
  auto restored = MaterializeStreamed(store, *interp, "adpcm");
  ASSERT_TRUE(restored.ok());
  auto value = DecodeStream(*restored);
  ASSERT_TRUE(value.ok()) << value.status();
  const AudioBuffer& decoded = std::get<AudioBuffer>(*value);
  EXPECT_EQ(decoded.samples.size(), original.samples.size());
  EXPECT_GT(*AudioSnr(original, decoded), 15.0);
}

TEST(BridgeTest, AdpcmMissingStateFails) {
  MediaDescriptor desc;
  desc.type_name = "audio/adpcm";
  desc.kind = MediaKind::kAudio;
  desc.attrs.SetInt("sample rate", 22050);
  desc.attrs.SetInt("number of channels", 1);
  TimedStream stream(desc, TimeSystem(22050));
  // Element without predictor/step attributes.
  ASSERT_TRUE(stream.AppendContiguous(Bytes(128, 0), 256).ok());
  EXPECT_FALSE(DecodeStream(stream).ok());
}

TEST(BridgeTest, CorruptTjpegElementSurfacesError) {
  MemoryBlobStore store;
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 4, 1);
  auto interp = StoreValue(&store, MediaValue(video), "clip");
  ASSERT_TRUE(interp.ok());
  auto stream = MaterializeStreamed(store, *interp, "clip");
  ASSERT_TRUE(stream.ok());
  // Corrupt the second frame's payload in place.
  TimedStream broken(stream->descriptor(), stream->time_system());
  for (size_t i = 0; i < stream->size(); ++i) {
    StreamElement element = stream->at(i);
    if (i == 1) {
      element.data = Bytes(element.data.size(), 0x55);
    }
    ASSERT_TRUE(broken.Append(std::move(element)).ok());
  }
  EXPECT_FALSE(DecodeStream(broken).ok());
}

TEST(BridgeTest, UnknownTypeIsUnsupported) {
  MediaDescriptor desc;
  desc.type_name = "video/h264";
  desc.kind = MediaKind::kVideo;
  TimedStream stream(desc, TimeSystem(25));
  EXPECT_TRUE(DecodeStream(stream).status().IsUnsupported());
}

TEST(BridgeTest, RawVideoGeometryMismatchRejected) {
  MediaDescriptor desc;
  desc.type_name = "video/raw";
  desc.kind = MediaKind::kVideo;
  desc.attrs.SetRational("frame rate", Rational(25));
  desc.attrs.SetInt("frame width", 10);
  desc.attrs.SetInt("frame height", 10);
  TimedStream stream(desc, TimeSystem(25));
  ASSERT_TRUE(stream.AppendContiguous(Bytes(17, 0), 1).ok());  // Not 300 B.
  EXPECT_FALSE(DecodeStream(stream).ok());
}

TEST(BridgeTest, StoreOptionsSelectCodecs) {
  MemoryBlobStore store;
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 6, 2);

  StoreOptions raw;
  raw.video_codec = "raw";
  auto raw_interp = StoreValue(&store, MediaValue(video), "raw_clip", raw);
  ASSERT_TRUE(raw_interp.ok());
  auto raw_object = raw_interp->FindObject("raw_clip");
  ASSERT_TRUE(raw_object.ok());
  EXPECT_EQ((*raw_object)->descriptor.type_name, "video/raw");

  StoreOptions tjpeg;
  tjpeg.video_codec = "tjpeg";
  auto tjpeg_interp =
      StoreValue(&store, MediaValue(video), "tjpeg_clip", tjpeg);
  ASSERT_TRUE(tjpeg_interp.ok());
  auto tjpeg_object = tjpeg_interp->FindObject("tjpeg_clip");
  ASSERT_TRUE(tjpeg_object.ok());
  EXPECT_EQ((*tjpeg_object)->descriptor.type_name, "video/tjpeg");
  // Compression is real.
  EXPECT_LT((*tjpeg_object)->PayloadBytes(),
            (*raw_object)->PayloadBytes() / 3);

  StoreOptions bogus;
  bogus.video_codec = "divx";
  EXPECT_TRUE(StoreValue(&store, MediaValue(video), "x", bogus)
                  .status()
                  .IsInvalidArgument());
}

TEST(BridgeTest, TmpegForwardStreamDecodesViaBridge) {
  MemoryBlobStore store;
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(32, 24, 9, 4);
  StoreOptions options;
  options.video_codec = "tmpeg";
  options.key_interval = 3;
  auto interp = StoreValue(&store, MediaValue(video), "clip", options);
  ASSERT_TRUE(interp.ok());
  auto object = interp->FindObject("clip");
  ASSERT_TRUE(object.ok());
  // Frame kinds recorded per element.
  EXPECT_EQ(*(*object)->elements[0].descriptor.GetString("frame kind"),
            "key");
  EXPECT_EQ(*(*object)->elements[1].descriptor.GetString("frame kind"),
            "delta");
  auto stream = MaterializeStreamed(store, *interp, "clip");
  ASSERT_TRUE(stream.ok());
  auto value = DecodeStream(*stream);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(std::get<VideoValue>(*value).frames.size(), 9u);
}

TEST(BridgeTest, EmptyAudioStoresAndDecodes) {
  MemoryBlobStore store;
  AudioBuffer empty;
  empty.sample_rate = 8000;
  empty.channels = 1;
  auto interp = StoreValue(&store, MediaValue(empty), "silence");
  ASSERT_TRUE(interp.ok());
  auto stream = MaterializeStreamed(store, *interp, "silence");
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(stream->empty());
  auto value = DecodeStream(*stream);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::get<AudioBuffer>(*value).samples.size(), 0u);
}

TEST(BridgeTest, StoreEmptyVideoFails) {
  MemoryBlobStore store;
  VideoValue empty;
  EXPECT_TRUE(StoreValue(&store, MediaValue(empty), "x")
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tbm
