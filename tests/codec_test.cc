#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "codec/adpcm.h"
#include "codec/color.h"
#include "codec/dct.h"
#include "codec/pcm.h"
#include "codec/rle.h"
#include "codec/synthetic.h"
#include "codec/tjpeg.h"
#include "codec/tmpeg.h"

namespace tbm {
namespace {

// ---------------------------------------------------------------------------
// Image basics

TEST(ImageTest, ExpectedBytesPerModel) {
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kGray8), 100u);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kRgb24), 300u);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kYuv444), 300u);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kYuv422),
            100u + 2u * 5 * 10);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kYuv420),
            100u + 2u * 5 * 5);
  EXPECT_EQ(Image::ExpectedBytes(10, 10, ColorModel::kCmyk32), 400u);
  // Odd dimensions round chroma up.
  EXPECT_EQ(Image::ExpectedBytes(11, 11, ColorModel::kYuv420),
            121u + 2u * 6 * 6);
}

TEST(ImageTest, ValidateCatchesBadSizes) {
  Image img = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(img.Validate().ok());
  img.data = img.data.Slice(0, img.data.size() - 1);
  EXPECT_TRUE(img.Validate().IsInvalidArgument());
  Image degenerate;
  EXPECT_TRUE(degenerate.Validate().IsInvalidArgument());
}

TEST(ImageTest, PsnrBehaviour) {
  Image a = videogen::Still(32, 32, 1);
  EXPECT_EQ(*Psnr(a, a), 99.0);  // Identical.
  Image b = a;
  BufferRef tweaked = Buffer::CopyOf(a.data.span());
  tweaked->mutable_data()[0] ^= 0x80;
  b.data = std::move(tweaked);
  double psnr = *Psnr(a, b);
  EXPECT_LT(psnr, 99.0);
  EXPECT_GT(psnr, 30.0);  // One flipped byte barely moves PSNR.
  Image c = Image::Zero(16, 16, ColorModel::kRgb24);
  EXPECT_TRUE(Psnr(a, c).status().IsInvalidArgument());  // Geometry mismatch.
}

// ---------------------------------------------------------------------------
// Color conversions

TEST(ColorTest, RgbYuvRoundTripIsNearLossless444) {
  Image rgb = videogen::Still(64, 48, 7);
  auto yuv = RgbToYuv(rgb, ColorModel::kYuv444);
  ASSERT_TRUE(yuv.ok());
  auto back = YuvToRgb(*yuv);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(*Psnr(rgb, *back), 45.0);
}

TEST(ColorTest, SubsamplingDegradesGracefully) {
  Image rgb = videogen::Still(64, 48, 7);
  auto yuv422 = RgbToYuv(rgb, ColorModel::kYuv422);
  auto yuv420 = RgbToYuv(rgb, ColorModel::kYuv420);
  ASSERT_TRUE(yuv422.ok() && yuv420.ok());
  double psnr422 = *Psnr(rgb, *YuvToRgb(*yuv422));
  double psnr420 = *Psnr(rgb, *YuvToRgb(*yuv420));
  EXPECT_GT(psnr422, 35.0);
  EXPECT_GE(psnr422, psnr420 - 0.5);  // 4:2:2 keeps more chroma than 4:2:0.
  // The paper's size claim: subsampling shrinks the image data.
  EXPECT_LT(yuv422->data.size(), rgb.data.size());
  EXPECT_LT(yuv420->data.size(), yuv422->data.size());
}

TEST(ColorTest, GrayPixelsSurviveYuv) {
  Image rgb = Image::Zero(16, 16, ColorModel::kRgb24);
  rgb.data = Bytes(rgb.data.size(), 128);
  auto yuv = RgbToYuv(rgb, ColorModel::kYuv420);
  ASSERT_TRUE(yuv.ok());
  auto back = YuvToRgb(*yuv);
  ASSERT_TRUE(back.ok());
  for (size_t i = 0; i < back->data.size(); ++i) {
    EXPECT_NEAR(back->data[i], 128, 2);
  }
}

TEST(ColorTest, WrongInputModelRejected) {
  Image gray = Image::Zero(8, 8, ColorModel::kGray8);
  EXPECT_TRUE(RgbToYuv(gray, ColorModel::kYuv420).status().IsInvalidArgument());
  Image rgb = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(RgbToYuv(rgb, ColorModel::kRgb24).status().IsInvalidArgument());
  EXPECT_TRUE(YuvToRgb(rgb).status().IsInvalidArgument());
  EXPECT_TRUE(CmykToRgb(rgb).status().IsInvalidArgument());
}

TEST(ColorTest, CmykSeparationRoundTrip) {
  Image rgb = videogen::Still(32, 32, 3);
  SeparationParams params;  // Full black generation + UCR.
  auto cmyk = RgbToCmyk(rgb, params);
  ASSERT_TRUE(cmyk.ok());
  EXPECT_EQ(cmyk->model, ColorModel::kCmyk32);
  auto back = CmykToRgb(*cmyk);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(*Psnr(rgb, *back), 35.0);
}

TEST(ColorTest, SeparationParametersMatter) {
  // Paper: "the mapping from RGB into the CMYK color model is not
  // unique" — different parameters give different plates.
  Image rgb = videogen::Still(32, 32, 3);
  auto full = RgbToCmyk(rgb, SeparationParams{1.0, 1.0});
  auto none = RgbToCmyk(rgb, SeparationParams{0.0, 0.0});
  ASSERT_TRUE(full.ok() && none.ok());
  EXPECT_NE(full->data, none->data);
  // With black_generation = 0, the K plate is empty.
  auto k_plate = CmykPlate(*none, 3);
  ASSERT_TRUE(k_plate.ok());
  for (uint8_t v : k_plate->data) EXPECT_EQ(v, 0);
}

TEST(ColorTest, PlatesExtractChannels) {
  Image rgb = videogen::Still(16, 16, 5);
  auto cmyk = RgbToCmyk(rgb, SeparationParams{});
  ASSERT_TRUE(cmyk.ok());
  for (int channel = 0; channel < 4; ++channel) {
    auto plate = CmykPlate(*cmyk, channel);
    ASSERT_TRUE(plate.ok());
    EXPECT_EQ(plate->model, ColorModel::kGray8);
  }
  EXPECT_TRUE(CmykPlate(*cmyk, 4).status().IsInvalidArgument());
}

TEST(ColorTest, BadSeparationParamsRejected) {
  Image rgb = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(
      RgbToCmyk(rgb, SeparationParams{1.5, 0.5}).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// PCM

TEST(PcmTest, BytesRoundTrip) {
  AudioBuffer audio = audiogen::Sine(8000, 2, 440.0, 0.5, 0.25);
  Bytes bytes = audio.ToBytes();
  EXPECT_EQ(bytes.size(), audio.samples.size() * 2);
  auto restored = AudioBuffer::FromBytes(bytes, 8000, 2);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->samples, audio.samples);
}

TEST(PcmTest, GeneratorsProduceExpectedShapes) {
  AudioBuffer sine = audiogen::Sine(44100, 2, 440.0, 0.8, 1.0);
  EXPECT_EQ(sine.FrameCount(), 44100);
  EXPECT_NEAR(PeakAmplitude(sine), 0.8 * 32767, 100);
  EXPECT_NEAR(RmsAmplitude(sine), 0.8 * 32767 / std::sqrt(2.0), 200);

  AudioBuffer silence = audiogen::Silence(44100, 1, 0.5);
  EXPECT_EQ(PeakAmplitude(silence), 0);

  AudioBuffer noise = audiogen::Noise(44100, 1, 0.5, 0.5, 99);
  EXPECT_GT(RmsAmplitude(noise), 0.0);
  // Determinism.
  AudioBuffer noise2 = audiogen::Noise(44100, 1, 0.5, 0.5, 99);
  EXPECT_EQ(noise.samples, noise2.samples);
}

TEST(PcmTest, ValidateCatchesErrors) {
  AudioBuffer bad;
  bad.channels = 2;
  bad.samples = std::vector<int16_t>{1, 2, 3};  // Not divisible by channels.
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
  bad.samples = std::vector<int16_t>{1, 2};
  bad.sample_rate = 0;
  EXPECT_TRUE(bad.Validate().IsInvalidArgument());
}

TEST(PcmTest, SnrOfIdenticalIsSentinel) {
  AudioBuffer a = audiogen::Sine(8000, 1, 220.0, 0.5, 0.1);
  EXPECT_EQ(*AudioSnr(a, a), 99.0);
}

// ---------------------------------------------------------------------------
// ADPCM (heterogeneous elements)

TEST(AdpcmTest, RoundTripQuality) {
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.6, 0.5);
  auto blocks = AdpcmEncode(audio, 1024);
  ASSERT_TRUE(blocks.ok());
  auto decoded = AdpcmDecode(*blocks, 44100, 2);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->samples.size(), audio.samples.size());
  EXPECT_GT(*AudioSnr(audio, *decoded), 20.0);  // 4-bit ADPCM ≈ 20-30 dB.
}

TEST(AdpcmTest, CompressionIsFourToOne) {
  AudioBuffer audio = audiogen::Noise(44100, 2, 0.3, 1.0, 5);
  auto blocks = AdpcmEncode(audio, 4096);
  ASSERT_TRUE(blocks.ok());
  size_t encoded = 0;
  for (const AdpcmBlock& block : *blocks) encoded += block.data.size();
  size_t raw = audio.samples.size() * 2;
  EXPECT_NEAR(static_cast<double>(raw) / encoded, 4.0, 0.05);
}

TEST(AdpcmTest, BlockStateVariesAcrossBlocks) {
  // The paper's point: encoding parameters vary over the sequence and
  // belong in element descriptors.
  AudioBuffer audio = audiogen::Sine(44100, 1, 220.0, 0.9, 0.5);
  auto blocks = AdpcmEncode(audio, 512);
  ASSERT_TRUE(blocks.ok());
  ASSERT_GT(blocks->size(), 3u);
  bool varies = false;
  for (size_t i = 1; i < blocks->size(); ++i) {
    if ((*blocks)[i].predictor[0] != (*blocks)[0].predictor[0] ||
        (*blocks)[i].step_index[0] != (*blocks)[0].step_index[0]) {
      varies = true;
    }
  }
  EXPECT_TRUE(varies);
}

TEST(AdpcmTest, BlocksDecodeIndependently) {
  AudioBuffer audio = audiogen::Sine(44100, 1, 330.0, 0.5, 0.2);
  auto blocks = AdpcmEncode(audio, 1000);
  ASSERT_TRUE(blocks.ok());
  // Decode only block 3; compare against the matching span of a full
  // decode (identical because block state is self-contained).
  auto full = AdpcmDecode(*blocks, 44100, 1);
  ASSERT_TRUE(full.ok());
  auto one = AdpcmDecodeBlock((*blocks)[3], 44100, 1);
  ASSERT_TRUE(one.ok());
  for (int64_t i = 0; i < one->FrameCount(); ++i) {
    EXPECT_EQ(one->samples[i], full->samples[3000 + i]);
  }
}

TEST(AdpcmTest, CorruptBlockRejected) {
  AudioBuffer audio = audiogen::Sine(8000, 1, 200.0, 0.5, 0.1);
  auto blocks = AdpcmEncode(audio, 256);
  ASSERT_TRUE(blocks.ok());
  AdpcmBlock bad = (*blocks)[0];
  bad.step_index[0] = 200;  // Out of table range.
  EXPECT_TRUE(AdpcmDecodeBlock(bad, 8000, 1).status().IsCorruption());
  bad = (*blocks)[0];
  bad.data = bad.data.Slice(0, bad.data.size() - 1);
  EXPECT_TRUE(AdpcmDecodeBlock(bad, 8000, 1).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// DCT

TEST(DctTest, ForwardInverseIsIdentity) {
  float block[64], coeffs[64], back[64];
  for (int i = 0; i < 64; ++i) block[i] = static_cast<float>((i * 37) % 255) - 128;
  ForwardDct8x8(block, coeffs);
  InverseDct8x8(coeffs, back);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(back[i], block[i], 0.01) << "coefficient " << i;
  }
}

TEST(DctTest, FlatBlockHasOnlyDc) {
  float block[64], coeffs[64];
  for (int i = 0; i < 64; ++i) block[i] = 100.0f;
  ForwardDct8x8(block, coeffs);
  EXPECT_NEAR(coeffs[0], 800.0f, 0.01);  // 100 * 8 (orthonormal scale).
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coeffs[i], 0.0f, 0.01);
}

TEST(DctTest, QuantTableScaling) {
  auto base = ScaleQuantTable(kLumaQuantBase, 50);
  EXPECT_EQ(base, kLumaQuantBase);  // Quality 50 = identity.
  auto fine = ScaleQuantTable(kLumaQuantBase, 95);
  auto coarse = ScaleQuantTable(kLumaQuantBase, 10);
  for (int i = 0; i < 64; ++i) {
    EXPECT_LE(fine[i], base[i]);
    EXPECT_GE(coarse[i], base[i]);
    EXPECT_GE(fine[i], 1);
    EXPECT_LE(coarse[i], 255);
  }
}

TEST(DctTest, ZigzagIsAPermutation) {
  std::array<bool, 64> seen{};
  for (uint8_t index : kZigzag) {
    EXPECT_LT(index, 64);
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
  }
  EXPECT_EQ(kZigzag[0], 0);   // DC first.
  EXPECT_EQ(kZigzag[1], 1);   // Then the first AC.
  EXPECT_EQ(kZigzag[63], 63); // Highest frequency last.
}

// ---------------------------------------------------------------------------
// TJPEG

class TjpegQuality : public ::testing::TestWithParam<int> {};

TEST_P(TjpegQuality, RoundTripAtQuality) {
  Image rgb = videogen::Still(96, 64, 11);
  auto encoded = TjpegEncode(rgb, GetParam());
  ASSERT_TRUE(encoded.ok());
  auto decoded = TjpegDecode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width, rgb.width);
  EXPECT_EQ(decoded->height, rgb.height);
  double psnr = *Psnr(rgb, *decoded);
  // Even the worst quality should beat 18 dB on synthetic scenes; high
  // quality should beat 32 dB.
  EXPECT_GT(psnr, GetParam() >= 75 ? 32.0 : 18.0) << "quality " << GetParam();
  // Real compression happens at every quality.
  EXPECT_LT(encoded->size(), rgb.data.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, TjpegQuality,
                         ::testing::Values(5, 25, 50, 75, 95));

TEST(TjpegTest, QualityTradesRateForFidelity) {
  Image rgb = videogen::Still(128, 96, 13);
  size_t prev_size = 0;
  double prev_psnr = 0.0;
  for (int quality : {10, 50, 90}) {
    auto encoded = TjpegEncode(rgb, quality);
    ASSERT_TRUE(encoded.ok());
    auto decoded = TjpegDecode(*encoded);
    ASSERT_TRUE(decoded.ok());
    double psnr = *Psnr(rgb, *decoded);
    EXPECT_GT(encoded->size(), prev_size);
    EXPECT_GT(psnr, prev_psnr);
    prev_size = encoded->size();
    prev_psnr = psnr;
  }
}

TEST(TjpegTest, GrayscaleSupported) {
  Image rgb = videogen::Still(64, 64, 2);
  auto gray = RgbToGray(rgb);
  ASSERT_TRUE(gray.ok());
  auto encoded = TjpegEncode(*gray, 70);
  ASSERT_TRUE(encoded.ok());
  auto decoded = TjpegDecode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->model, ColorModel::kGray8);
  EXPECT_GT(*Psnr(*gray, *decoded), 25.0);
}

TEST(TjpegTest, NonMultipleOf8Dimensions) {
  Image rgb = videogen::Still(33, 21, 4);
  auto encoded = TjpegEncode(rgb, 60);
  ASSERT_TRUE(encoded.ok());
  auto decoded = TjpegDecode(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width, 33);
  EXPECT_EQ(decoded->height, 21);
  EXPECT_GT(*Psnr(rgb, *decoded), 18.0);
}

TEST(TjpegTest, RejectsGarbage) {
  Bytes garbage = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_TRUE(TjpegDecode(garbage).status().IsCorruption());
  EXPECT_TRUE(TjpegDecode(Bytes{}).status().IsCorruption());
  Image rgb = Image::Zero(8, 8, ColorModel::kRgb24);
  EXPECT_TRUE(TjpegEncode(rgb, 0).status().IsInvalidArgument());
  EXPECT_TRUE(TjpegEncode(rgb, 101).status().IsInvalidArgument());
}

TEST(TjpegTest, TruncatedPayloadIsCorruption) {
  Image rgb = videogen::Still(32, 32, 9);
  auto encoded = TjpegEncode(rgb, 50);
  ASSERT_TRUE(encoded.ok());
  Bytes truncated(encoded->begin(), encoded->begin() + encoded->size() / 2);
  EXPECT_FALSE(TjpegDecode(truncated).ok());
}

// ---------------------------------------------------------------------------
// RLE

class RleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RleRoundTrip, Identity) {
  // Mix of runs and literals seeded by the parameter.
  Bytes data;
  uint32_t state = static_cast<uint32_t>(GetParam()) * 2654435761u + 1;
  for (int i = 0; i < 5000; ++i) {
    state = state * 1664525u + 1013904223u;
    if ((state >> 28) < 6) {
      // Insert a run.
      uint8_t value = static_cast<uint8_t>(state);
      size_t length = (state >> 8) % 300 + 1;
      data.insert(data.end(), length, value);
    } else {
      data.push_back(static_cast<uint8_t>(state >> 16));
    }
  }
  Bytes encoded = RleEncode(data);
  auto decoded = RleDecode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleRoundTrip, ::testing::Range(1, 9));

TEST(RleTest, CompressesRuns) {
  Bytes runs(10000, 0xAA);
  Bytes encoded = RleEncode(runs);
  EXPECT_LT(encoded.size(), runs.size() / 20);
  EXPECT_EQ(*RleDecode(encoded), runs);
}

TEST(RleTest, EmptyAndTruncated) {
  EXPECT_TRUE(RleEncode(Bytes{}).empty());
  EXPECT_TRUE(RleDecode(Bytes{})->empty());
  Bytes truncated = {static_cast<uint8_t>(10)};  // Claims 11 literals.
  EXPECT_TRUE(RleDecode(truncated).status().IsCorruption());
  Bytes truncated_run = {static_cast<uint8_t>(200)};  // Run without value.
  EXPECT_TRUE(RleDecode(truncated_run).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// TMPEG

std::vector<Image> SmallClip(int64_t frames, uint32_t scene = 21) {
  return videogen::Clip(64, 48, frames, scene);
}

TEST(TmpegTest, ForwardDeltaRoundTrip) {
  std::vector<Image> clip = SmallClip(12);
  TmpegConfig config;
  config.quality = 60;
  config.key_interval = 4;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->size(), clip.size());
  // Storage order equals presentation order in forward mode.
  for (size_t i = 0; i < encoded->size(); ++i) {
    EXPECT_EQ((*encoded)[i].presentation_index, static_cast<int64_t>(i));
  }
  auto decoded = TmpegDecodeSequence(*encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), clip.size());
  for (size_t i = 0; i < clip.size(); ++i) {
    EXPECT_GT(*Psnr(clip[i], (*decoded)[i]), 22.0) << "frame " << i;
  }
}

TEST(TmpegTest, KeyFramesAtInterval) {
  std::vector<Image> clip = SmallClip(10);
  TmpegConfig config;
  config.key_interval = 4;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  for (size_t i = 0; i < encoded->size(); ++i) {
    FrameKind expected =
        (i % 4 == 0) ? FrameKind::kKey : FrameKind::kDelta;
    EXPECT_EQ((*encoded)[i].kind, expected) << "frame " << i;
  }
}

TEST(TmpegTest, DeltaFramesAreSmallerThanKeys) {
  std::vector<Image> clip = SmallClip(12);
  TmpegConfig config;
  config.key_interval = 6;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  uint64_t key_bytes = 0, key_count = 0, delta_bytes = 0, delta_count = 0;
  for (const TmpegFrame& frame : *encoded) {
    if (frame.kind == FrameKind::kKey) {
      key_bytes += frame.data.size();
      ++key_count;
    } else {
      delta_bytes += frame.data.size();
      ++delta_count;
    }
  }
  ASSERT_GT(key_count, 0u);
  ASSERT_GT(delta_count, 0u);
  EXPECT_LT(delta_bytes / delta_count, key_bytes / key_count);
}

TEST(TmpegTest, BidirectionalStorageOrderIsOutOfOrder) {
  // The paper's example: four elements, first and last keys, stored
  // 1,4,2,3.
  std::vector<Image> clip = SmallClip(4);
  TmpegConfig config;
  config.key_interval = 3;
  config.bidirectional = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  std::vector<int64_t> storage_order;
  for (const TmpegFrame& frame : *encoded) {
    storage_order.push_back(frame.presentation_index);
  }
  EXPECT_EQ(storage_order, (std::vector<int64_t>{0, 3, 1, 2}));
  EXPECT_EQ((*encoded)[0].kind, FrameKind::kKey);
  EXPECT_EQ((*encoded)[1].kind, FrameKind::kKey);
  EXPECT_EQ((*encoded)[2].kind, FrameKind::kBidirectional);
  EXPECT_EQ((*encoded)[2].ref_before, 0);
  EXPECT_EQ((*encoded)[2].ref_after, 3);
}

TEST(TmpegTest, BidirectionalRoundTrip) {
  std::vector<Image> clip = SmallClip(13, 33);
  TmpegConfig config;
  config.quality = 60;
  config.key_interval = 6;
  config.bidirectional = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  auto decoded = TmpegDecodeSequence(*encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), clip.size());
  for (size_t i = 0; i < clip.size(); ++i) {
    EXPECT_GT(*Psnr(clip[i], (*decoded)[i]), 20.0) << "frame " << i;
  }
}

TEST(TmpegTest, InterframeBeatsIntraframeOnCoherentVideo) {
  std::vector<Image> clip = SmallClip(24, 44);
  TmpegConfig inter;
  inter.quality = 50;
  inter.key_interval = 12;
  auto encoded = TmpegEncodeSequence(clip, inter);
  ASSERT_TRUE(encoded.ok());
  uint64_t inter_bytes = 0;
  for (const TmpegFrame& frame : *encoded) inter_bytes += frame.data.size();
  uint64_t intra_bytes = 0;
  for (const Image& frame : clip) {
    auto tjpeg = TjpegEncode(frame, 50);
    ASSERT_TRUE(tjpeg.ok());
    intra_bytes += tjpeg->size();
  }
  EXPECT_LT(inter_bytes, intra_bytes);
}

TEST(TmpegTest, DeltaBeforeKeyIsFailedPrecondition) {
  std::vector<Image> clip = SmallClip(6);
  TmpegConfig config;
  config.key_interval = 3;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  // Drop the first key: its deltas cannot decode.
  std::vector<TmpegFrame> broken(encoded->begin() + 1, encoded->end());
  EXPECT_TRUE(TmpegDecodeSequence(broken).status().IsFailedPrecondition());
}

TEST(TmpegTest, KeysOnlyDecodeIsScalableRead) {
  std::vector<Image> clip = SmallClip(12, 55);
  TmpegConfig config;
  config.key_interval = 4;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  auto keys = TmpegDecodeKeysOnly(*encoded);
  ASSERT_TRUE(keys.ok());
  ASSERT_EQ(keys->size(), 3u);  // Frames 0, 4, 8.
  EXPECT_EQ((*keys)[0].first, 0);
  EXPECT_EQ((*keys)[1].first, 4);
  EXPECT_EQ((*keys)[2].first, 8);
  EXPECT_GT(*Psnr(clip[4], (*keys)[1].second), 22.0);
}

TEST(TmpegTest, ParseFrameRecoversMetadata) {
  std::vector<Image> clip = SmallClip(4);
  TmpegConfig config;
  config.key_interval = 2;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  for (const TmpegFrame& frame : *encoded) {
    auto parsed = TmpegParseFrame(frame.data);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind, frame.kind);
    EXPECT_EQ(parsed->presentation_index, frame.presentation_index);
  }
}

TEST(TmpegTest, InvalidInputsRejected) {
  EXPECT_TRUE(TmpegEncodeSequence({}, TmpegConfig{})
                  .status()
                  .IsInvalidArgument());
  std::vector<Image> mixed = {videogen::Still(32, 32, 1),
                              videogen::Still(64, 64, 1)};
  EXPECT_TRUE(
      TmpegEncodeSequence(mixed, TmpegConfig{}).status().IsInvalidArgument());
}

// A translating scene: the whole frame shifts right 2 px per frame —
// ideal for motion compensation.
std::vector<Image> PanningClip(int64_t frames) {
  Image wide = videogen::Still(160, 64, 66);
  // Texture the scene: without high-frequency content, a plain delta of
  // a smooth gradient is nearly as cheap as a motion-compensated one.
  Bytes textured = wide.data.MutableCopy();
  for (int32_t y = 0; y < wide.height; ++y) {
    for (int32_t x = 0; x < wide.width; ++x) {
      // Unsigned arithmetic: the hash is meant to wrap.
      uint32_t h = static_cast<uint32_t>(x) * 374761393u +
                   static_cast<uint32_t>(y) * 668265263u;
      h = (h ^ (h >> 13)) * 1274126177;
      int noise = static_cast<int>(h % 97) - 48;
      for (int c = 0; c < 3; ++c) {
        int v = textured[3 * (y * wide.width + x) + c] + noise;
        textured[3 * (y * wide.width + x) + c] =
            static_cast<uint8_t>(std::clamp(v, 0, 255));
      }
    }
  }
  wide.data = std::move(textured);
  std::vector<Image> out;
  for (int64_t f = 0; f < frames; ++f) {
    Image frame = Image::Zero(96, 64, ColorModel::kRgb24);
    Bytes pixels(frame.data.size(), 0);
    for (int32_t y = 0; y < 64; ++y) {
      for (int32_t x = 0; x < 96; ++x) {
        int32_t sx = std::min<int32_t>(x + 2 * static_cast<int32_t>(f), 159);
        for (int c = 0; c < 3; ++c) {
          pixels[3 * (y * 96 + x) + c] = wide.data[3 * (y * 160 + sx) + c];
        }
      }
    }
    frame.data = std::move(pixels);
    out.push_back(std::move(frame));
  }
  return out;
}

TEST(TmpegTest, MotionCompensationRoundTrip) {
  std::vector<Image> clip = PanningClip(8);
  TmpegConfig config;
  config.quality = 60;
  config.key_interval = 8;
  config.motion_compensation = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto decoded = TmpegDecodeSequence(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), clip.size());
  for (size_t i = 0; i < clip.size(); ++i) {
    EXPECT_GT(*Psnr(clip[i], (*decoded)[i]), 22.0) << "frame " << i;
  }
}

TEST(TmpegTest, MotionCompensationShrinksPanningDeltas) {
  std::vector<Image> clip = PanningClip(8);
  TmpegConfig plain;
  plain.quality = 60;
  plain.key_interval = 8;
  TmpegConfig mc = plain;
  mc.motion_compensation = true;
  auto without = TmpegEncodeSequence(clip, plain);
  auto with = TmpegEncodeSequence(clip, mc);
  ASSERT_TRUE(without.ok() && with.ok());
  auto delta_bytes = [](const std::vector<TmpegFrame>& frames) {
    uint64_t total = 0;
    for (const TmpegFrame& frame : frames) {
      if (frame.kind == FrameKind::kDelta) total += frame.data.size();
    }
    return total;
  };
  // On a pure 2 px/frame pan, ±4 px full search should cut the residual
  // substantially (motion vectors cost 2 bytes per 16x16 block).
  EXPECT_LT(delta_bytes(*with), delta_bytes(*without) * 7 / 10);
}

TEST(TmpegTest, MotionCompensatedStreamThroughParseFrame) {
  std::vector<Image> clip = PanningClip(4);
  TmpegConfig config;
  config.key_interval = 4;
  config.motion_compensation = true;
  auto encoded = TmpegEncodeSequence(clip, config);
  ASSERT_TRUE(encoded.ok());
  // Parsing and re-decoding from parsed frames works (the codec-bridge
  // path).
  std::vector<TmpegFrame> parsed;
  for (const TmpegFrame& frame : *encoded) {
    auto p = TmpegParseFrame(frame.data);
    ASSERT_TRUE(p.ok());
    parsed.push_back(std::move(*p));
  }
  auto decoded = TmpegDecodeSequence(parsed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 4u);
}

// ---------------------------------------------------------------------------
// Synthetic generator

TEST(SyntheticTest, DeterministicPerScene) {
  Image a = videogen::Frame(32, 32, 5, 7);
  Image b = videogen::Frame(32, 32, 5, 7);
  EXPECT_EQ(a.data, b.data);
  Image other_scene = videogen::Frame(32, 32, 5, 8);
  EXPECT_NE(a.data, other_scene.data);
  Image other_frame = videogen::Frame(32, 32, 6, 7);
  EXPECT_NE(a.data, other_frame.data);
}

TEST(SyntheticTest, TemporalCoherence) {
  // Consecutive frames should differ by much less than distant ones —
  // this is what makes interframe coding effective.
  Image f0 = videogen::Frame(64, 48, 0, 12);
  Image f1 = videogen::Frame(64, 48, 1, 12);
  Image f50 = videogen::Frame(64, 48, 50, 12);
  EXPECT_GT(*Psnr(f0, f1), *Psnr(f0, f50));
}

}  // namespace
}  // namespace tbm
