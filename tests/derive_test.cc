#include <gtest/gtest.h>

#include <cmath>

#include "codec/color.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "derive/graph.h"
#include "derive/operators.h"

namespace tbm {
namespace {

const DerivationRegistry& Reg() { return DerivationRegistry::Builtin(); }

VideoValue SmallVideo(int64_t frames, uint32_t scene = 3) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(48, 32, frames, scene);
  return video;
}

// ---------------------------------------------------------------------------
// Registry metadata reproduces Table 1

struct Table1Row {
  const char* name;
  MediaKind arg0;
  MediaKind result;
  DerivationCategory category;
  size_t arity;
};

// Names the test case after the row, e.g. ".../color_separation"; the
// default printer would dump the row's bytes, pointer included.
void PrintTo(const Table1Row& row, std::ostream* os) {
  for (const char* c = row.name; *c != '\0'; ++c) {
    *os << (*c == ' ' ? '_' : *c);
  }
}

class Table1Test : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Test, SignatureMatchesPaper) {
  const Table1Row& row = GetParam();
  auto op = Reg().Find(row.name);
  ASSERT_TRUE(op.ok()) << row.name;
  EXPECT_EQ((*op)->arg_kinds.size(), row.arity);
  EXPECT_EQ((*op)->arg_kinds[0], row.arg0);
  EXPECT_EQ((*op)->result_kind, row.result);
  EXPECT_EQ((*op)->category, row.category);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1Test,
    ::testing::Values(
        Table1Row{"color separation", MediaKind::kImage, MediaKind::kImage,
                  DerivationCategory::kContent, 1},
        Table1Row{"audio normalization", MediaKind::kAudio, MediaKind::kAudio,
                  DerivationCategory::kContent, 1},
        Table1Row{"video edit", MediaKind::kVideo, MediaKind::kVideo,
                  DerivationCategory::kTiming, 1},
        Table1Row{"video transition", MediaKind::kVideo, MediaKind::kVideo,
                  DerivationCategory::kContent, 2},
        Table1Row{"MIDI synthesis", MediaKind::kMusic, MediaKind::kAudio,
                  DerivationCategory::kType, 1}));

TEST(RegistryTest, UnknownOpIsNotFound) {
  EXPECT_TRUE(Reg().Find("teleport").status().IsNotFound());
}

TEST(RegistryTest, ArityAndKindChecked) {
  MediaValue audio = audiogen::Sine(8000, 1, 440, 0.5, 0.1);
  MediaValue video = SmallVideo(2);
  AttrMap params;
  // Wrong arity.
  EXPECT_TRUE(Reg()
                  .Apply("audio mix", {&audio}, params)
                  .status()
                  .IsInvalidArgument());
  // Wrong kind — the paper: "an audio sequence cannot be concatenated
  // to a video sequence."
  EXPECT_TRUE(Reg()
                  .Apply("audio concat", {&audio, &video}, params)
                  .status()
                  .IsInvalidArgument());
}

DerivationOp UnaryAudioOp(std::string name) {
  DerivationOp op;
  op.name = std::move(name);
  op.arg_kinds = {MediaKind::kAudio};
  op.result_kind = MediaKind::kAudio;
  op.category = DerivationCategory::kContent;
  return op;
}

TEST(RegistryTest, RegisterRequiresExactlyOneEvaluator) {
  DerivationRegistry registry;
  EXPECT_TRUE(registry.Register(UnaryAudioOp("neither"))
                  .IsInvalidArgument());

  DerivationOp both = UnaryAudioOp("both");
  both.fn = [](const std::vector<const MediaValue*>& args,
               const AttrMap&) -> Result<MediaValue> { return *args[0]; };
  both.stage_fn = [](MediaValue value, const AttrMap&) -> Result<MediaValue> {
    return value;
  };
  EXPECT_TRUE(registry.Register(both).IsInvalidArgument());
  EXPECT_TRUE(registry.Find("both").status().IsNotFound());

  // Each built-in op carries exactly one evaluator.
  for (const std::string& name : Reg().Names()) {
    const DerivationOp* op = *Reg().Find(name);
    EXPECT_NE(op->fn == nullptr, op->stage_fn == nullptr) << name;
  }
}

TEST(RegistryTest, StageFnRequiresOneArgument) {
  DerivationRegistry registry;
  for (size_t arity : {0u, 2u}) {
    DerivationOp op = UnaryAudioOp("stage of arity " + std::to_string(arity));
    op.arg_kinds.assign(arity, MediaKind::kAudio);
    op.stage_fn = [](MediaValue value, const AttrMap&) -> Result<MediaValue> {
      return value;
    };
    EXPECT_TRUE(registry.Register(op).IsInvalidArgument()) << arity;
  }
  DerivationOp unary = UnaryAudioOp("unary stage");
  unary.stage_fn = [](MediaValue value, const AttrMap&) -> Result<MediaValue> {
    return value;
  };
  ASSERT_TRUE(registry.Register(unary).ok());
  MediaValue audio = audiogen::Sine(8000, 1, 440, 0.5, 0.1);
  EXPECT_TRUE(registry.Apply("unary stage", {&audio}, AttrMap{}).ok());
}

// ---------------------------------------------------------------------------
// Parameter keys

TEST(ParamAliasTest, CanonicalSpacedKeyWinsOverAlias) {
  MediaValue tone = audiogen::Sine(8000, 1, 440, 0.2, 0.5);
  AttrMap both;
  both.SetDouble("target peak", 0.9);
  both.SetDouble("target_peak", 0.1);
  AttrMap canonical;
  canonical.SetDouble("target peak", 0.9);
  auto a = Reg().Apply("audio normalization", {&tone}, both);
  auto b = Reg().Apply("audio normalization", {&tone}, canonical);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(std::get<AudioBuffer>(*a).samples[777],
            std::get<AudioBuffer>(*b).samples[777]);

  // Keys have one spelling: an underscored key alone is an unknown
  // key, so the operator runs with its default.
  AttrMap underscored;
  underscored.SetDouble("target_peak", 0.1);
  auto c = Reg().Apply("audio normalization", {&tone}, underscored);
  auto d = Reg().Apply("audio normalization", {&tone}, AttrMap{});
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(std::get<AudioBuffer>(*c).samples[777],
            std::get<AudioBuffer>(*d).samples[777]);
  EXPECT_NE(std::get<AudioBuffer>(*c).samples[777],
            std::get<AudioBuffer>(*a).samples[777]);
}

// ---------------------------------------------------------------------------
// Audio operators

TEST(AudioOpsTest, NormalizationHitsTargetPeak) {
  MediaValue quiet = audiogen::Sine(8000, 1, 440, 0.2, 0.2);
  AttrMap params;
  params.SetDouble("target peak", 0.9);
  auto result = Reg().Apply("audio normalization", {&quiet}, params);
  ASSERT_TRUE(result.ok()) << result.status();
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  EXPECT_NEAR(PeakAmplitude(out), 0.9 * 32767, 200);
}

TEST(AudioOpsTest, NormalizationOfSilenceIsNoOp) {
  MediaValue silence = audiogen::Silence(8000, 1, 0.1);
  auto result = Reg().Apply("audio normalization", {&silence}, AttrMap{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PeakAmplitude(std::get<AudioBuffer>(*result)), 0);
}

TEST(AudioOpsTest, NormalizationSpanParameters) {
  // Paper: "the parameters needed are the start and end points of the
  // audio sequence to be normalized."
  AudioBuffer buffer = audiogen::Sine(8000, 1, 440, 0.2, 1.0);
  MediaValue value = buffer;
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("end frame", 4000);
  auto result = Reg().Apply("audio normalization", {&value}, params);
  ASSERT_TRUE(result.ok());
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  // First half amplified, second half untouched. (Index 1001: sample
  // 1000 of a 440 Hz tone at 8 kHz lands exactly on a zero crossing.)
  EXPECT_GT(std::abs(out.samples[1001]), std::abs(buffer.samples[1001]));
  EXPECT_EQ(out.samples[6001], buffer.samples[6001]);
  // Bad span rejected.
  params.SetInt("end frame", 999999);
  EXPECT_TRUE(Reg()
                  .Apply("audio normalization", {&value}, params)
                  .status()
                  .IsOutOfRange());
}

TEST(AudioOpsTest, GainClampsAtFullScale) {
  MediaValue loud = audiogen::Sine(8000, 1, 440, 0.9, 0.1);
  AttrMap params;
  params.SetDouble("gain", 10.0);
  auto result = Reg().Apply("audio gain", {&loud}, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PeakAmplitude(std::get<AudioBuffer>(*result)), 32767);
}

TEST(AudioOpsTest, MixWithOffset) {
  MediaValue a = audiogen::Sine(8000, 1, 440, 0.3, 0.5);
  MediaValue b = audiogen::Sine(8000, 1, 880, 0.3, 0.5);
  AttrMap params;
  params.SetInt("offset frames", 2000);
  auto result = Reg().Apply("audio mix", {&a, &b}, params);
  ASSERT_TRUE(result.ok());
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  EXPECT_EQ(out.FrameCount(), 2000 + 4000);
  // Mismatched formats rejected.
  MediaValue other_rate = audiogen::Sine(44100, 1, 440, 0.3, 0.1);
  EXPECT_TRUE(Reg()
                  .Apply("audio mix", {&a, &other_rate}, AttrMap{})
                  .status()
                  .IsInvalidArgument());
}

TEST(AudioOpsTest, CutAndConcatInverse) {
  AudioBuffer buffer = audiogen::Noise(8000, 2, 0.4, 0.5, 17);
  MediaValue value = buffer;
  AttrMap head_params;
  head_params.SetInt("start frame", 0);
  head_params.SetInt("frame count", 1500);
  auto head = Reg().Apply("audio cut", {&value}, head_params);
  AttrMap tail_params;
  tail_params.SetInt("start frame", 1500);
  auto tail = Reg().Apply("audio cut", {&value}, tail_params);
  ASSERT_TRUE(head.ok() && tail.ok());
  auto rejoined = Reg().Apply("audio concat", {&*head, &*tail}, AttrMap{});
  ASSERT_TRUE(rejoined.ok());
  EXPECT_EQ(std::get<AudioBuffer>(*rejoined).samples, buffer.samples);
}

TEST(AudioOpsTest, ResampleChangesRateKeepsDuration) {
  MediaValue cd = audiogen::Sine(44100, 1, 440, 0.5, 0.5);
  AttrMap params;
  params.SetInt("target rate", 8000);
  auto result = Reg().Apply("audio resample", {&cd}, params);
  ASSERT_TRUE(result.ok());
  const AudioBuffer& out = std::get<AudioBuffer>(*result);
  EXPECT_EQ(out.sample_rate, 8000);
  EXPECT_NEAR(out.DurationSeconds(), 0.5, 0.01);
}

// ---------------------------------------------------------------------------
// Image operators

TEST(ImageOpsTest, ColorSeparationProducesCmyk) {
  MediaValue image = videogen::Still(32, 32, 5);
  AttrMap params;
  params.SetDouble("black generation", 0.8);
  auto result = Reg().Apply("color separation", {&image}, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<Image>(*result).model, ColorModel::kCmyk32);
}

TEST(ImageOpsTest, FiltersWork) {
  MediaValue image = videogen::Still(32, 32, 6);
  AttrMap invert;
  invert.SetString("kind", "invert");
  auto inverted = Reg().Apply("image filter", {&image}, invert);
  ASSERT_TRUE(inverted.ok());
  const Image& original = std::get<Image>(image);
  const Image& out = std::get<Image>(*inverted);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.data[i], 255 - original.data[i]);
  }
  AttrMap blur;
  blur.SetString("kind", "box blur");
  blur.SetInt("radius", 2);
  EXPECT_TRUE(Reg().Apply("image filter", {&image}, blur).ok());
  AttrMap unknown;
  unknown.SetString("kind", "sharpen");
  EXPECT_TRUE(Reg()
                  .Apply("image filter", {&image}, unknown)
                  .status()
                  .IsInvalidArgument());
}

TEST(ImageOpsTest, ReencodeIsLossyButClose) {
  MediaValue image = videogen::Still(64, 64, 7);
  AttrMap params;
  params.SetInt("quality", 80);
  auto result = Reg().Apply("image reencode", {&image}, params);
  ASSERT_TRUE(result.ok());
  double psnr = *Psnr(std::get<Image>(image), std::get<Image>(*result));
  EXPECT_GT(psnr, 28.0);
  EXPECT_LT(psnr, 99.0);  // Actually lossy.
}

// ---------------------------------------------------------------------------
// Video operators

TEST(VideoOpsTest, EditSelectsSpan) {
  MediaValue video = SmallVideo(20);
  AttrMap params;
  params.SetInt("start frame", 5);
  params.SetInt("frame count", 10);
  auto result = Reg().Apply("video edit", {&video}, params);
  ASSERT_TRUE(result.ok());
  const VideoValue& out = std::get<VideoValue>(*result);
  EXPECT_EQ(out.frames.size(), 10u);
  EXPECT_EQ(out.frames[0].data, std::get<VideoValue>(video).frames[5].data);
  params.SetInt("frame count", 100);
  EXPECT_TRUE(
      Reg().Apply("video edit", {&video}, params).status().IsOutOfRange());
}

TEST(VideoOpsTest, ConcatRequiresMatchingRates) {
  MediaValue a = SmallVideo(5);
  VideoValue b_value = SmallVideo(5, 4);
  b_value.frame_rate = Rational(30);
  MediaValue b = b_value;
  EXPECT_TRUE(Reg()
                  .Apply("video concat", {&a, &b}, AttrMap{})
                  .status()
                  .IsInvalidArgument());
  MediaValue c = SmallVideo(5, 4);
  auto result = Reg().Apply("video concat", {&a, &c}, AttrMap{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<VideoValue>(*result).frames.size(), 10u);
}

TEST(VideoOpsTest, FadeBlendsMonotonically) {
  MediaValue a = SmallVideo(12, 10);
  MediaValue b = SmallVideo(12, 20);
  AttrMap params;
  params.SetString("kind", "fade");
  params.SetInt("duration frames", 6);
  auto result = Reg().Apply("video transition", {&a, &b}, params);
  ASSERT_TRUE(result.ok());
  const VideoValue& out = std::get<VideoValue>(*result);
  // Length: (12-6) + 6 + (12-6) = 18.
  EXPECT_EQ(out.frames.size(), 18u);
  const VideoValue& va = std::get<VideoValue>(a);
  const VideoValue& vb = std::get<VideoValue>(b);
  // Pre-transition frames untouched.
  EXPECT_EQ(out.frames[0].data, va.frames[0].data);
  // Post-transition frames come from B.
  EXPECT_EQ(out.frames[17].data, vb.frames[11].data);
  // Transition frames move from A-like to B-like.
  auto diff = [](const Image& x, const Image& y) {
    double total = 0;
    for (size_t i = 0; i < x.data.size(); ++i) {
      total += std::abs(static_cast<int>(x.data[i]) - y.data[i]);
    }
    return total;
  };
  double early_vs_a = diff(out.frames[6], va.frames[6]);
  double late_vs_a = diff(out.frames[11], va.frames[11]);
  EXPECT_LT(early_vs_a, late_vs_a);
}

TEST(VideoOpsTest, WipeRevealsLeftToRight) {
  MediaValue a = SmallVideo(8, 10);
  MediaValue b = SmallVideo(8, 20);
  AttrMap params;
  params.SetString("kind", "wipe");
  params.SetInt("duration frames", 4);
  auto result = Reg().Apply("video transition", {&a, &b}, params);
  ASSERT_TRUE(result.ok());
  const VideoValue& out = std::get<VideoValue>(*result);
  const VideoValue& va = std::get<VideoValue>(a);
  const VideoValue& vb = std::get<VideoValue>(b);
  // In an early wipe frame the right edge is still A, the left edge is
  // already B.
  const Image& mid = out.frames[4 + 2];  // Third transition frame.
  const Image& src_a = va.frames[4 + 2];
  const Image& src_b = vb.frames[2];
  int w = mid.width;
  int y = mid.height / 2;
  EXPECT_EQ(mid.data[3 * (y * w + 1)], src_b.data[3 * (y * w + 1)]);
  EXPECT_EQ(mid.data[3 * (y * w + w - 2)], src_a.data[3 * (y * w + w - 2)]);
}

TEST(VideoOpsTest, TransitionParameterValidation) {
  MediaValue a = SmallVideo(4);
  MediaValue b = SmallVideo(4, 9);
  AttrMap params;
  params.SetInt("duration frames", 10);  // Longer than inputs.
  EXPECT_TRUE(Reg()
                  .Apply("video transition", {&a, &b}, params)
                  .status()
                  .IsOutOfRange());
  params.SetInt("duration frames", 2);
  params.SetString("kind", "dissolve");
  EXPECT_TRUE(Reg()
                  .Apply("video transition", {&a, &b}, params)
                  .status()
                  .IsInvalidArgument());
}

TEST(VideoOpsTest, ChromaKeyReplacesKeyColor) {
  // Foreground: green screen with a red box; background: synthetic.
  VideoValue fg;
  fg.frame_rate = Rational(25);
  for (int f = 0; f < 3; ++f) {
    Image frame = Image::Zero(32, 32, ColorModel::kRgb24);
    Bytes pixels(frame.data.size(), 0);
    for (size_t i = 0; i < pixels.size(); i += 3) {
      pixels[i] = 0;
      pixels[i + 1] = 255;
      pixels[i + 2] = 0;
    }
    for (int y = 10; y < 20; ++y) {
      for (int x = 10; x < 20; ++x) {
        size_t p = 3 * (static_cast<size_t>(y) * 32 + x);
        pixels[p] = 200;
        pixels[p + 1] = 0;
        pixels[p + 2] = 0;
      }
    }
    frame.data = std::move(pixels);
    fg.frames.push_back(std::move(frame));
  }
  MediaValue fg_value = fg;
  MediaValue bg_value = SmallVideo(3, 30);
  // Geometry must match: regenerate bg at 32x32.
  VideoValue bg;
  bg.frame_rate = Rational(25);
  bg.frames = videogen::Clip(32, 32, 3, 30);
  bg_value = bg;
  auto result = Reg().Apply("chroma key", {&fg_value, &bg_value}, AttrMap{});
  ASSERT_TRUE(result.ok()) << result.status();
  const VideoValue& out = std::get<VideoValue>(*result);
  // Green pixels replaced by background; red box kept.
  size_t corner = 0;
  EXPECT_EQ(out.frames[0].data[corner], bg.frames[0].data[corner]);
  size_t box = 3 * (15 * 32 + 15);
  EXPECT_EQ(out.frames[0].data[box], 200);
}

// ---------------------------------------------------------------------------
// Type-changing and generic timing operators

TEST(TypeOpsTest, MidiSynthesisChangesKind) {
  MidiSequence seq(480, 120.0);
  ASSERT_TRUE(seq.AddNote(0, 960, 60).ok());
  MediaValue music = seq;
  EXPECT_EQ(KindOfValue(music), MediaKind::kMusic);
  AttrMap params;
  params.SetInt("sample rate", 8000);
  params.SetInt("channels", 1);
  auto result = Reg().Apply("MIDI synthesis", {&music}, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(KindOfValue(*result), MediaKind::kAudio);
}

TEST(TypeOpsTest, AnimationRenderChangesKind) {
  AnimationScene scene(64, 48, Rational(25));
  SceneObject ball;
  ball.id = 1;
  ball.x = 10;
  ball.y = 10;
  ASSERT_TRUE(scene.AddObject(ball).ok());
  ASSERT_TRUE(scene.AddMovement({0, 20, 1, 50, 40}).ok());
  MediaValue value = scene;
  auto result = Reg().Apply("animation render", {&value}, AttrMap{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(KindOfValue(*result), MediaKind::kVideo);
  EXPECT_EQ(std::get<VideoValue>(*result).frames.size(), 21u);
}

TEST(TimingOpsTest, TranslateShiftsAnyStream) {
  // Works on a music-kind timed stream, showing genericity.
  MidiSequence seq(480, 120.0);
  ASSERT_TRUE(seq.AddNote(0, 480, 60).ok());
  auto stream = seq.ToEventStream();
  ASSERT_TRUE(stream.ok());
  MediaValue value = *stream;
  AttrMap params;
  params.SetInt("offset", 100);
  auto result = Reg().Apply("temporal translate", {&value}, params);
  ASSERT_TRUE(result.ok());
  const TimedStream& out = std::get<TimedStream>(*result);
  EXPECT_EQ(out.at(0).start, 100);
  EXPECT_EQ(out.descriptor().kind, MediaKind::kMusic);
  // Negative overshoot rejected.
  params.SetInt("offset", -1000);
  EXPECT_TRUE(Reg()
                  .Apply("temporal translate", {&value}, params)
                  .status()
                  .IsOutOfRange());
  // Non-stream value rejected by the generic check.
  MediaValue audio = audiogen::Sine(8000, 1, 440, 0.5, 0.1);
  EXPECT_TRUE(Reg()
                  .Apply("temporal translate", {&audio}, params)
                  .status()
                  .IsInvalidArgument());
}

TEST(TimingOpsTest, ScaleStretchesTimes) {
  MidiSequence seq(480, 120.0);
  ASSERT_TRUE(seq.AddNote(100, 400, 60).ok());
  auto stream = seq.ToNoteStream();
  ASSERT_TRUE(stream.ok());
  MediaValue value = *stream;
  AttrMap params;
  params.SetInt("scale num", 2);
  params.SetInt("scale den", 1);
  auto result = Reg().Apply("temporal scale", {&value}, params);
  ASSERT_TRUE(result.ok());
  const TimedStream& out = std::get<TimedStream>(*result);
  EXPECT_EQ(out.at(0).start, 200);
  EXPECT_EQ(out.at(0).duration, 800);
}

// ---------------------------------------------------------------------------
// Derivation graph

TEST(GraphTest, EvaluatesAndCaches) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(audiogen::Sine(8000, 1, 440, 0.2, 0.2), "tone");
  AttrMap params;
  params.SetDouble("target peak", 0.9);
  auto derived = graph.AddDerived("audio normalization", {leaf}, params,
                                  "normalized");
  ASSERT_TRUE(derived.ok());
  auto value = graph.Evaluate(*derived);
  ASSERT_TRUE(value.ok());
  const MediaValue* first_pointer = value->get();
  // Second evaluation returns the cached value.
  auto again = graph.Evaluate(*derived);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first_pointer);
  graph.DropCache();
  auto fresh = graph.Evaluate(*derived);
  ASSERT_TRUE(fresh.ok());
  // The dropped value stays alive (and intact) through the earlier ref.
  EXPECT_NE(fresh->get(), first_pointer);
  EXPECT_EQ(KindOfValue(**value), MediaKind::kAudio);
}

TEST(GraphTest, ChainsAndDagSharing) {
  DerivationGraph graph;
  NodeId video = graph.AddLeaf(SmallVideo(10), "clip");
  AttrMap cut1;
  cut1.SetInt("start frame", 0);
  cut1.SetInt("frame count", 4);
  AttrMap cut2;
  cut2.SetInt("start frame", 6);
  cut2.SetInt("frame count", 4);
  auto a = graph.AddDerived("video edit", {video}, cut1, "cut1");
  auto b = graph.AddDerived("video edit", {video}, cut2, "cut2");
  ASSERT_TRUE(a.ok() && b.ok());
  auto joined = graph.AddDerived("video concat", {*a, *b}, AttrMap{}, "joined");
  ASSERT_TRUE(joined.ok());
  auto value = graph.Evaluate(*joined);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(std::get<VideoValue>(**value).frames.size(), 8u);
}

TEST(GraphTest, BadReferencesAndOps) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(SmallVideo(2));
  EXPECT_TRUE(graph.AddDerived("no such op", {leaf}, AttrMap{})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(graph.AddDerived("video edit", {99}, AttrMap{})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(graph.AddDerived("video concat", {leaf}, AttrMap{})
                  .status()
                  .IsInvalidArgument());  // Arity.
  EXPECT_TRUE(graph.Evaluate(42).status().IsNotFound());
}

TEST(GraphTest, EvaluationErrorsPropagate) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(SmallVideo(3));
  AttrMap params;
  params.SetInt("start frame", 0);
  params.SetInt("frame count", 99);  // Out of range at evaluation time.
  auto derived = graph.AddDerived("video edit", {leaf}, params);
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE(graph.Evaluate(*derived).status().IsOutOfRange());
}

TEST(GraphTest, DerivationRecordIsTiny) {
  // The storage-saving claim: the record describing an edit is orders
  // of magnitude smaller than the expanded video.
  DerivationGraph graph;
  NodeId video = graph.AddLeaf(SmallVideo(30), "clip");
  AttrMap params;
  params.SetInt("start frame", 3);
  params.SetInt("frame count", 20);
  auto cut = graph.AddDerived("video edit", {video}, params, "cut");
  ASSERT_TRUE(cut.ok());
  auto record = graph.DerivationRecordBytes(*cut);
  ASSERT_TRUE(record.ok());
  auto value = graph.Evaluate(*cut);
  ASSERT_TRUE(value.ok());
  uint64_t expanded = ExpandedBytes(**value);
  EXPECT_LT(*record * 1000, expanded);
  EXPECT_LT(*record, 200u);
}

TEST(GraphTest, FeasibilityMeasuresExpansion) {
  DerivationGraph graph;
  NodeId audio =
      graph.AddLeaf(audiogen::Sine(44100, 2, 440, 0.4, 2.0), "tone");
  AttrMap params;
  params.SetDouble("gain", 0.5);
  auto derived = graph.AddDerived("audio gain", {audio}, params);
  ASSERT_TRUE(derived.ok());
  auto feasibility = graph.MeasureFeasibility(*derived);
  ASSERT_TRUE(feasibility.ok());
  EXPECT_GT(feasibility->presentation_seconds, 1.9);
  EXPECT_GT(feasibility->expansion_seconds, 0.0);
  // A simple gain over 2 s of audio is comfortably real-time on any
  // machine this test runs on.
  EXPECT_TRUE(feasibility->real_time);
}

TEST(ValueTest, KindAndSizeHelpers) {
  MediaValue audio = audiogen::Sine(8000, 2, 440, 0.5, 1.0);
  EXPECT_EQ(KindOfValue(audio), MediaKind::kAudio);
  EXPECT_EQ(ExpandedBytes(audio), 8000u * 2 * 2);
  EXPECT_NEAR(PresentationSeconds(audio), 1.0, 1e-9);
  MediaValue image = videogen::Still(10, 10, 1);
  EXPECT_EQ(KindOfValue(image), MediaKind::kImage);
  EXPECT_EQ(PresentationSeconds(image), 0.0);
  MediaValue video = SmallVideo(25);
  EXPECT_NEAR(PresentationSeconds(video), 1.0, 1e-9);
}

}  // namespace
}  // namespace tbm
