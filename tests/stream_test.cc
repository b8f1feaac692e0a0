#include <gtest/gtest.h>

#include "stream/category.h"
#include "stream/timed_stream.h"

namespace tbm {
namespace {

MediaDescriptor PcmDescriptor() {
  MediaDescriptor desc;
  desc.type_name = "audio/pcm";
  desc.kind = MediaKind::kAudio;
  desc.attrs.SetInt("sample rate", 44100);
  desc.attrs.SetInt("sample size", 16);
  desc.attrs.SetInt("number of channels", 2);
  desc.attrs.SetString("encoding", "PCM");
  return desc;
}

Bytes Data(size_t n, uint8_t fill = 0) { return Bytes(n, fill); }

// ---------------------------------------------------------------------------
// Def. 3 invariants

TEST(TimedStreamTest, AppendEnforcesOrdering) {
  TimedStream stream(PcmDescriptor(), TimeSystem(44100));
  EXPECT_TRUE(stream.Append({Data(4), 10, 5, {}}).ok());
  EXPECT_TRUE(stream.Append({Data(4), 15, 5, {}}).ok());
  // Equal start is allowed (chords); earlier start is not.
  EXPECT_TRUE(stream.Append({Data(4), 15, 2, {}}).ok());
  EXPECT_TRUE(stream.Append({Data(4), 14, 1, {}}).IsInvalidArgument());
  EXPECT_EQ(stream.size(), 3u);
}

TEST(TimedStreamTest, NegativeDurationRejected) {
  TimedStream stream(PcmDescriptor(), TimeSystem(44100));
  EXPECT_TRUE(stream.Append({Data(4), 0, -1, {}}).IsInvalidArgument());
}

TEST(TimedStreamTest, AppendContiguousChainsStarts) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  ASSERT_TRUE(stream.AppendContiguous(Data(10), 4).ok());
  ASSERT_TRUE(stream.AppendContiguous(Data(10), 4).ok());
  ASSERT_TRUE(stream.AppendContiguous(Data(10), 4).ok());
  EXPECT_EQ(stream.at(0).start, 0);
  EXPECT_EQ(stream.at(1).start, 4);
  EXPECT_EQ(stream.at(2).start, 8);
  EXPECT_EQ(stream.EndTime(), 12);
}

TEST(TimedStreamTest, SpanAndDuration) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  ASSERT_TRUE(stream.Append({Data(1), 5, 10, {}}).ok());
  ASSERT_TRUE(stream.Append({Data(1), 20, 5, {}}).ok());
  EXPECT_EQ(stream.StartTime(), 5);
  EXPECT_EQ(stream.EndTime(), 25);
  EXPECT_EQ(stream.DurationTicks(), 20);
  EXPECT_EQ(stream.DurationSeconds(), Rational(20, 25));
}

TEST(TimedStreamTest, EndTimeWithOverlapsIsMaxEnd) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  ASSERT_TRUE(stream.Append({Data(1), 0, 100, {}}).ok());  // Long element.
  ASSERT_TRUE(stream.Append({Data(1), 10, 5, {}}).ok());   // Inside it.
  EXPECT_EQ(stream.EndTime(), 100);
}

TEST(TimedStreamTest, TotalBytesAndRate) {
  TimedStream stream(PcmDescriptor(), TimeSystem(1));
  ASSERT_TRUE(stream.AppendContiguous(Data(1000), 1).ok());
  ASSERT_TRUE(stream.AppendContiguous(Data(1000), 1).ok());
  EXPECT_EQ(stream.TotalBytes(), 2000u);
  EXPECT_DOUBLE_EQ(stream.MeanDataRate(), 1000.0);  // 2000 B over 2 s.
}

TEST(TimedStreamTest, EmptyStream) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  EXPECT_TRUE(stream.empty());
  EXPECT_EQ(stream.EndTime(), 0);
  EXPECT_EQ(stream.MeanDataRate(), 0.0);
  EXPECT_TRUE(stream.ElementAtTime(0).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Lookup

TEST(TimedStreamTest, ElementAtTimeContinuous) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(stream.AppendContiguous(Data(1), 4).ok());
  }
  EXPECT_EQ(*stream.ElementAtTime(0), 0u);
  EXPECT_EQ(*stream.ElementAtTime(3), 0u);
  EXPECT_EQ(*stream.ElementAtTime(4), 1u);
  EXPECT_EQ(*stream.ElementAtTime(39), 9u);
  EXPECT_TRUE(stream.ElementAtTime(40).status().IsNotFound());
  EXPECT_TRUE(stream.ElementAtTime(-1).status().IsNotFound());
}

TEST(TimedStreamTest, ElementAtTimeWithGaps) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  ASSERT_TRUE(stream.Append({Data(1), 0, 5, {}}).ok());
  ASSERT_TRUE(stream.Append({Data(1), 10, 5, {}}).ok());  // Gap at [5,10).
  EXPECT_TRUE(stream.ElementAtTime(4).ok());
  EXPECT_TRUE(stream.ElementAtTime(7).status().IsNotFound());
  EXPECT_EQ(*stream.ElementAtTime(10), 1u);
}

TEST(TimedStreamTest, ElementAtTimeWithOverlaps) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  ASSERT_TRUE(stream.Append({Data(1), 0, 100, {}}).ok());
  ASSERT_TRUE(stream.Append({Data(1), 10, 5, {}}).ok());
  ASSERT_TRUE(stream.Append({Data(1), 50, 5, {}}).ok());
  // Time 60: only the long element covers it; scan must reach back.
  EXPECT_EQ(*stream.ElementAtTime(60), 0u);
  // Time 12: the latest-starting (most specific) match wins.
  EXPECT_EQ(*stream.ElementAtTime(12), 1u);
  // Time 52: element 2 starts latest and contains it.
  EXPECT_EQ(*stream.ElementAtTime(52), 2u);
}

TEST(TimedStreamTest, EventLookup) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  ASSERT_TRUE(stream.AppendEvent(Data(1), 5).ok());
  ASSERT_TRUE(stream.AppendEvent(Data(1), 9).ok());
  EXPECT_EQ(*stream.ElementAtTime(5), 0u);
  EXPECT_EQ(*stream.ElementAtTime(9), 1u);
  EXPECT_TRUE(stream.ElementAtTime(6).status().IsNotFound());
}

TEST(TimedStreamTest, ElementsInSpan) {
  TimedStream stream(PcmDescriptor(), TimeSystem(25));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(stream.AppendContiguous(Data(1), 10).ok());
  }
  auto hits = stream.ElementsInSpan(TickSpan{25, 30});  // [25, 55).
  EXPECT_EQ(hits, (std::vector<size_t>{2, 3, 4, 5}));
  EXPECT_TRUE(stream.ElementsInSpan(TickSpan{100, 10}).empty());
  // Events in span.
  TimedStream events(PcmDescriptor(), TimeSystem(25));
  ASSERT_TRUE(events.AppendEvent(Data(1), 5).ok());
  ASSERT_TRUE(events.AppendEvent(Data(1), 15).ok());
  EXPECT_EQ(events.ElementsInSpan(TickSpan{0, 10}).size(), 1u);
}

// ---------------------------------------------------------------------------
// Figure 1 categories

struct CategoryCase {
  const char* name;
  // Elements: (start, duration, size, descriptor tag).
  std::vector<std::tuple<int64_t, int64_t, size_t, int>> elements;
  const char* expected;
  bool continuous;
  bool event_based;
  bool homogeneous;
};

// Names the test case after the case, e.g. ".../uniform"; the default
// printer would dump the struct's bytes, pointers included.
void PrintTo(const CategoryCase& c, std::ostream* os) { *os << c.name; }

class CategoryTest : public ::testing::TestWithParam<CategoryCase> {};

TEST_P(CategoryTest, ClassifiesAsExpected) {
  const CategoryCase& c = GetParam();
  TimedStream stream(PcmDescriptor(), TimeSystem(100));
  for (const auto& [start, duration, size, tag] : c.elements) {
    StreamElement e;
    e.data = Data(size);
    e.start = start;
    e.duration = duration;
    if (tag != 0) e.descriptor.SetInt("variant", tag);
    ASSERT_TRUE(stream.Append(std::move(e)).ok());
  }
  StreamCategories cats = Classify(stream);
  EXPECT_EQ(cats.continuous, c.continuous) << c.name;
  EXPECT_EQ(cats.event_based, c.event_based) << c.name;
  EXPECT_EQ(cats.homogeneous, c.homogeneous) << c.name;
  EXPECT_EQ(cats.ToString(), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Figure1, CategoryTest,
    ::testing::Values(
        // Uniform: continuous, constant size and duration (raw audio).
        CategoryCase{"uniform",
                     {{0, 1, 4, 0}, {1, 1, 4, 0}, {2, 1, 4, 0}},
                     "homogeneous, uniform",
                     true,
                     false,
                     true},
        // Constant frequency, varying size (compressed video).
        CategoryCase{"constant_frequency",
                     {{0, 4, 100, 0}, {4, 4, 60, 0}, {8, 4, 80, 0}},
                     "homogeneous, constant frequency",
                     true,
                     false,
                     true},
        // Constant data rate: size proportional to duration.
        CategoryCase{"constant_data_rate",
                     {{0, 2, 20, 0}, {2, 4, 40, 0}, {6, 1, 10, 0}},
                     "homogeneous, constant data rate",
                     true,
                     false,
                     true},
        // Continuous but neither constant frequency nor data rate.
        CategoryCase{"continuous_only",
                     {{0, 2, 100, 0}, {2, 5, 10, 0}, {7, 1, 40, 0}},
                     "homogeneous, continuous",
                     true,
                     false,
                     true},
        // Non-continuous: gap between elements (animation at rest).
        CategoryCase{"gap",
                     {{0, 2, 10, 0}, {5, 2, 10, 0}},
                     "homogeneous, non-continuous",
                     false,
                     false,
                     true},
        // Non-continuous: overlap (a chord).
        CategoryCase{"overlap",
                     {{0, 4, 10, 0}, {2, 4, 10, 0}},
                     "homogeneous, non-continuous",
                     false,
                     false,
                     true},
        // Event-based: durationless MIDI events.
        CategoryCase{"events",
                     {{0, 0, 3, 0}, {5, 0, 3, 0}, {9, 0, 3, 0}},
                     "homogeneous, event-based",
                     false,
                     true,
                     true},
        // Heterogeneous: element descriptors vary (ADPCM parameters).
        CategoryCase{"heterogeneous",
                     {{0, 1, 4, 1}, {1, 1, 4, 2}, {2, 1, 4, 3}},
                     "heterogeneous, uniform",
                     true,
                     false,
                     false}));

TEST(CategoryTest, SingleEventIsNotContinuousCategory) {
  TimedStream stream(PcmDescriptor(), TimeSystem(100));
  ASSERT_TRUE(stream.AppendEvent(Data(1), 0).ok());
  StreamCategories cats = Classify(stream);
  EXPECT_TRUE(cats.event_based);
  EXPECT_FALSE(cats.uniform);  // d = 0 excludes the continuous subtypes.
  EXPECT_FALSE(cats.constant_frequency);
}

TEST(CategoryTest, EmptyStreamVacuous) {
  TimedStream stream(PcmDescriptor(), TimeSystem(100));
  StreamCategories cats = Classify(stream);
  EXPECT_TRUE(cats.homogeneous);
  EXPECT_TRUE(cats.continuous);
  EXPECT_TRUE(cats.uniform);
  EXPECT_TRUE(cats.constant_frequency);
  EXPECT_TRUE(cats.constant_data_rate);
  EXPECT_FALSE(cats.event_based);
  EXPECT_EQ(cats.ToString(), "homogeneous, uniform");
}

TEST(CategoryTest, SingleElementIsUniform) {
  // One timed element: every universally-quantified predicate holds,
  // and d != 0 keeps the continuous subtypes (unlike a single event).
  TimedStream stream(PcmDescriptor(), TimeSystem(100));
  StreamElement e;
  e.data = Data(4);
  e.start = 7;  // A nonzero start must not affect continuity.
  e.duration = 2;
  ASSERT_TRUE(stream.Append(std::move(e)).ok());
  StreamCategories cats = Classify(stream);
  EXPECT_TRUE(cats.homogeneous);
  EXPECT_TRUE(cats.continuous);
  EXPECT_TRUE(cats.uniform);
  EXPECT_TRUE(cats.constant_frequency);
  EXPECT_TRUE(cats.constant_data_rate);
  EXPECT_FALSE(cats.event_based);
  EXPECT_EQ(cats.ToString(), "homogeneous, uniform");
}

// ---------------------------------------------------------------------------
// Type constraints (paper §3.3)

TEST(ValidateTest, CdAudioStreamSatisfiesItsType) {
  TimedStream stream(PcmDescriptor(), TimeSystem(44100));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(stream.AppendContiguous(Data(4), 1).ok());
  }
  EXPECT_TRUE(
      ValidateAgainstType(stream, MediaTypeRegistry::Builtin()).ok());
}

TEST(ValidateTest, WrongTimeSystemRejected) {
  TimedStream stream(PcmDescriptor(), TimeSystem(48000));
  ASSERT_TRUE(stream.AppendContiguous(Data(4), 1).ok());
  // audio/pcm imposes no fixed frequency in the registry, so this
  // passes; but a CD-audio-constrained variant is testable through
  // element durations below. Use duration violation instead:
  ASSERT_TRUE(stream.AppendContiguous(Data(4), 2).ok());  // d != 1.
  EXPECT_TRUE(ValidateAgainstType(stream, MediaTypeRegistry::Builtin())
                  .IsInvalidArgument());
}

TEST(ValidateTest, NonContinuousPcmRejected) {
  TimedStream stream(PcmDescriptor(), TimeSystem(44100));
  ASSERT_TRUE(stream.Append({Data(4), 0, 1, {}}).ok());
  ASSERT_TRUE(stream.Append({Data(4), 5, 1, {}}).ok());  // Gap.
  EXPECT_TRUE(ValidateAgainstType(stream, MediaTypeRegistry::Builtin())
                  .IsInvalidArgument());
}

TEST(ValidateTest, UnknownTypeRejected) {
  MediaDescriptor desc;
  desc.type_name = "video/unknown";
  desc.kind = MediaKind::kVideo;
  TimedStream stream(desc, TimeSystem(25));
  EXPECT_TRUE(ValidateAgainstType(stream, MediaTypeRegistry::Builtin())
                  .IsNotFound());
}

TEST(ValidateTest, ElementDescriptorSpecEnforced) {
  MediaDescriptor desc;
  desc.type_name = "audio/adpcm";
  desc.kind = MediaKind::kAudio;
  desc.attrs.SetInt("sample rate", 44100);
  desc.attrs.SetInt("number of channels", 1);
  desc.attrs.SetInt("block size", 512);
  desc.attrs.SetString("encoding", "IMA ADPCM");
  TimedStream stream(desc, TimeSystem(44100));
  StreamElement e;
  e.data = Data(256);
  e.start = 0;
  e.duration = 512;
  // Missing the required "predictor"/"step index" element attributes.
  ASSERT_TRUE(stream.Append(std::move(e)).ok());
  EXPECT_TRUE(ValidateAgainstType(stream, MediaTypeRegistry::Builtin())
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tbm
