// Aliasing invariants of the zero-copy buffer substrate: ref-counted
// Buffer / BufferSlice / TypedSlice semantics, ByteRange overflow
// regressions, logical-vs-resident byte accounting of MediaValues, and
// the expansion cache's deduplicated budget charging.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "base/buffer.h"
#include "base/bytes.h"
#include "blob/memory_store.h"
#include "codec/synthetic.h"
#include "derive/cache.h"
#include "derive/operators.h"
#include "derive/value.h"
#include "stream/timed_stream.h"

namespace tbm {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

Bytes Pattern(size_t n) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(i * 31 + 7);
  return out;
}

VideoValue SmallClip(int64_t frames) {
  VideoValue video;
  video.frame_rate = Rational(25);
  video.frames = videogen::Clip(48, 32, frames, 7);
  return video;
}

const DerivationRegistry& Reg() { return DerivationRegistry::Builtin(); }

// ---------------------------------------------------------------------------
// ByteRange overflow regressions

TEST(ByteRangeOverflowTest, EndSaturatesInsteadOfWrapping) {
  ByteRange wrapping{kMax - 5, 100};
  EXPECT_EQ(wrapping.end(), kMax);  // Not (kMax - 5 + 100) mod 2^64 == 94.
  ByteRange at_limit{kMax - 100, 100};
  EXPECT_EQ(at_limit.end(), kMax);
  EXPECT_EQ((ByteRange{0, kMax}).end(), kMax);
}

TEST(ByteRangeOverflowTest, ValidateRejectsOverflow) {
  EXPECT_TRUE((ByteRange{kMax - 5, 100}).Validate().IsInvalidArgument());
  EXPECT_TRUE((ByteRange{kMax, 1}).Validate().IsInvalidArgument());
  EXPECT_TRUE((ByteRange{kMax - 100, 100}).Validate().ok());
  EXPECT_TRUE((ByteRange{0, kMax}).Validate().ok());
  EXPECT_TRUE((ByteRange{0, 0}).Validate().ok());
}

TEST(ByteRangeOverflowTest, WrappedRangeIsNeverContained) {
  // Pre-fix, a wrapped end() made a range reaching past the address
  // space look like a tiny prefix and pass Contains.
  ByteRange small{0, 1000};
  ByteRange wrapped{500, kMax - 100};
  EXPECT_FALSE(small.Contains(wrapped));
  EXPECT_TRUE(small.Overlaps(wrapped));  // They do share [500, 1000).
}

// ---------------------------------------------------------------------------
// Buffer / BufferSlice aliasing

TEST(BufferSliceTest, SubSlicesShareOneBuffer) {
  Bytes payload = Pattern(256);
  Bytes expected = payload;
  BufferSlice whole(std::move(payload));
  ASSERT_EQ(whole.size(), 256u);
  EXPECT_NE(whole.buffer_id(), 0u);

  BufferSlice head = whole.Slice(0, 64);
  BufferSlice mid = whole.Slice(64, 128);
  EXPECT_TRUE(head.SharesBufferWith(whole));
  EXPECT_TRUE(mid.SharesBufferWith(head));
  EXPECT_EQ(head.buffer_id(), whole.buffer_id());
  EXPECT_EQ(mid.data(), whole.data() + 64);  // Same physical bytes.
  EXPECT_EQ(mid[0], expected[64]);

  // Clamping: a sub-slice cannot reach past its parent.
  EXPECT_EQ(whole.Slice(200, 1000).size(), 56u);
  EXPECT_EQ(whole.Slice(300, 10).size(), 0u);
  EXPECT_EQ(whole.Slice(300, 10).buffer_id(), 0u);  // Empty needs no buffer.
}

TEST(BufferSliceTest, MutableCopyNeverWritesThrough) {
  BufferSlice slice(Pattern(64));
  uint8_t before = slice[3];
  Bytes copy = slice.MutableCopy();
  copy[3] = static_cast<uint8_t>(~copy[3]);
  EXPECT_EQ(slice[3], before);  // The view is untouched.
  // Writing the copy back re-wraps into a fresh buffer: siblings of the
  // old buffer still see the old bytes.
  BufferSlice sibling = slice.Slice(0, 64);
  uint64_t old_id = slice.buffer_id();
  slice = std::move(copy);
  EXPECT_NE(slice.buffer_id(), old_id);
  EXPECT_FALSE(slice.SharesBufferWith(sibling));
  EXPECT_EQ(sibling[3], before);
}

TEST(BufferSliceTest, SliceOutlivesStoreAndBlob) {
  Bytes payload = Pattern(1000);
  BufferSlice slice;
  {
    MemoryBlobStore store;
    auto id = store.PushAll(ByteSpan(payload.data(), payload.size()));
    ASSERT_TRUE(id.ok());
    auto read = store.Read(*id, ByteRange{100, 200});
    ASSERT_TRUE(read.ok());
    slice = *read;
    ASSERT_TRUE(store.Delete(*id).ok());
  }  // Store destroyed; the slice's refcount keeps the bytes alive.
  ASSERT_EQ(slice.size(), 200u);
  EXPECT_EQ(slice, Bytes(payload.begin() + 100, payload.begin() + 300));
}

TEST(BufferSliceTest, MemoryStoreReadsAreViewsNotCopies) {
  MemoryBlobStore store;
  Bytes payload = Pattern(512);
  auto id = store.PushAll(ByteSpan(payload.data(), payload.size()));
  ASSERT_TRUE(id.ok());
  auto a = store.Read(*id, ByteRange{0, 512});
  auto b = store.Read(*id, ByteRange{128, 64});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->SharesBufferWith(*b));  // Same backing append buffer.
  EXPECT_EQ(b->data(), a->data() + 128);
}

TEST(TypedSliceTest, SharesAndCopies) {
  std::vector<int16_t> samples(100);
  std::iota(samples.begin(), samples.end(), int16_t{0});
  SampleSlice all(std::move(samples));
  ASSERT_EQ(all.size(), 100u);
  SampleSlice tail = all.Slice(40, 60);
  EXPECT_TRUE(tail.SharesBufferWith(all));
  EXPECT_EQ(tail[0], 40);
  EXPECT_EQ(tail.data(), all.data() + 40);

  std::vector<int16_t> copy = tail.MutableCopy();
  copy[0] = -1;
  EXPECT_EQ(tail[0], 40);  // COW: the view never sees the write.
  EXPECT_EQ(all[40], 40);
}

// ---------------------------------------------------------------------------
// Logical vs resident bytes per MediaValue variant

TEST(ValueBytesTest, UnsharedValuesAreFullyResident) {
  MediaValue audio = audiogen::Sine(8000, 1, 440, 0.5, 0.1);
  uint64_t audio_bytes =
      std::get<AudioBuffer>(audio).samples.size() * sizeof(int16_t);
  EXPECT_EQ(ExpandedBytes(audio), audio_bytes);
  EXPECT_EQ(ResidentBytes(audio), audio_bytes);

  MediaValue video = SmallClip(4);
  EXPECT_EQ(ExpandedBytes(video), 4u * 48 * 32 * 3);
  EXPECT_EQ(ResidentBytes(video), ExpandedBytes(video));

  MediaValue image = std::get<VideoValue>(video).frames[0];
  EXPECT_EQ(ExpandedBytes(image), 48u * 32 * 3);
  EXPECT_EQ(ResidentBytes(image), 48u * 32 * 3);

  // Variants without shared buffers fall back to their serialized size.
  MediaValue midi = MidiSequence{};
  EXPECT_EQ(ResidentBytes(midi), ExpandedBytes(midi));
  MediaValue scene = AnimationScene{};
  EXPECT_EQ(ResidentBytes(scene), ExpandedBytes(scene));
}

TEST(ValueBytesTest, StreamElementsSharingABufferCountOnce) {
  BufferSlice storage(Pattern(1024));
  TimedStream stream;
  for (int i = 0; i < 8; ++i) {
    StreamElement element;
    element.data = storage.Slice(0, 1024);  // Every element: same bytes.
    element.start = i;
    element.duration = 1;
    ASSERT_TRUE(stream.Append(std::move(element)).ok());
  }
  MediaValue value = std::move(stream);
  EXPECT_EQ(ExpandedBytes(value), 8u * 1024);  // Logical: with multiplicity.
  EXPECT_EQ(ResidentBytes(value), 1024u);      // Physical: one buffer.
}

TEST(ValueBytesTest, AudioCutPinsItsWholeSourceBuffer) {
  MediaValue tone = audiogen::Sine(8000, 1, 440, 0.5, 1.0);  // 8000 frames.
  AttrMap params;
  params.SetInt("start frame", 1000);
  params.SetInt("frame count", 100);
  auto cut = Reg().Apply("audio cut", {&tone}, params);
  ASSERT_TRUE(cut.ok());
  const AudioBuffer& out = std::get<AudioBuffer>(*cut);
  EXPECT_TRUE(out.samples.SharesBufferWith(
      std::get<AudioBuffer>(tone).samples));
  EXPECT_EQ(ExpandedBytes(*cut), 200u);  // 100 mono samples.
  // Residency is the full pinned source allocation, not the slice.
  EXPECT_EQ(ResidentBytes(*cut), 16000u);
}

// ---------------------------------------------------------------------------
// Timing-only derivations allocate O(1) pixel bytes

TEST(TimingOnlyDerivationTest, EditListSharesSourcePixels) {
  MediaValue source = SmallClip(16);
  const VideoValue& src = std::get<VideoValue>(source);

  // edit → reverse → 8x slow-motion: three timing-only steps.
  AttrMap edit_params;
  edit_params.SetInt("start frame", 2);
  edit_params.SetInt("frame count", 12);
  auto edited = Reg().Apply("video edit", {&source}, edit_params);
  ASSERT_TRUE(edited.ok());
  auto reversed = Reg().Apply("video reverse", {&*edited}, AttrMap{});
  ASSERT_TRUE(reversed.ok());
  AttrMap speed_params;
  speed_params.SetInt("speed num", 1);
  speed_params.SetInt("speed den", 8);
  auto slowed = Reg().Apply("video speed", {&*reversed}, speed_params);
  ASSERT_TRUE(slowed.ok());

  const VideoValue& out = std::get<VideoValue>(*slowed);
  ASSERT_EQ(out.frames.size(), 96u);  // 12 frames repeated 8x.
  for (const Image& frame : out.frames) {
    bool shares_source = false;
    for (const Image& original : src.frames) {
      if (frame.data.SharesBufferWith(original.data)) shares_source = true;
    }
    EXPECT_TRUE(shares_source);  // Not one pixel was copied.
  }

  // 96 logical frames, 12 distinct buffers: resident stays at the
  // edited span's size however long the derived program runs.
  uint64_t frame_bytes = 48 * 32 * 3;
  EXPECT_EQ(ExpandedBytes(*slowed), 96 * frame_bytes);
  EXPECT_EQ(ResidentBytes(*slowed), 12 * frame_bytes);
}

// ---------------------------------------------------------------------------
// Expansion-cache deduplicated charging

ValueRef Ref(MediaValue value) {
  return std::make_shared<const MediaValue>(std::move(value));
}

TEST(CacheAccountingTest, SharedBuffersChargeOnce) {
  MediaValue source = SmallClip(4);
  uint64_t source_bytes = ExpandedBytes(source);
  AttrMap params;
  params.SetInt("speed num", 1);
  params.SetInt("speed den", 8);
  auto slowed = Reg().Apply("video speed", {&source}, params);
  ASSERT_TRUE(slowed.ok());
  uint64_t slowed_logical = ExpandedBytes(*slowed);
  ASSERT_EQ(slowed_logical, 8 * source_bytes);

  ExpansionCache cache(1 << 20);
  cache.Insert(1, Ref(std::move(source)), source_bytes, 0.01);
  cache.Insert(2, Ref(std::move(*slowed)), slowed_logical, 0.01);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  // The view's pixels are already pinned by the source entry, so the
  // budget is charged nothing for it.
  EXPECT_EQ(stats.bytes_cached, source_bytes);
  EXPECT_EQ(stats.logical_bytes, source_bytes + slowed_logical);
  EXPECT_EQ(stats.resident_bytes, source_bytes);
}

TEST(CacheAccountingTest, LogicallyOversizeViewStillFits) {
  MediaValue source = SmallClip(4);
  uint64_t source_bytes = ExpandedBytes(source);  // 18432.
  AttrMap params;
  params.SetInt("speed num", 1);
  params.SetInt("speed den", 8);
  auto slowed = Reg().Apply("video speed", {&source}, params);
  ASSERT_TRUE(slowed.ok());
  uint64_t slowed_logical = ExpandedBytes(*slowed);

  // Budget fits the source but is far below the view's logical size:
  // pre-refactor this Insert was an oversize reject.
  ExpansionCache cache(source_bytes + 512);
  ASSERT_GT(slowed_logical, cache.budget_bytes());
  cache.Insert(1, Ref(std::move(source)), source_bytes, 0.01);
  cache.Insert(2, Ref(std::move(*slowed)), slowed_logical, 0.01);

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.oversize_rejects, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes_cached, source_bytes);
}

TEST(CacheAccountingTest, ResidencySurvivesEvictingThePayer) {
  MediaValue source = SmallClip(4);
  uint64_t source_bytes = ExpandedBytes(source);
  AttrMap params;
  params.SetInt("start frame", 1);
  params.SetInt("frame count", 2);
  auto edited = Reg().Apply("video edit", {&source}, params);
  ASSERT_TRUE(edited.ok());
  uint64_t edited_logical = ExpandedBytes(*edited);

  ExpansionCache cache(1 << 20);
  cache.Insert(1, Ref(std::move(source)), source_bytes, 0.01);
  cache.Insert(2, Ref(std::move(*edited)), edited_logical, 0.01);
  cache.Erase(1);  // The entry that paid for the shared buffers.

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.logical_bytes, edited_logical);
  // The view still pins its two frames' buffers.
  EXPECT_EQ(stats.resident_bytes, edited_logical);

  // And the cached view's pixels are still readable: the eviction freed
  // the entry, not the ref-counted buffers.
  ValueRef value = cache.Lookup(2);
  ASSERT_NE(value, nullptr);
  const VideoValue& out = std::get<VideoValue>(*value);
  ASSERT_EQ(out.frames.size(), 2u);
  EXPECT_EQ(out.frames[0].data.size(), 48u * 32 * 3);
}

TEST(CacheAccountingTest, ValueOutlivesCacheClear) {
  MediaValue source = SmallClip(2);
  uint64_t source_bytes = ExpandedBytes(source);
  ExpansionCache cache(1 << 20);
  cache.Insert(7, Ref(std::move(source)), source_bytes, 0.01);
  ValueRef held = cache.Lookup(7);
  ASSERT_NE(held, nullptr);
  cache.Clear();
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_cached, 0u);
  EXPECT_EQ(stats.logical_bytes, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  // The held ref (and every slice inside it) is still valid.
  const VideoValue& video = std::get<VideoValue>(*held);
  ASSERT_EQ(video.frames.size(), 2u);
  EXPECT_EQ(video.frames[1].data.size(), 48u * 32 * 3);
}

}  // namespace
}  // namespace tbm
