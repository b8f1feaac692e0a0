// Property-style randomized tests: seeded sweeps checking invariants
// that must hold for *any* instance — category-lattice implications,
// index/linear-scan agreement, rescale ordering, serialization
// robustness against truncation.
#include <gtest/gtest.h>

#include <cmath>

#include "codec/adpcm.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "codec/tjpeg.h"
#include "derive/graph.h"
#include "derive/operators.h"
#include "derive/scheduler.h"
#include "interp/index.h"
#include "interp/interpretation.h"
#include "media/attr.h"
#include "stream/category.h"
#include "time/rational.h"

namespace tbm {
namespace {

// Deterministic PRNG for reproducible "random" instances.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ? seed : 0x9E3779B9) {}

  uint64_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  int64_t Range(int64_t lo, int64_t hi) {  // [lo, hi)
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }
  bool Chance(int percent) { return Range(0, 100) < percent; }

 private:
  uint64_t state_;
};

MediaDescriptor AnyDescriptor() {
  MediaDescriptor desc;
  desc.type_name = "audio/pcm-block";
  desc.kind = MediaKind::kAudio;
  return desc;
}

// Random stream without overlaps: continuous runs with occasional gaps
// and occasional events.
TimedStream RandomStream(Rng* rng, int64_t elements) {
  TimedStream stream(AnyDescriptor(), TimeSystem(1000));
  int64_t t = 0;
  for (int64_t i = 0; i < elements; ++i) {
    if (rng->Chance(10)) t += rng->Range(1, 50);  // Gap.
    int64_t duration = rng->Chance(15) ? 0 : rng->Range(1, 20);
    StreamElement e;
    e.data = Bytes(static_cast<size_t>(rng->Range(1, 64)), 0);
    e.start = t;
    e.duration = duration;
    if (rng->Chance(20)) e.descriptor.SetInt("variant", rng->Range(0, 3));
    EXPECT_TRUE(stream.Append(std::move(e)).ok());
    t += duration;
  }
  return stream;
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

// --- Category lattice implications (Figure 1 structure) --------------------

TEST_P(SeededProperty, CategoryLatticeImplicationsHold) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    TimedStream stream = RandomStream(&rng, rng.Range(1, 60));
    StreamCategories c = Classify(stream);
    // uniform ⇒ constant frequency ∧ constant data rate.
    if (c.uniform) {
      EXPECT_TRUE(c.constant_frequency);
      EXPECT_TRUE(c.constant_data_rate);
    }
    // constant frequency / data rate ⇒ continuous.
    if (c.constant_frequency) {
      EXPECT_TRUE(c.continuous);
    }
    if (c.constant_data_rate) {
      EXPECT_TRUE(c.continuous);
    }
    // event-based ⇒ all durations zero ⇒ not constant frequency.
    if (c.event_based) {
      EXPECT_FALSE(c.constant_frequency);
      for (const StreamElement& e : stream) EXPECT_EQ(e.duration, 0);
    }
    // ToString never empty and starts with the homogeneity word.
    std::string text = c.ToString();
    EXPECT_FALSE(text.empty());
    EXPECT_TRUE(text.rfind(c.homogeneous ? "homogeneous" : "heterogeneous",
                           0) == 0);
  }
}

TEST_P(SeededProperty, ElementAtTimeAgreesWithLinearScan) {
  Rng rng(GetParam() * 77 + 1);
  TimedStream stream = RandomStream(&rng, 50);
  const int64_t end = stream.EndTime() + 5;
  for (int64_t t = -2; t <= end; ++t) {
    // Linear-scan reference: latest-starting element containing t.
    int64_t expected = -1;
    for (size_t i = 0; i < stream.size(); ++i) {
      const StreamElement& e = stream.at(i);
      bool contains = e.duration == 0 ? (e.start == t)
                                      : (t >= e.start &&
                                         t < e.start + e.duration);
      if (contains) expected = static_cast<int64_t>(i);
    }
    auto actual = stream.ElementAtTime(t);
    if (expected < 0) {
      EXPECT_FALSE(actual.ok()) << "t=" << t;
    } else {
      ASSERT_TRUE(actual.ok()) << "t=" << t;
      // Any containing element is acceptable only if it's the
      // latest-starting one; ties (same start) may return either, so
      // compare starts instead of indexes.
      EXPECT_EQ(stream.at(*actual).start, stream.at(expected).start)
          << "t=" << t;
    }
  }
}

// --- Interpretation index equivalence ---------------------------------------

TEST_P(SeededProperty, CompactIndexMatchesFlatTable) {
  Rng rng(GetParam() * 131 + 7);
  InterpretedObject object;
  object.name = "fuzz";
  object.time_system = TimeSystem(1000);
  int64_t t = 0;
  uint64_t offset = 0;
  const int64_t n = rng.Range(1, 200);
  for (int64_t i = 0; i < n; ++i) {
    if (rng.Chance(15)) t += rng.Range(1, 30);        // Gap.
    if (rng.Chance(25)) offset += rng.Range(1, 500);  // Placement hole.
    int64_t duration = rng.Range(1, 10);
    uint64_t size = static_cast<uint64_t>(rng.Range(1, 2000));
    ElementPlacement p{i, t, duration, ByteRange{offset, size}, {}};
    if (rng.Chance(10)) p.descriptor.SetString("frame kind", "key");
    object.elements.push_back(std::move(p));
    t += duration;
    offset += size;
  }
  CompactElementIndex index = CompactElementIndex::Build(object);
  ASSERT_EQ(index.element_count(), n);
  for (int64_t i = 0; i < n; ++i) {
    const ElementPlacement& truth = object.elements[i];
    EXPECT_EQ(*index.PlacementOf(i), truth.placement) << i;
    EXPECT_EQ(*index.SpanOf(i), (TickSpan{truth.start, truth.duration})) << i;
    EXPECT_EQ(*index.ElementAtTime(truth.start), i);
    // Mid-element lookups hit the same element.
    if (truth.duration > 1) {
      EXPECT_EQ(*index.ElementAtTime(truth.start + truth.duration - 1), i);
    }
  }
  // Sync table equals the brute-force key scan.
  std::vector<int64_t> keys;
  for (const ElementPlacement& p : object.elements) {
    auto kind = p.descriptor.GetString("frame kind");
    if (kind.ok() && *kind == "key") keys.push_back(p.element_number);
  }
  EXPECT_EQ(index.sync_elements(), keys);
}

// --- Rescale ordering --------------------------------------------------------

TEST_P(SeededProperty, RescaleRoundingOrdered) {
  Rng rng(GetParam() * 1337 + 3);
  for (int trial = 0; trial < 200; ++trial) {
    int64_t ticks = rng.Range(-100000, 100000);
    Rational factor(rng.Range(1, 1000), rng.Range(1, 1000));
    int64_t floor_v = RescaleTicks(ticks, factor, Rounding::kFloor);
    int64_t nearest_v = RescaleTicks(ticks, factor, Rounding::kNearest);
    int64_t ceil_v = RescaleTicks(ticks, factor, Rounding::kCeil);
    EXPECT_LE(floor_v, nearest_v);
    EXPECT_LE(nearest_v, ceil_v);
    EXPECT_LE(ceil_v - floor_v, 1);
    // Exactness when divisible.
    int64_t exact = ticks * factor.den();
    EXPECT_EQ(RescaleTicks(exact, factor, Rounding::kFloor) * factor.den(),
              exact * factor.num());
  }
}

TEST_P(SeededProperty, TimeSystemConversionRoundTripWithinOneTick) {
  Rng rng(GetParam() * 7 + 11);
  for (int trial = 0; trial < 100; ++trial) {
    TimeSystem from(Rational(rng.Range(1, 100000), rng.Range(1, 100)));
    TimeSystem to(Rational(rng.Range(1, 100000), rng.Range(1, 100)));
    int64_t ticks = rng.Range(0, 1000000);
    int64_t converted = from.ConvertTo(to, ticks, Rounding::kNearest);
    int64_t back = to.ConvertTo(from, converted, Rounding::kNearest);
    // Round trip through a coarser system can lose up to half a tick
    // each way, measured in the source system's resolution.
    double tick_ratio = from.frequency().ToDouble() / to.frequency().ToDouble();
    double tolerance = std::max(1.0, tick_ratio);
    EXPECT_LE(std::abs(back - ticks), tolerance)
        << from.ToString() << " -> " << to.ToString();
  }
}

// --- Serialization robustness ------------------------------------------------

TEST_P(SeededProperty, TruncatedAttrMapNeverSucceedsWrongly) {
  Rng rng(GetParam() * 911);
  AttrMap attrs;
  const int count = static_cast<int>(rng.Range(1, 10));
  for (int i = 0; i < count; ++i) {
    std::string name = 'a' + std::to_string(i);
    switch (rng.Range(0, 4)) {
      case 0: attrs.SetInt(name, rng.Range(-1000, 1000)); break;
      case 1: attrs.SetDouble(name, rng.Range(0, 100) / 7.0); break;
      case 2: attrs.SetString(name, std::string(rng.Range(0, 20), 'x')); break;
      default: attrs.SetRational(name,
                                 Rational(rng.Range(1, 99), rng.Range(1, 99)));
    }
  }
  BinaryWriter writer;
  attrs.Serialize(&writer);
  // The full buffer round-trips.
  {
    BinaryReader reader(writer.buffer());
    auto restored = AttrMap::Deserialize(&reader);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, attrs);
  }
  // Every strict prefix either fails cleanly or — if it happens to
  // parse (varint prefixes can) — yields fewer attributes. It must
  // never crash or hang.
  for (size_t cut = 0; cut < writer.size(); ++cut) {
    BinaryReader reader(ByteSpan(writer.buffer().data(), cut));
    auto restored = AttrMap::Deserialize(&reader);
    if (restored.ok()) {
      EXPECT_LT(restored->size(), attrs.size() + 1);
    }
  }
}

TEST_P(SeededProperty, TruncatedTjpegNeverCrashes) {
  Rng rng(GetParam() * 4242);
  Image image = videogen::Still(24 + rng.Range(0, 16) * 2,
                                24 + rng.Range(0, 16) * 2,
                                static_cast<uint32_t>(GetParam()));
  auto encoded = TjpegEncode(image, static_cast<int>(rng.Range(1, 100)));
  ASSERT_TRUE(encoded.ok());
  for (size_t cut = 0; cut < encoded->size(); cut += 7) {
    Bytes truncated(encoded->begin(), encoded->begin() + cut);
    auto decoded = TjpegDecode(truncated);
    // Must never succeed on a strict prefix of the luma/chroma data...
    // except headers-only prefixes of degenerate tiny images; accept
    // Status or a validated image.
    if (decoded.ok()) {
      EXPECT_TRUE(decoded->Validate().ok());
    }
  }
}

TEST_P(SeededProperty, AdpcmRoundTripSnrAcrossSignals) {
  Rng rng(GetParam() * 31337);
  double freq = 100.0 + rng.Range(0, 3000);
  double amplitude = 0.1 + rng.Range(0, 80) / 100.0;
  AudioBuffer audio = audiogen::Sine(22050, 1, freq, amplitude, 0.3);
  auto blocks = AdpcmEncode(audio, 512);
  ASSERT_TRUE(blocks.ok());
  auto decoded = AdpcmDecode(*blocks, 22050, 1);
  ASSERT_TRUE(decoded.ok());
  EXPECT_GT(*AudioSnr(audio, *decoded), 10.0)
      << "freq=" << freq << " amp=" << amplitude;
}

// --- Fusion: compiled plans are bit-exact against node-at-a-time -----------

// One link of a random derivation chain.
struct ChainStep {
  std::string op;
  AttrMap params;
};

// Random chain of image content ops, tracking the value's shape so
// every step is valid. Covers each fusable image op: filter (all
// kinds), color separation, reencode, crop, scale.
std::vector<ChainStep> RandomImageChain(Rng* rng, int depth, int64_t* w,
                                        int64_t* h) {
  std::vector<ChainStep> steps;
  bool cmyk = false;
  for (int i = 0; i < depth; ++i) {
    ChainStep step;
    // After color separation only the byte-wise filters still apply.
    int pick = cmyk ? static_cast<int>(rng->Range(0, 2))
                    : static_cast<int>(rng->Range(0, 7));
    switch (pick) {
      case 0:
        step.op = "image filter";
        step.params.SetString("kind", "invert");
        break;
      case 1:
        step.op = "image filter";
        step.params.SetString("kind", "threshold");
        step.params.SetInt("threshold", rng->Range(1, 255));
        break;
      case 2:
        step.op = "image filter";
        step.params.SetString("kind", "box blur");
        step.params.SetInt("radius", rng->Range(1, 3));
        break;
      case 3:
        step.op = "image reencode";
        step.params.SetInt("quality", rng->Range(30, 90));
        break;
      case 4: {
        if (*w < 9 || *h < 9) {  // too small to crop an 8-px window from
          step.op = "image filter";
          step.params.SetString("kind", "invert");
          break;
        }
        step.op = "image crop";
        int64_t x = rng->Range(0, *w - 8);
        int64_t y = rng->Range(0, *h - 8);
        int64_t cw = rng->Range(8, *w - x + 1);
        int64_t ch = rng->Range(8, *h - y + 1);
        step.params.SetInt("x", x);
        step.params.SetInt("y", y);
        step.params.SetInt("width", cw);
        step.params.SetInt("height", ch);
        *w = cw;
        *h = ch;
        break;
      }
      case 5:
        step.op = "image scale";
        *w = rng->Range(8, 64);
        *h = rng->Range(8, 64);
        step.params.SetInt("width", *w);
        step.params.SetInt("height", *h);
        break;
      default:
        step.op = "color separation";
        step.params.SetDouble("black generation", rng->Range(0, 101) / 100.0);
        step.params.SetDouble("under color removal",
                              rng->Range(0, 101) / 100.0);
        cmyk = true;
        break;
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

// Random chain of audio content ops, tracking rate and frame count.
// Covers each fusable audio op: gain, normalization, fade, resample.
std::vector<ChainStep> RandomAudioChain(Rng* rng, int depth, int64_t rate,
                                        int64_t frames) {
  std::vector<ChainStep> steps;
  for (int i = 0; i < depth; ++i) {
    ChainStep step;
    switch (rng->Range(0, 4)) {
      case 0:
        step.op = "audio gain";
        step.params.SetDouble("gain", rng->Range(1, 20) / 10.0);
        break;
      case 1:
        step.op = "audio normalization";
        step.params.SetDouble("target peak", rng->Range(50, 96) / 100.0);
        break;
      case 2:
        step.op = "audio fade";
        step.params.SetInt("fade in frames",
                           rng->Range(0, std::max<int64_t>(2, frames / 2)));
        step.params.SetInt("fade out frames",
                           rng->Range(0, std::max<int64_t>(2, frames / 2)));
        break;
      default: {
        step.op = "audio resample";
        int64_t target = rng->Range(4000, 16000);
        step.params.SetInt("target rate", target);
        if (target != rate) {
          frames = frames * target / rate;  // mirrors AudioResampleStage
          rate = target;
        }
        break;
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

NodeId BuildChain(DerivationGraph* graph, const MediaValue& leaf_value,
                  const std::vector<ChainStep>& steps) {
  NodeId node = graph->AddLeaf(leaf_value, "leaf");
  for (const ChainStep& step : steps) {
    auto next = graph->AddDerived(step.op, {node}, step.params);
    EXPECT_TRUE(next.ok()) << step.op << ": " << next.status();
    node = *next;
  }
  return node;
}

void ExpectBitIdentical(const MediaValue& a, const MediaValue& b) {
  ASSERT_EQ(a.index(), b.index());
  if (const Image* ia = std::get_if<Image>(&a)) {
    const Image& ib = std::get<Image>(b);
    ASSERT_EQ(ia->width, ib.width);
    ASSERT_EQ(ia->height, ib.height);
    ASSERT_EQ(ia->model, ib.model);
    ASSERT_EQ(ia->data.size(), ib.data.size());
    EXPECT_EQ(std::memcmp(ia->data.data(), ib.data.data(), ib.data.size()), 0);
  } else if (const AudioBuffer* aa = std::get_if<AudioBuffer>(&a)) {
    const AudioBuffer& ab = std::get<AudioBuffer>(b);
    ASSERT_EQ(aa->sample_rate, ab.sample_rate);
    ASSERT_EQ(aa->channels, ab.channels);
    ASSERT_EQ(aa->samples.size(), ab.samples.size());
    EXPECT_EQ(std::memcmp(aa->samples.data(), ab.samples.data(),
                          ab.samples.size() * sizeof(int16_t)),
              0);
  } else {
    FAIL() << "unexpected value kind";
  }
}

TEST_P(SeededProperty, FusedChainsBitExactAgainstUnfused) {
  Rng rng(GetParam() * 60493 + 17);
  for (int depth : {2, 5, 9}) {
    for (int trial = 0; trial < 3; ++trial) {
      MediaValue leaf;
      std::vector<ChainStep> steps;
      if (rng.Chance(50)) {
        int64_t w = rng.Range(24, 64), h = rng.Range(24, 64);
        leaf = videogen::Still(static_cast<int32_t>(w),
                               static_cast<int32_t>(h),
                               static_cast<uint32_t>(rng.Range(0, 100)));
        steps = RandomImageChain(&rng, depth, &w, &h);
      } else {
        int64_t rate = 8000;
        AudioBuffer tone =
            audiogen::Sine(static_cast<int32_t>(rate),
                           rng.Chance(50) ? 1 : 2, 440, 0.6, 0.25);
        int64_t frames = tone.FrameCount();
        leaf = std::move(tone);
        steps = RandomAudioChain(&rng, depth, rate, frames);
      }

      DerivationGraph fused_graph, plain_graph;
      NodeId fused_root = BuildChain(&fused_graph, leaf, steps);
      NodeId plain_root = BuildChain(&plain_graph, leaf, steps);

      DerivationEngine fused(&fused_graph);  // plan compiler on
      EvalOptions off;
      off.fuse = false;
      DerivationEngine plain(&plain_graph, off);

      auto a = fused.Evaluate(fused_root);
      auto b = plain.Evaluate(plain_root);
      ASSERT_TRUE(a.ok()) << "depth " << depth << ": " << a.status();
      ASSERT_TRUE(b.ok()) << "depth " << depth << ": " << b.status();
      ExpectBitIdentical(**a, **b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tbm
