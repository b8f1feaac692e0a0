// Tests for the derivation plan compiler (derive/plan.h): chain
// identification, and bit-exactness + accounting of fused execution
// against the node-at-a-time path.

#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "derive/graph.h"
#include "derive/operators.h"
#include "derive/plan.h"
#include "derive/scheduler.h"

namespace tbm {
namespace {

// ---------------------------------------------------------------------------
// CompilePlan unit tests

const DerivationOp* Op(const std::string& name) {
  auto op = DerivationRegistry::Builtin().Find(name);
  EXPECT_TRUE(op.ok()) << name;
  return op.ok() ? *op : nullptr;
}

PlanNodeSpec Spec(NodeId id, const std::string& op_name,
                  std::vector<NodeId> inputs, const AttrMap* params) {
  PlanNodeSpec spec;
  spec.id = id;
  spec.op = op_name.empty() ? nullptr : Op(op_name);
  spec.params = params;
  spec.inputs = std::move(inputs);
  spec.op_name = op_name;
  spec.label = op_name.empty() ? "mystery" : op_name;
  return spec;
}

TEST(PlanCompilerTest, SingleConsumerChainFusesIntoOneStage) {
  AttrMap params;
  std::vector<PlanNodeSpec> specs;
  specs.push_back(Spec(2, "image filter", {1}, &params));
  specs.push_back(Spec(3, "image filter", {2}, &params));
  specs.push_back(Spec(4, "color separation", {3}, &params));
  std::unordered_map<NodeId, int> consumers{{1, 1}, {2, 1}, {3, 1}};

  CompiledPlan plan = CompilePlan(std::move(specs), consumers);
  ASSERT_EQ(plan.stages.size(), 1u);
  EXPECT_TRUE(plan.stages[0].fused());
  EXPECT_EQ(plan.stages[0].nodes.size(), 3u);
  EXPECT_EQ(plan.stages[0].output(), 4u);
  EXPECT_EQ(plan.stages[0].inputs(), std::vector<NodeId>{1});
  EXPECT_EQ(plan.fused_nodes, 3u);
  EXPECT_NE(plan.ToString().find("[fused]"), std::string::npos);
}

TEST(PlanCompilerTest, FanOutBreaksTheChain) {
  AttrMap params;
  std::vector<PlanNodeSpec> specs;
  specs.push_back(Spec(2, "image filter", {1}, &params));
  specs.push_back(Spec(3, "image filter", {2}, &params));
  specs.push_back(Spec(4, "image filter", {3}, &params));
  // Node 2 has a second consumer outside this evaluation: eliding its
  // value would starve that reader, so the chain must break after it.
  std::unordered_map<NodeId, int> consumers{{1, 1}, {2, 2}, {3, 1}};

  CompiledPlan plan = CompilePlan(std::move(specs), consumers);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_FALSE(plan.stages[0].fused());
  EXPECT_EQ(plan.stages[0].output(), 2u);
  EXPECT_TRUE(plan.stages[1].fused());
  EXPECT_EQ(plan.stages[1].nodes.size(), 2u);
  EXPECT_EQ(plan.fused_nodes, 2u);
}

TEST(PlanCompilerTest, MultiInputOpHeadsAChainButCannotExtendOne) {
  AttrMap params;
  std::vector<PlanNodeSpec> specs;
  specs.push_back(Spec(2, "audio gain", {1}, &params));
  specs.push_back(Spec(3, "audio gain", {1}, &params));
  specs.push_back(Spec(4, "audio mix", {2, 3}, &params));
  specs.push_back(Spec(5, "audio gain", {4}, &params));
  std::unordered_map<NodeId, int> consumers{{1, 2}, {2, 1}, {3, 1}, {4, 1}};

  CompiledPlan plan = CompilePlan(std::move(specs), consumers);
  // The two gains cannot fuse into the mix (it is not unary), but the
  // mix heads a chain that the trailing gain joins.
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_FALSE(plan.stages[0].fused());
  EXPECT_FALSE(plan.stages[1].fused());
  ASSERT_TRUE(plan.stages[2].fused());
  EXPECT_EQ(plan.stages[2].nodes.size(), 2u);
  EXPECT_EQ(plan.stages[2].nodes[0].op_name, "audio mix");
  EXPECT_EQ(plan.fused_nodes, 2u);
}

TEST(PlanCompilerTest, FuseOffCompilesEveryNodeAsSingleton) {
  AttrMap params;
  std::vector<PlanNodeSpec> specs;
  specs.push_back(Spec(2, "image filter", {1}, &params));
  specs.push_back(Spec(3, "image filter", {2}, &params));
  specs.push_back(Spec(4, "image filter", {3}, &params));
  std::unordered_map<NodeId, int> consumers{{1, 1}, {2, 1}, {3, 1}};

  CompiledPlan plan =
      CompilePlan(std::move(specs), consumers, /*fuse=*/false);
  ASSERT_EQ(plan.stages.size(), 3u);
  for (const PlanStage& stage : plan.stages) EXPECT_FALSE(stage.fused());
  EXPECT_EQ(plan.fused_nodes, 0u);
}

TEST(PlanCompilerTest, UnknownOpIsANonExtendableSingleton) {
  AttrMap params;
  std::vector<PlanNodeSpec> specs;
  specs.push_back(Spec(2, "image filter", {1}, &params));
  specs.push_back(Spec(3, "", {2}, &params));  // unresolved op
  specs.push_back(Spec(4, "image filter", {3}, &params));
  std::unordered_map<NodeId, int> consumers{{1, 1}, {2, 1}, {3, 1}};

  CompiledPlan plan = CompilePlan(std::move(specs), consumers);
  ASSERT_EQ(plan.stages.size(), 3u);
  for (const PlanStage& stage : plan.stages) EXPECT_FALSE(stage.fused());
}

// ---------------------------------------------------------------------------
// End-to-end fusion tests through the engine

Image AsImage(const ValueRef& value) {
  const Image* image = std::get_if<Image>(value.get());
  EXPECT_NE(image, nullptr);
  return image ? *image : Image{};
}

const AudioBuffer& AsAudio(const ValueRef& value) {
  const AudioBuffer* audio = std::get_if<AudioBuffer>(value.get());
  EXPECT_NE(audio, nullptr);
  return *audio;
}

void ExpectSameImage(const ValueRef& a, const ValueRef& b) {
  Image ia = AsImage(a);
  Image ib = AsImage(b);
  ASSERT_EQ(ia.width, ib.width);
  ASSERT_EQ(ia.height, ib.height);
  ASSERT_EQ(ia.model, ib.model);
  ASSERT_EQ(ia.data.size(), ib.data.size());
  EXPECT_EQ(std::memcmp(ia.data.data(), ib.data.data(), ia.data.size()), 0);
}

void ExpectSameAudio(const ValueRef& a, const ValueRef& b) {
  const AudioBuffer& aa = AsAudio(a);
  const AudioBuffer& ab = AsAudio(b);
  ASSERT_EQ(aa.sample_rate, ab.sample_rate);
  ASSERT_EQ(aa.channels, ab.channels);
  ASSERT_EQ(aa.samples.size(), ab.samples.size());
  EXPECT_EQ(std::memcmp(aa.samples.data(), ab.samples.data(),
                        aa.samples.size() * sizeof(int16_t)),
            0);
}

AudioBuffer Tone(int64_t frames) {
  AudioBuffer audio;
  audio.sample_rate = 8000;
  audio.channels = 1;
  std::vector<int16_t> samples(static_cast<size_t>(frames));
  for (int64_t i = 0; i < frames; ++i) {
    samples[static_cast<size_t>(i)] =
        static_cast<int16_t>(8000 * std::sin(2.0 * M_PI * 440.0 * i / 8000.0));
  }
  audio.samples = SampleSlice(std::move(samples));
  return audio;
}

// leaf -> invert -> threshold -> invert; returns the root.
NodeId BuildImageChain(DerivationGraph* graph) {
  NodeId leaf = graph->AddLeaf(MediaValue(videogen::Still(64, 48, 7)), "src");
  AttrMap invert;
  invert.SetString("kind", "invert");
  AttrMap threshold;
  threshold.SetString("kind", "threshold");
  threshold.SetInt("threshold", 96);
  NodeId a = *graph->AddDerived("image filter", {leaf}, invert, "inv1");
  NodeId b = *graph->AddDerived("image filter", {a}, threshold, "thr");
  return *graph->AddDerived("image filter", {b}, invert, "inv2");
}

TEST(FusionTest, FusedImageChainIsBitExact) {
  DerivationGraph g1;
  NodeId r1 = BuildImageChain(&g1);
  DerivationGraph g2;
  NodeId r2 = BuildImageChain(&g2);

  DerivationEngine fused(&g1);  // fuse defaults on
  EvalOptions off;
  off.fuse = false;
  DerivationEngine unfused(&g2, off);

  auto a = fused.Evaluate(r1);
  auto b = unfused.Evaluate(r2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameImage(*a, *b);

  EXPECT_GT(fused.stats().fused_nodes, 0u);
  EXPECT_EQ(unfused.stats().fused_nodes, 0u);
  EXPECT_EQ(unfused.stats().elided_bytes, 0u);
}

TEST(FusionTest, FusedMixedKernelAndFallbackChainIsBitExact) {
  // color separation changes the element width (3 -> 4 bytes) and
  // image scale has no element kernel at all, so this chain exercises
  // run splitting and the whole-value interior fallback.
  auto build = [](DerivationGraph* graph) {
    NodeId leaf =
        graph->AddLeaf(MediaValue(videogen::Still(80, 60, 3)), "src");
    AttrMap invert;
    invert.SetString("kind", "invert");
    AttrMap scale;
    scale.SetInt("width", 40);
    scale.SetInt("height", 30);
    NodeId a = *graph->AddDerived("image filter", {leaf}, invert);
    NodeId b = *graph->AddDerived("image scale", {a}, scale);
    return *graph->AddDerived("color separation", {b}, AttrMap{});
  };
  DerivationGraph g1, g2;
  NodeId r1 = build(&g1);
  NodeId r2 = build(&g2);
  DerivationEngine fused(&g1);
  EvalOptions off;
  off.fuse = false;
  DerivationEngine unfused(&g2, off);

  auto a = fused.Evaluate(r1);
  auto b = unfused.Evaluate(r2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameImage(*a, *b);
  EXPECT_EQ(fused.stats().fused_nodes, 3u);
}

TEST(FusionTest, FusedAudioChainIsBitExact) {
  auto build = [](DerivationGraph* graph) {
    NodeId leaf = graph->AddLeaf(MediaValue(Tone(4096)), "tone");
    AttrMap gain;
    gain.SetDouble("gain", 0.7);
    AttrMap fade;
    fade.SetInt("fade in frames", 512);
    fade.SetInt("fade out frames", 1024);
    AttrMap boost;
    boost.SetDouble("gain", 1.3);
    NodeId a = *graph->AddDerived("audio gain", {leaf}, gain);
    NodeId b = *graph->AddDerived("audio fade", {a}, fade);
    return *graph->AddDerived("audio gain", {b}, boost);
  };
  DerivationGraph g1, g2;
  NodeId r1 = build(&g1);
  NodeId r2 = build(&g2);
  DerivationEngine fused(&g1);
  EvalOptions off;
  off.fuse = false;
  DerivationEngine unfused(&g2, off);

  auto a = fused.Evaluate(r1);
  auto b = unfused.Evaluate(r2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameAudio(*a, *b);
  EXPECT_EQ(fused.stats().fused_nodes, 3u);
}

TEST(FusionTest, StatsChargeFusedNodesAndElidedBytes) {
  DerivationGraph graph;
  NodeId root = BuildImageChain(&graph);
  DerivationEngine engine(&graph);
  ASSERT_TRUE(engine.Evaluate(root).ok());

  EvalStats stats = engine.stats();
  // Interior nodes still count as evaluated work, with per-op credit.
  EXPECT_EQ(stats.nodes_evaluated, 3u);
  EXPECT_EQ(stats.fused_nodes, 3u);
  EXPECT_EQ(stats.per_op.at("image filter").invocations, 3u);
  // Two interiors of a 64x48 RGB chain were never materialized.
  EXPECT_EQ(stats.elided_bytes, 2u * 64 * 48 * 3);
  EXPECT_NE(stats.ToString().find("fusion:"), std::string::npos);
}

TEST(FusionTest, OnlyTheStageOutputIsCached) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(MediaValue(videogen::Still(32, 32, 1)));
  AttrMap invert;
  invert.SetString("kind", "invert");
  NodeId a = *graph.AddDerived("image filter", {leaf}, invert);
  NodeId b = *graph.AddDerived("image filter", {a}, invert);
  DerivationEngine engine(&graph);

  ASSERT_TRUE(engine.Evaluate(b).ok());
  EXPECT_EQ(engine.stats().nodes_evaluated, 2u);

  // The tail is cached: re-evaluating it does no node work.
  ASSERT_TRUE(engine.Evaluate(b).ok());
  EXPECT_EQ(engine.stats().nodes_evaluated, 2u);
  EXPECT_GT(engine.stats().cache_hits, 0u);

  // The elided interior is not: asking for it directly recomputes.
  auto interior = engine.Evaluate(a);
  ASSERT_TRUE(interior.ok());
  EXPECT_EQ(engine.stats().nodes_evaluated, 3u);

  DerivationGraph ref_graph;
  NodeId ref_leaf = ref_graph.AddLeaf(MediaValue(videogen::Still(32, 32, 1)));
  NodeId ref_a = *ref_graph.AddDerived("image filter", {ref_leaf}, invert);
  EvalOptions off;
  off.fuse = false;
  DerivationEngine ref(&ref_graph, off);
  auto want = ref.Evaluate(ref_a);
  ASSERT_TRUE(want.ok());
  ExpectSameImage(*interior, *want);
}

TEST(FusionTest, InvalidationReachesThroughFusedStages) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(MediaValue(videogen::Still(48, 48, 9)));
  AttrMap invert;
  invert.SetString("kind", "invert");
  AttrMap thr;
  thr.SetString("kind", "threshold");
  thr.SetInt("threshold", 64);
  NodeId head = *graph.AddDerived("image filter", {leaf}, thr);
  NodeId mid = *graph.AddDerived("image filter", {head}, invert);
  NodeId root = *graph.AddDerived("image filter", {mid}, invert);
  DerivationEngine engine(&graph);

  auto before = engine.Evaluate(root);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(engine.stats().nodes_evaluated, 3u);

  // Mutating the chain head must invalidate the cached tail even
  // though the interiors were fusion-elided and never cached.
  AttrMap thr2;
  thr2.SetString("kind", "threshold");
  thr2.SetInt("threshold", 192);
  ASSERT_TRUE(graph.UpdateParams(head, thr2).ok());

  auto after = engine.Evaluate(root);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(engine.stats().nodes_evaluated, 6u);

  DerivationGraph ref_graph;
  NodeId ref_leaf = ref_graph.AddLeaf(MediaValue(videogen::Still(48, 48, 9)));
  NodeId ref_head = *ref_graph.AddDerived("image filter", {ref_leaf}, thr2);
  NodeId ref_mid = *ref_graph.AddDerived("image filter", {ref_head}, invert);
  NodeId ref_root = *ref_graph.AddDerived("image filter", {ref_mid}, invert);
  EvalOptions off;
  off.fuse = false;
  DerivationEngine ref(&ref_graph, off);
  auto want = ref.Evaluate(ref_root);
  ASSERT_TRUE(want.ok());
  ExpectSameImage(*after, *want);
}

TEST(FusionTest, ParallelFusedEvaluationMatchesInline) {
  auto build = [](DerivationGraph* graph) {
    NodeId leaf = graph->AddLeaf(MediaValue(Tone(2048)), "tone");
    AttrMap soft;
    soft.SetDouble("gain", 0.5);
    AttrMap fade;
    fade.SetInt("fade in frames", 256);
    AttrMap loud;
    loud.SetDouble("gain", 0.9);
    // Two independent chains joined by a concat: the chains fuse, the
    // concat does not, and with threads > 1 the chains run in parallel.
    NodeId a1 = *graph->AddDerived("audio gain", {leaf}, soft);
    NodeId a2 = *graph->AddDerived("audio fade", {a1}, fade);
    NodeId b1 = *graph->AddDerived("audio gain", {leaf}, loud);
    NodeId b2 = *graph->AddDerived("audio gain", {b1}, soft);
    return *graph->AddDerived("audio concat", {a2, b2}, AttrMap{});
  };
  DerivationGraph g1, g2;
  NodeId r1 = build(&g1);
  NodeId r2 = build(&g2);
  EvalOptions serial;
  serial.threads = 1;
  DerivationEngine inline_engine(&g1, serial);
  EvalOptions wide;
  wide.threads = 4;
  DerivationEngine parallel_engine(&g2, wide);

  auto a = inline_engine.Evaluate(r1);
  auto b = parallel_engine.Evaluate(r2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectSameAudio(*a, *b);
  EXPECT_EQ(parallel_engine.stats().fused_nodes, 4u);
}

TEST(FusionTest, ErrorsInsideFusedStagesKeepNodeContext) {
  DerivationGraph graph;
  NodeId leaf = graph.AddLeaf(MediaValue(videogen::Still(16, 16, 2)));
  AttrMap invert;
  invert.SetString("kind", "invert");
  AttrMap bogus;
  bogus.SetString("kind", "bogus");
  NodeId a = *graph.AddDerived("image filter", {leaf}, invert, "ok-node");
  NodeId b = *graph.AddDerived("image filter", {a}, bogus, "bad-node");
  NodeId root = *graph.AddDerived("image filter", {b}, invert);
  DerivationEngine engine(&graph);

  auto result = engine.Evaluate(root);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("bad-node"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace tbm
