// Tests for the derivation evaluation engine: the thread pool, the
// byte-budgeted expansion cache, and the concurrent scheduler
// (derive/scheduler.h) — determinism across thread counts, budget
// enforcement, invalidation after graph mutation, and failure modes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "base/thread_pool.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "derive/cache.h"
#include "derive/graph.h"
#include "derive/operators.h"
#include "derive/scheduler.h"

namespace tbm {
namespace {

AudioBuffer Tone(int64_t frames, int16_t amplitude = 8000) {
  AudioBuffer audio;
  audio.sample_rate = 8000;
  audio.channels = 1;
  std::vector<int16_t> samples(frames);
  for (int64_t i = 0; i < frames; ++i) {
    samples[i] = static_cast<int16_t>(
        amplitude * std::sin(2.0 * 3.14159265358979 * 440.0 * i / 8000.0));
  }
  audio.samples = std::move(samples);
  return audio;
}

ValueRef MakeAudioValue(int64_t frames) {
  return std::make_shared<const MediaValue>(Tone(frames));
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  // Destructor drains before joining.
  // (Scope the pool to force the drain now.)
  {
    ThreadPool inner(2);
    for (int i = 0; i < 50; ++i) {
      inner.Submit([&count] { count.fetch_add(1); });
    }
  }
  while (count.load() < 150) std::this_thread::yield();
  EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
}

// ---------------------------------------------------------------------------
// ExpansionCache

TEST(ExpansionCacheTest, HitMissAndRecency) {
  ExpansionCache cache(1 << 20);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  ValueRef v = MakeAudioValue(16);
  cache.Insert(1, v, 100, 0.01);
  ValueRef hit = cache.Lookup(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), v.get());
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_cached, 100u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ExpansionCacheTest, NeverExceedsByteBudget) {
  constexpr uint64_t kBudget = 1000;
  ExpansionCache cache(kBudget);
  for (NodeId id = 0; id < 64; ++id) {
    cache.Insert(id, MakeAudioValue(8), 150, 0.001);
    EXPECT_LE(cache.stats().bytes_cached, kBudget) << "after insert " << id;
  }
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes_cached, kBudget);
  // 6 * 150 = 900 fits; a 7th would not.
  EXPECT_EQ(stats.entries, 6u);
}

TEST(ExpansionCacheTest, ValueAboveOneEighthOfBudgetIsCached) {
  // The whole budget is available to one value: a default-sized cache
  // keeps a value charging well over an eighth of it.
  ExpansionCache cache(EvalOptions{}.cache_budget_bytes);
  const uint64_t charge = cache.budget_bytes() / 8 + (1 << 20);
  cache.Insert(1, MakeAudioValue(8), charge, 0.01);
  EXPECT_NE(cache.Lookup(1), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversize_rejects, 0u);
  EXPECT_EQ(stats.bytes_cached, charge);

  // A value charging exactly the budget still fits (evicting the first).
  cache.Insert(2, MakeAudioValue(8), cache.budget_bytes(), 0.01);
  EXPECT_NE(cache.Lookup(2), nullptr);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().bytes_cached, cache.budget_bytes());
}

TEST(ExpansionCacheTest, OversizeValueIsRejectedNotCached) {
  ExpansionCache cache(100);
  cache.Insert(1, MakeAudioValue(8), 500, 0.01);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversize_rejects, 1u);
  EXPECT_EQ(stats.bytes_cached, 0u);
}

TEST(ExpansionCacheTest, CostAwareEvictionKeepsExpensiveEntries) {
  // Two entries of equal size and equal (cold) recency: the cheap one
  // should be evicted to make room, the expensive one kept.
  ExpansionCache cache(1000);
  cache.Insert(1, MakeAudioValue(8), 400, /*cost_seconds=*/5.0);   // pricey
  cache.Insert(2, MakeAudioValue(8), 400, /*cost_seconds=*/0.001); // cheap
  cache.Insert(3, MakeAudioValue(8), 400, 0.01);  // forces one eviction
  EXPECT_NE(cache.Lookup(1), nullptr) << "expensive entry was evicted";
  EXPECT_EQ(cache.Lookup(2), nullptr) << "cheap entry should have gone";
}

TEST(ExpansionCacheTest, EvictedValueStaysAliveThroughRef) {
  ExpansionCache cache(300);
  cache.Insert(1, MakeAudioValue(16), 200, 0.01);
  ValueRef held = cache.Lookup(1);
  ASSERT_NE(held, nullptr);
  cache.Insert(2, MakeAudioValue(16), 200, 0.01);  // evicts 1
  EXPECT_EQ(cache.Lookup(1), nullptr);
  const AudioBuffer* audio = std::get_if<AudioBuffer>(held.get());
  ASSERT_NE(audio, nullptr);
  EXPECT_EQ(audio->samples.size(), 16u);
}

TEST(ExpansionCacheTest, EraseAndClear) {
  ExpansionCache cache(1 << 20);
  cache.Insert(1, MakeAudioValue(8), 100, 0.01);
  cache.Insert(2, MakeAudioValue(8), 100, 0.01);
  cache.Erase(1);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Lookup(2), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes_cached, 0u);
  EXPECT_EQ(stats.invalidations, 2u);
}

// ---------------------------------------------------------------------------
// DerivationEngine

// A fan-out graph: one source tone feeding `branches` independent gain
// stages, concatenated pairwise down to a single root.
struct FanOut {
  DerivationGraph graph;
  NodeId root = 0;
};

FanOut MakeFanOut(int branches) {
  FanOut f;
  NodeId source = f.graph.AddLeaf(Tone(2048), "source");
  std::vector<NodeId> tops;
  for (int i = 0; i < branches; ++i) {
    AttrMap params;
    params.SetDouble("gain", 1.0 / (i + 2));
    tops.push_back(*f.graph.AddDerived("audio gain", {source}, params,
                                       "gain" + std::to_string(i)));
  }
  while (tops.size() > 1) {
    std::vector<NodeId> next;
    for (size_t i = 0; i + 1 < tops.size(); i += 2) {
      next.push_back(*f.graph.AddDerived("audio concat",
                                         {tops[i], tops[i + 1]}, AttrMap{}));
    }
    if (tops.size() % 2 == 1) next.push_back(tops.back());
    tops = std::move(next);
  }
  f.root = tops.front();
  return f;
}

const AudioBuffer& AsAudio(const ValueRef& value) {
  const AudioBuffer* audio = std::get_if<AudioBuffer>(value.get());
  EXPECT_NE(audio, nullptr);
  return *audio;
}

TEST(EngineTest, ParallelResultMatchesSerialBitwise) {
  FanOut f = MakeFanOut(9);  // Odd count exercises the carry branch.
  EvalOptions serial;
  serial.threads = 1;
  DerivationEngine engine1(&f.graph, serial);
  EvalOptions wide;
  wide.threads = 4;
  DerivationEngine engine4(&f.graph, wide);

  auto serial_value = engine1.Evaluate(f.root);
  ASSERT_TRUE(serial_value.ok()) << serial_value.status();
  auto parallel_value = engine4.Evaluate(f.root);
  ASSERT_TRUE(parallel_value.ok()) << parallel_value.status();
  EXPECT_EQ(AsAudio(*serial_value).samples, AsAudio(*parallel_value).samples);

  // Repeated parallel evaluations stay stable (and come from cache).
  auto again = engine4.Evaluate(f.root);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), parallel_value->get());
  EXPECT_GT(engine4.stats().cache_hits, 0u);
}

TEST(EngineTest, ZeroThreadsResolvesToHardware) {
  DerivationGraph graph;
  EvalOptions options;
  options.threads = 0;
  DerivationEngine engine(&graph, options);
  EXPECT_EQ(engine.threads(), ThreadPool::DefaultThreads());
}

TEST(EngineTest, EvaluationRespectsCacheBudget) {
  FanOut f = MakeFanOut(16);
  EvalOptions options;
  options.threads = 2;
  options.cache_budget_bytes = 16 << 10;  // Far less than the graph needs.
  DerivationEngine engine(&f.graph, options);
  auto value = engine.Evaluate(f.root);
  ASSERT_TRUE(value.ok()) << value.status();
  EvalStats stats = engine.stats();
  EXPECT_LE(stats.bytes_cached, options.cache_budget_bytes);
  EXPECT_EQ(stats.cache_budget_bytes, options.cache_budget_bytes);
  // The squeezed cache had to evict or reject along the way.
  EXPECT_TRUE(stats.cache_evictions > 0 || stats.cache_misses > 0);
}

TEST(EngineTest, InvalidationAfterUpdateParams) {
  DerivationGraph graph;
  NodeId source = graph.AddLeaf(Tone(512), "source");
  AttrMap quiet;
  quiet.SetDouble("gain", 0.5);
  NodeId gain = *graph.AddDerived("audio gain", {source}, quiet, "gain");
  NodeId out = *graph.AddDerived("audio concat", {gain, gain}, AttrMap{});

  DerivationEngine engine(&graph, EvalOptions{});
  auto before = engine.Evaluate(out);
  ASSERT_TRUE(before.ok());

  AttrMap quieter;
  quieter.SetDouble("gain", 0.1);
  ASSERT_TRUE(graph.UpdateParams(gain, std::move(quieter)).ok());

  auto after = engine.Evaluate(out);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(AsAudio(*before).samples, AsAudio(*after).samples)
      << "stale cached expansion served after UpdateParams";
  EXPECT_GT(engine.stats().entries_invalidated, 0u);
}

TEST(EngineTest, AddDerivedAfterEvaluationIsEvaluable) {
  DerivationGraph graph;
  NodeId source = graph.AddLeaf(Tone(512), "source");
  AttrMap params;
  params.SetDouble("gain", 0.7);
  NodeId gain = *graph.AddDerived("audio gain", {source}, params);

  DerivationEngine engine(&graph, EvalOptions{});
  ASSERT_TRUE(engine.Evaluate(gain).ok());

  // Extend the graph under the same engine: the new node must evaluate
  // (reusing the cached input where possible).
  NodeId doubled = *graph.AddDerived("audio concat", {gain, gain}, AttrMap{});
  auto value = engine.Evaluate(doubled);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(AsAudio(*value).samples.size(), 1024u);
}

TEST(EngineTest, ExplicitInvalidateDropsDependents) {
  FanOut f = MakeFanOut(4);
  DerivationEngine engine(&f.graph, EvalOptions{});
  ASSERT_TRUE(engine.Evaluate(f.root).ok());
  uint64_t miss_before = engine.stats().cache_misses;
  ASSERT_TRUE(engine.Invalidate(f.root).ok());
  ASSERT_TRUE(engine.Evaluate(f.root).ok());
  // Only the root was invalidated; its inputs stay cached, so exactly
  // one more miss (the root) is incurred.
  EXPECT_EQ(engine.stats().cache_misses, miss_before + 1);
  EXPECT_FALSE(engine.Invalidate(9999).ok());
}

TEST(EngineTest, ErrorsPropagateFromAnyThreadCount) {
  for (int threads : {1, 4}) {
    DerivationGraph graph;
    NodeId video_leaf = graph.AddLeaf(Tone(64), "audio");
    // "video edit" on audio fails at apply time (kind mismatch).
    AttrMap cut;
    cut.SetInt("start frame", 0);
    cut.SetInt("frame count", 1);
    auto bad = graph.AddDerived("video edit", {video_leaf}, cut, "bad");
    ASSERT_TRUE(bad.ok());
    EvalOptions options;
    options.threads = threads;
    DerivationEngine engine(&graph, options);
    auto value = engine.Evaluate(*bad);
    EXPECT_FALSE(value.ok()) << "threads=" << threads;
  }
}

TEST(EngineTest, StatsCountWork) {
  FanOut f = MakeFanOut(4);
  EvalOptions options;
  options.threads = 2;
  DerivationEngine engine(&f.graph, options);
  ASSERT_TRUE(engine.Evaluate(f.root).ok());
  EvalStats stats = engine.stats();
  EXPECT_EQ(stats.evaluations, 1u);
  // 4 gains + 3 concats.
  EXPECT_EQ(stats.nodes_evaluated, 7u);
  EXPECT_EQ(stats.per_op.at("audio gain").invocations, 4u);
  EXPECT_EQ(stats.per_op.at("audio concat").invocations, 3u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(EngineTest, StatsPrintCacheLinesOnlyForReusedEngine) {
  FanOut f = MakeFanOut(4);
  DerivationEngine engine(&f.graph);
  ASSERT_TRUE(engine.Evaluate(f.root).ok());
  // One evaluation starts from an empty cache: no hit is possible, so
  // the cache lines are left out.
  std::string once = engine.stats().ToString();
  EXPECT_NE(once.find("evaluations: 1 "), std::string::npos) << once;
  EXPECT_EQ(once.find("cache"), std::string::npos) << once;

  ASSERT_TRUE(engine.Evaluate(f.root).ok());
  EvalStats stats = engine.stats();
  ASSERT_GT(stats.cache_hits, 0u);
  std::string twice = stats.ToString();
  EXPECT_NE(twice.find("cache: " + std::to_string(stats.cache_hits) +
                       " hits"),
            std::string::npos)
      << twice;
  EXPECT_NE(twice.find("cache occupancy: "), std::string::npos) << twice;
  EXPECT_NE(twice.find("cache bytes: "), std::string::npos) << twice;
}

TEST(EngineTest, ConcurrentEvaluateCallsAreSafe) {
  FanOut f = MakeFanOut(8);
  EvalOptions options;
  options.threads = 2;
  DerivationEngine engine(&f.graph, options);
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] {
      auto value = engine.Evaluate(f.root);
      if (!value.ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace tbm
