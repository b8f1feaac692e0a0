// `materialize`: a caller runs MediaDatabase::Materialize on derived
// objects and Compose + MixAudio/RenderFrameAt on multimedia objects of
// a file-backed database.
//
// The catalog follows Table 1 and Fig. 4 of the paper: fusable image
// and audio content chains, timing-only video edits, MIDI synthesis, a
// transition and an audio mix whose branches share one source or node,
// a mix of two chains that share nothing, and two multimedia objects.
// Each template is built on kInstances disjoint sets of sources; a call
// picks its template with fixed weights and its instance by a seeded Zipf
// popularity, so the seed moves which objects are hot but not the mix of
// work.
#include <atomic>
#include <cstring>
#include <functional>
#include <thread>

#include "db/codec_bridge.h"
#include "db/database.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tbm;

constexpr int kInstances = 4;
/// One caller. The loop is CPU-bound: with four callers on four cores
/// its run-to-run spread was twice that with two, and with two the peak
/// RSS jumped by a quarter in some runs, when both callers' largest
/// working sets coincided.
constexpr int kCallerThreads = 1;
constexpr double kWarmupSeconds = 1.0;
constexpr int64_t kMixRate = 22050;
constexpr int32_t kMixChannels = 2;
constexpr int32_t kFrameW = 160;
constexpr int32_t kFrameH = 120;
constexpr double kRenderTimes[] = {0.2, 0.6, 1.0};

enum SourceKind { kStill, kPcm, kAdpcm, kVideoA, kVideoB, kMidi, kSources };
const char* const kSourceNames[kSources] = {"still", "pcm", "adpcm",
                                            "vid_a", "vid_b", "midi"};

/// Ops the catalog uses; per-op time is reported for each.
const char* const kOps[] = {"image filter",     "color separation",
                            "audio gain",       "audio fade",
                            "audio normalization", "video edit",
                            "video reverse",    "video speed",
                            "MIDI synthesis",   "video transition",
                            "audio mix"};

struct Object {
  std::string name;
  bool multimedia = false;
  ObjectId id = kInvalidObjectId;
  int instance = 0;                ///< Which set of sources it reads.
  std::vector<SourceKind> leaves;  ///< Sources it reads.
  bool shared_source = false;      ///< Two branches read one node.
  uint64_t digest = 0;             ///< Node-at-a-time reference.
};

struct Template {
  std::string name;
  std::vector<Object> instances;  ///< kInstances of them.
  Popularity popularity;
};

struct Inputs {
  /// sources[instance][kind]
  std::vector<std::vector<RawMedia>> sources;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  for (int i = 0; i < kInstances; ++i) {
    std::vector<RawMedia> s(kSources);
    auto scene = [&rng] { return static_cast<uint32_t>(rng.Below(1000)); };
    s[kStill] = RawTjpegStill(scene(), 192, 144, 60);
    s[kPcm] = RawPcm(rng.Next(), 2.0, kMixRate, kMixChannels, 1024);
    s[kAdpcm] = RawAdpcm(rng.Next(), 2.0, kMixRate, kMixChannels, 1024);
    s[kVideoA] = RawTjpegClip(scene(), 128, 96, 30, 50);
    s[kVideoB] = RawTjpegClip(scene(), 128, 96, 30, 50);
    s[kMidi] = RawMidi(rng.Next(), 24);
    in.sources.push_back(std::move(s));
  }
  return in;
}

AttrMap Params(std::initializer_list<std::pair<const char*, AttrValue>> kv) {
  AttrMap params;
  for (const auto& [k, v] : kv) params.Set(k, v);
  return params;
}

/// The catalog of one database: sources plus every template instance.
class Catalog {
 public:
  /// Encodes the sources and builds the database in `dir` (the
  /// workload's set-up).
  Status Build(const std::string& dir, const Inputs& in, uint64_t seed) {
    TBM_ASSIGN_OR_RETURN(db_, OpenForBulkLoad(dir));
    templates_.clear();
    sources_.assign(kInstances, std::vector<ObjectId>(kSources));
    for (int i = 0; i < kInstances; ++i) {
      for (int k = 0; k < kSources; ++k) {
        std::string name = std::string(kSourceNames[k]) + std::to_string(i);
        TBM_ASSIGN_OR_RETURN(
            Interpretation interp,
            CaptureStream(db_->blob_store(), Encode(in.sources[i][k]), "s"));
        TBM_ASSIGN_OR_RETURN(ObjectId interp_id,
                             db_->AddInterpretation(name + ".interp", interp));
        TBM_ASSIGN_OR_RETURN(sources_[i][k],
                             db_->AddMediaObject(name, interp_id, "s"));
      }
    }
    // The weights are a synthetic choice, not measured traffic.
    // Templates without video cost a few milliseconds a call, those
    // with video three to four times more. The cheap ones get twice the
    // weight, so the median call falls inside the cheap group rather
    // than in the gap between the groups: op_p50_us covers the five
    // templates without video, and video and composition work shows in
    // ops_per_s and op_p99_us only.
    const std::pair<const char*, int> templates[] = {
        {"image_chain", 2}, {"audio_chain", 2}, {"midi_synth", 2},
        {"shared_mix", 2},  {"disjoint_mix", 2}, {"video_cut", 1},
        {"transition", 1},  {"mm_scene", 1},    {"mm_dub", 1}};
    Rng rng(seed ^ 0xCA7A);
    weights_.clear();
    for (const auto& [name, weight] : templates) {
      Template t{name, {}, Popularity(kInstances, 1.0, rng.Next())};
      weights_.push_back(weight);
      for (int i = 0; i < kInstances; ++i) {
        TBM_ASSIGN_OR_RETURN(Object o, AddInstance(name, i));
        t.instances.push_back(std::move(o));
      }
      templates_.push_back(std::move(t));
    }
    return Status::OK();
  }

  MediaDatabase* db() { return db_.get(); }
  void Close() { db_.reset(); }
  std::vector<Template>& templates() { return templates_; }
  ObjectId source(int instance, SourceKind kind) const {
    return sources_[instance][kind];
  }

  Object& Pick(Rng& rng) {
    Template& t = templates_[rng.Weighted(weights_)];
    return t.instances[t.popularity.Sample(rng)];
  }

 private:
  Result<ObjectId> Derive(const std::string& name, const std::string& op,
                          std::vector<ObjectId> inputs, AttrMap params) {
    return db_->AddDerivedObject(name, op, std::move(inputs),
                                 std::move(params));
  }

  Result<Object> AddInstance(const std::string& tname, int i) {
    const std::string p = tname + std::to_string(i) + ".";
    auto src = [&](SourceKind k) { return sources_[i][k]; };
    Object o;
    o.name = p + "out";
    o.instance = i;
    if (tname == "image_chain") {
      // Fusable content chain (Table 1: digital filters, colour
      // separation).
      TBM_ASSIGN_OR_RETURN(ObjectId a, Derive(p + "invert", "image filter",
                                              {src(kStill)},
                                              Params({{"kind", "invert"}})));
      TBM_ASSIGN_OR_RETURN(
          ObjectId b,
          Derive(p + "threshold", "image filter", {a},
                 Params({{"kind", "threshold"}, {"threshold", int64_t{100}}})));
      TBM_ASSIGN_OR_RETURN(o.id, Derive(o.name, "color separation", {b}, {}));
      o.leaves = {kStill};
    } else if (tname == "audio_chain") {
      TBM_ASSIGN_OR_RETURN(ObjectId a, Derive(p + "gain", "audio gain",
                                              {src(kPcm)},
                                              Params({{"gain", 0.8}})));
      TBM_ASSIGN_OR_RETURN(
          ObjectId b, Derive(p + "fade", "audio fade", {a},
                             Params({{"fade in frames", int64_t{2048}},
                                     {"fade out frames", int64_t{2048}}})));
      TBM_ASSIGN_OR_RETURN(o.id, Derive(o.name, "audio normalization", {b},
                                        Params({{"target peak", 0.9}})));
      o.leaves = {kPcm};
    } else if (tname == "video_cut") {
      // Timing-only edits: cut, reverse, speed change.
      TBM_ASSIGN_OR_RETURN(
          ObjectId a,
          Derive(p + "cut", "video edit", {src(kVideoA)},
                 Params({{"start frame", int64_t{4}},
                         {"frame count", int64_t{24}}})));
      TBM_ASSIGN_OR_RETURN(ObjectId b,
                           Derive(p + "rev", "video reverse", {a}, {}));
      TBM_ASSIGN_OR_RETURN(
          o.id, Derive(o.name, "video speed", {b},
                       Params({{"speed num", int64_t{2}},
                               {"speed den", int64_t{1}}})));
      o.leaves = {kVideoA};
    } else if (tname == "midi_synth") {
      TBM_ASSIGN_OR_RETURN(
          ObjectId a,
          Derive(p + "synth", "MIDI synthesis", {src(kMidi)},
                 Params({{"sample rate", kMixRate},
                         {"channels", int64_t{kMixChannels}},
                         {"instrument", int64_t{1}}})));
      TBM_ASSIGN_OR_RETURN(o.id, Derive(o.name, "audio gain", {a},
                                        Params({{"gain", 0.7}})));
      o.leaves = {kMidi};
    } else if (tname == "transition") {
      // Two cuts of one source joined by a fade: the source is shared.
      TBM_ASSIGN_OR_RETURN(
          ObjectId a, Derive(p + "cut_a", "video edit", {src(kVideoB)},
                             Params({{"start frame", int64_t{0}},
                                     {"frame count", int64_t{15}}})));
      TBM_ASSIGN_OR_RETURN(
          ObjectId b, Derive(p + "cut_b", "video edit", {src(kVideoB)},
                             Params({{"start frame", int64_t{15}},
                                     {"frame count", int64_t{15}}})));
      TBM_ASSIGN_OR_RETURN(
          o.id, Derive(o.name, "video transition", {a, b},
                       Params({{"kind", "fade"},
                               {"duration frames", int64_t{10}}})));
      o.leaves = {kVideoB};
      o.shared_source = true;
    } else if (tname == "shared_mix") {
      // Two branches over one shared derived node.
      TBM_ASSIGN_OR_RETURN(ObjectId s, Derive(p + "gain", "audio gain",
                                              {src(kAdpcm)},
                                              Params({{"gain", 0.5}})));
      TBM_ASSIGN_OR_RETURN(
          ObjectId a, Derive(p + "fade", "audio fade", {s},
                             Params({{"fade in frames", int64_t{4096}},
                                     {"fade out frames", int64_t{0}}})));
      TBM_ASSIGN_OR_RETURN(ObjectId b,
                           Derive(p + "norm", "audio normalization", {s},
                                  Params({{"target peak", 0.8}})));
      TBM_ASSIGN_OR_RETURN(
          o.id, Derive(o.name, "audio mix", {a, b},
                       Params({{"gain a", 0.5}, {"gain b", 0.5}})));
      o.leaves = {kAdpcm};
      o.shared_source = true;
    } else if (tname == "disjoint_mix") {
      TBM_ASSIGN_OR_RETURN(ObjectId a, Derive(p + "gain", "audio gain",
                                              {src(kPcm)},
                                              Params({{"gain", 0.6}})));
      TBM_ASSIGN_OR_RETURN(ObjectId b, Derive(p + "gain2", "audio gain",
                                              {src(kAdpcm)},
                                              Params({{"gain", 0.4}})));
      TBM_ASSIGN_OR_RETURN(
          o.id, Derive(o.name, "audio mix", {a, b},
                       Params({{"gain a", 1.0}, {"gain b", 1.0}})));
      o.leaves = {kPcm, kAdpcm};
    } else if (tname == "mm_scene") {
      // Fig. 4: narration, an edited clip and a still overlay.
      TBM_ASSIGN_OR_RETURN(
          ObjectId cut, Derive(p + "cut", "video edit", {src(kVideoA)},
                               Params({{"start frame", int64_t{2}},
                                       {"frame count", int64_t{25}}})));
      std::vector<StoredComponent> c;
      c.push_back({"c1", src(kPcm), Rational(0), std::nullopt});
      c.push_back({"c2", cut, Rational(1, 5), SpatialPlacement{0, 0, 0}});
      c.push_back({"c3", src(kStill), Rational(1, 2),
                   SpatialPlacement{16, 12, 1}});
      TBM_ASSIGN_OR_RETURN(o.id, db_->AddMultimediaObject(o.name, c));
      o.multimedia = true;
      o.leaves = {kPcm, kVideoA, kStill};
    } else {  // mm_dub
      TBM_ASSIGN_OR_RETURN(
          ObjectId a, Derive(p + "cut_a", "video edit", {src(kVideoB)},
                             Params({{"start frame", int64_t{0}},
                                     {"frame count", int64_t{15}}})));
      TBM_ASSIGN_OR_RETURN(
          ObjectId b, Derive(p + "cut_b", "video edit", {src(kVideoB)},
                             Params({{"start frame", int64_t{15}},
                                     {"frame count", int64_t{15}}})));
      TBM_ASSIGN_OR_RETURN(
          ObjectId wipe, Derive(p + "wipe", "video transition", {a, b},
                                Params({{"kind", "wipe"},
                                        {"duration frames", int64_t{8}}})));
      TBM_ASSIGN_OR_RETURN(ObjectId dub, Derive(p + "dub", "audio gain",
                                                {src(kAdpcm)},
                                                Params({{"gain", 0.9}})));
      std::vector<StoredComponent> c;
      c.push_back({"c1", wipe, Rational(0), SpatialPlacement{0, 0, 0}});
      c.push_back({"c2", dub, Rational(0), std::nullopt});
      c.push_back({"c3", src(kMidi), Rational(0), std::nullopt});
      TBM_ASSIGN_OR_RETURN(o.id, db_->AddMultimediaObject(o.name, c));
      o.multimedia = true;
      o.leaves = {kVideoB, kAdpcm, kMidi};
      o.shared_source = true;
    }
    return o;
  }

  std::unique_ptr<MediaDatabase> db_;
  std::vector<Template> templates_;
  std::vector<double> weights_;  ///< Of templates_, in order.
  std::vector<std::vector<ObjectId>> sources_;
};

/// Spans of one multimedia call, for the traced probe pass.
struct ComposeSpans {
  SpanRecorder::Buffer* spans = nullptr;
  uint64_t op = 0;
};

/// One workload operation; returns the output digest and its bytes.
Result<std::pair<uint64_t, uint64_t>> Execute(MediaDatabase* db,
                                              const Object& o,
                                              const ComposeSpans& trace = {}) {
  if (!o.multimedia) {
    Result<MediaValue> value = Status::Internal("unset");
    {
      ScopedSpan span(trace.spans, "derive.materialize", trace.op);
      value = db->Materialize(o.id);
    }
    if (!value.ok()) return value.status();
    return std::make_pair(Digest(*value), ValueBytes(*value));
  }
  Result<std::unique_ptr<ComposedView>> view = Status::Internal("unset");
  {
    ScopedSpan span(trace.spans, "compose.build", trace.op);
    view = db->Compose(o.id);
  }
  if (!view.ok()) return view.status();
  Result<AudioBuffer> mix = Status::Internal("unset");
  {
    ScopedSpan span(trace.spans, "compose.mix_audio", trace.op);
    mix = (*view)->object.MixAudio(kMixRate, kMixChannels);
  }
  if (!mix.ok()) return mix.status();
  uint64_t digest = DigestAudio(*mix);
  uint64_t bytes = mix->samples.size() * sizeof(int16_t);
  for (double t : kRenderTimes) {
    Result<Image> frame = Status::Internal("unset");
    {
      ScopedSpan span(trace.spans, "compose.render_frame", trace.op);
      frame = (*view)->object.RenderFrameAt(t, kFrameW, kFrameH);
    }
    if (!frame.ok()) return frame.status();
    digest = digest * 0x100000001B3ull ^ DigestImage(*frame);
    bytes += frame->data.size();
  }
  return std::make_pair(digest, bytes);
}

struct LoopStats {
  /// Measured calls and their output bytes.
  WindowedSamples calls{kSamplesPerThread / 16};
  Tally tally;
};

/// The closed loop: each thread runs one call at a time.
struct LoopResult {
  LoopStats stats;
  Interval measured;
};

LoopResult RunCallers(uint64_t seed, Catalog* catalog, double warmup,
                      double seconds, SpanRecorder* recorder,
                      int interludes = 0,
                      const std::function<void()>& interlude = {}) {
  const int threads = ClientThreads(kCallerThreads);
  std::vector<LoopStats> per_thread(threads);
  std::vector<SpanRecorder::Buffer*> buffers(threads, nullptr);
  if (recorder != nullptr) {
    for (auto& b : buffers) b = recorder->NewBuffer();
  }
  LoopResult result;
  auto loop = [&](int t, PhaseGate& gate) {
    Rng rng(seed * 1000 + t + 1);
    LoopStats& out = per_thread[t];
    SpanRecorder::Buffer* spans = buffers[t];
    uint64_t op = (seed * 1000 + t + 1) << 24;
    for (int p; (p = gate.Poll()) != kStop;) {
      const Object& o = catalog->Pick(rng);
      out.tally.attempted++;
      int64_t t0 = NowNs();
      auto r = Execute(catalog->db(), o, ComposeSpans{spans, ++op});
      int64_t t1 = NowNs();
      if (spans != nullptr) spans->Add("materialize.call", op, t0, t1);
      if (!r.ok()) {
        out.tally.Fail(o.name + ": " + r.status().ToString());
      } else if (r->first != o.digest) {
        out.tally.Fail(o.name + ": digest " + Hex64(r->first) + " != " +
                       Hex64(o.digest));
      } else if (p == kMeasure) {
        out.calls.Add(t1, (t1 - t0) / 1e3, r->second);
      }
    }
  };
  result.measured =
      RunPhased(threads, warmup, seconds, loop, interludes, interlude);
  for (LoopStats& s : per_thread) {
    result.stats.calls.Append(std::move(s.calls));
    result.stats.tally.Merge(s.tally);
  }
  return result;
}

/// Serial traced pass over a seeded sample of calls: each source a
/// call reads is expanded (MaterializeStream) and decoded (DecodeStream)
/// under its own span, then the call itself runs and, for derived
/// objects, reports the engine's EvalStats.
void RunProbes(uint64_t seed, Catalog* catalog, double seconds,
               SpanRecorder::Buffer* spans, WorkloadResult* result,
               double materialize_p50_us) {
  MediaDatabase* db = catalog->db();
  Rng rng(seed ^ 0x9B0B);
  uint64_t op = 1ull << 62;
  uint64_t decoded_bytes = 0;
  double decode_s = 0;
  uint64_t calls = 0, derived_calls = 0, fused_calls = 0, shared_calls = 0;
  uint64_t nodes = 0, fused = 0, hits = 0, misses = 0;
  std::map<std::string, double> op_seconds;
  Samples explained_us, serial_us;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  // The workload's own mix of calls.
  while (Clock::now() < end) {
    const Object& o = catalog->Pick(rng);
    ++op;
    double leaf_us = 0;
    for (SourceKind k : o.leaves) {
      int64_t t0 = NowNs();
      auto stream = db->MaterializeStream(catalog->source(o.instance, k));
      int64_t t1 = NowNs();
      spans->Add("interp.materialize_stream", op, t0, t1);
      result->tally.attempted++;
      if (!stream.ok()) {
        result->tally.Fail("probe stream " + o.name);
        continue;
      }
      auto value = DecodeStream(*stream);
      int64_t t2 = NowNs();
      spans->Add("codec.decode", op, t1, t2);
      if (!value.ok()) result->tally.Fail("probe decode " + o.name);
      decoded_bytes += stream->TotalBytes();
      decode_s += (t2 - t1) / 1e9;
      leaf_us += (t2 - t0) / 1e3;
    }
    result->tally.attempted++;
    int64_t t0 = NowNs();
    auto r = Execute(db, o, ComposeSpans{spans, op});
    int64_t t1 = NowNs();
    if (!r.ok() || r->first != o.digest) {
      result->tally.Fail("probe call " + o.name);
      continue;
    }
    serial_us.Add((t1 - t0) / 1e3);
    ++calls;
    if (o.shared_source) ++shared_calls;
    if (o.multimedia) {
      // Compose's build expands and decodes the leaves again; the
      // rest of it, the mix and the renders are composition.
      double build_us = 0, present_us = 0;
      const auto& recorded = spans->spans();
      for (auto it = recorded.rbegin(); it != recorded.rend() && it->op == op;
           ++it) {
        const double us = (it->end_ns - it->start_ns) / 1e3;
        (std::strcmp(it->name, "compose.build") == 0 ? build_us
                                                      : present_us) += us;
      }
      explained_us.Add(leaf_us + std::max(0.0, build_us - leaf_us) +
                       present_us);
      continue;
    }
    EvalStats stats = db->last_eval_stats();
    ++derived_calls;
    nodes += stats.nodes_evaluated;
    fused += stats.fused_nodes;
    hits += stats.cache_hits;
    misses += stats.cache_misses;
    if (stats.fused_nodes > 0) ++fused_calls;
    for (const auto& [name, s] : stats.per_op) op_seconds[name] += s.seconds;
    explained_us.Add(leaf_us + stats.wall_seconds * 1e6);
  }
  MetricSet& L = result->layers;
  const double per_call = derived_calls > 0 ? 1.0 / derived_calls : 0.0;
  L.Set("derive.calls", static_cast<double>(derived_calls), "count");
  L.Set("derive.nodes_per_call", nodes * per_call, "count");
  L.Set("derive.fused_nodes_per_call", fused * per_call, "count");
  L.Set("derive.cache_hit_ratio",
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0,
        "ratio");
  L.Set("derive.cache_base", static_cast<double>(hits + misses), "count");
  L.Set("derive.fusable_call_share", fused_calls * per_call, "ratio");
  L.Set("derive.shared_source_call_share",
        calls > 0 ? static_cast<double>(shared_calls) / calls : 0.0, "ratio");
  for (const char* name : kOps) {
    std::string key = "derive.op." + std::string(name);
    for (char& c : key) {
      if (c == ' ') c = '_';
    }
    auto it = op_seconds.find(name);
    L.Set(key + "_ms_per_call",
          it == op_seconds.end() ? 0.0 : it->second * 1e3 * per_call, "ms");
  }
  L.Set("codec.decode_mb_s", decode_s > 0 ? decoded_bytes / decode_s / 1e6 : 0,
        "MB/s");

  // Ladder: stream -> decode -> derive/compose, per serial call,
  // against the loaded materialize_p50.
  const double explained = explained_us.P50();
  const double remainder = materialize_p50_us - explained;
  const double pct =
      materialize_p50_us > 0 ? 100.0 * remainder / materialize_p50_us : 0.0;
  L.Set("bench.materialize_unexplained_pct", pct, "%");
  result->lines.push_back(
      "{\"ladder\": {\"workload\": \"materialize\", \"values\": {"
      "\"explained_p50_us\": " + FormatNumber(explained) +
      ", \"serial_call_p50_us\": " + FormatNumber(serial_us.P50()) +
      ", \"materialize_p50_us\": " + FormatNumber(materialize_p50_us) +
      ", \"unexplained_us\": " + FormatNumber(remainder) +
      ", \"unexplained_pct\": " + FormatNumber(pct) + "}}}");
}

}  // namespace

WorkloadResult RunMaterialize(const RunSpec& spec) {
  WorkloadResult result;
  const Options& opt = *spec.options;
  Inputs inputs = MakeInputs(opt.seed);

  // Set-up: encode the sources and build the catalog. The first builds
  // the catalog the loop uses; the others run in pauses spread across
  // the loop and are thrown away.
  std::vector<double> setup_s;
  auto set_up = [&](Catalog* catalog, const Inputs& in, int i) {
    const std::string dir = spec.dir + "/db" + std::to_string(i);
    auto t0 = Clock::now();
    Status built = catalog->Build(dir, in, opt.seed);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!built.ok()) {
      result.tally.attempted++;
      result.tally.Fail("set-up: " + built.ToString());
    }
    return built.ok();
  };
  Catalog catalog;
  const std::string db_dir = spec.dir + "/db0";
  if (!set_up(&catalog, inputs, 0)) return result;
  auto interlude = [&] {
    Inputs again = MakeInputs(opt.seed);
    Catalog scratch;
    const int i = static_cast<int>(setup_s.size());
    set_up(&scratch, again, i);
    scratch.Close();
    RemoveTree(spec.dir + "/db" + std::to_string(i));
  };

  // Reference digests from the node-at-a-time path (no plan fusion),
  // single-threaded and outside the set-up time; the loop then runs
  // with the database's default evaluation options. Compose expands
  // through the graph's built-in engine, which the options do not
  // reach, so a multimedia object's reference takes the loop's path.
  const EvalOptions defaults = catalog.db()->eval_options();
  EvalOptions reference = defaults;
  reference.fuse = false;
  reference.threads = 1;
  catalog.db()->set_eval_options(reference);
  std::string digests;
  for (Template& t : catalog.templates()) {
    for (Object& o : t.instances) {
      auto r = Execute(catalog.db(), o);
      result.tally.attempted++;
      if (!r.ok()) {
        result.tally.Fail("reference " + o.name + ": " + r.status().ToString());
        return result;
      }
      o.digest = r->first;
      digests += (digests.empty() ? "" : ", ") + JsonString(o.name) + ": " +
                 JsonString(Hex64(o.digest));
    }
  }
  catalog.db()->set_eval_options(defaults);
  result.lines.push_back("{\"digests\": {" + digests + "}}");
  inputs = Inputs();
  result.named.Set("setup_peak_rss_mb", ResetPeakRss(), "MB");

  const bool traced = spec.recorder != nullptr;
  LoopResult main =
      RunCallers(opt.seed, &catalog, kWarmupSeconds,
                 traced ? spec.seconds / 2 : spec.seconds, nullptr,
                 spec.setups - 1, interlude);
  result.e2e.Set("setup_s", Mean(setup_s), "s");
  result.tally.Merge(main.stats.tally);
  WindowedSamples::Summary calls =
      SetOpMetrics(main.stats.calls, main.measured, !spec.side, &result);
  result.named.Set("materialize_p50_ms", calls.p50 / 1e3, "ms");
  result.named.Set("materialize_p99_ms", calls.p99 / 1e3, "ms");
  result.named.Set("materialize_per_s", calls.per_s, "1/s");
  result.named.Set("client_threads", ClientThreads(kCallerThreads), "count");

  if (traced) {
    SpanRecorder* rec = spec.recorder;
    LoopResult t = RunCallers(opt.seed + 1, &catalog, 0.3, spec.seconds / 2,
                              rec);
    result.tally.Merge(t.stats.tally);
    const double p50 = main.stats.calls.All().P50();
    const Samples traced_calls = t.stats.calls.All();
    MetricSet& L = result.layers;
    L.Set("bench.materialize_trace_overhead_pct",
          p50 > 0 ? 100.0 * (traced_calls.P50() - p50) / p50 : 0.0, "%");
    L.Set("bench.materialize_samples",
          static_cast<double>(traced_calls.size()), "count");
    RunProbes(opt.seed, &catalog, std::clamp(spec.seconds / 5, 1.0, 2.0),
              rec->NewBuffer(), &result, p50);
    L.Set("interp.materialize_stream_p50_us",
          rec->Durations("interp.materialize_stream").P50(), "us");
    L.Set("codec.decode_p50_ms", rec->Durations("codec.decode").P50() / 1e3,
          "ms");
    L.Set("compose.build_p50_us", rec->Durations("compose.build").P50(), "us");
    L.Set("compose.mix_audio_p50_ms",
          rec->Durations("compose.mix_audio").P50() / 1e3, "ms");
    L.Set("compose.render_frame_p50_ms",
          rec->Durations("compose.render_frame").P50() / 1e3, "ms");
  }

  catalog.Close();
  RemoveTree(db_dir);
  return result;
}

}  // namespace perfbench
