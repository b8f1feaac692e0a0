// Reproduces Figure 4: the §4.3 composition example. Builds the full
// instance diagram — audio1/audio2 interleaved in one BLOB, video1/
// video2 in another, cut1/cut2/fade/concat derivation objects, video3,
// and the multimedia object m with temporal relationships c1..c3 —
// prints the relationship graph and the Figure 4b timeline, and
// benchmarks timeline evaluation against component count.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "db/database.h"
#include "interp/capture.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

constexpr int kW = 160, kH = 120;

struct Figure4Instance {
  std::unique_ptr<MediaDatabase> db;
  ObjectId audio1, audio2, video1, video2;
  ObjectId cut1, cut2, fade, video3, m;
};

Figure4Instance BuildInstance() {
  Figure4Instance out;
  out.db = MediaDatabase::CreateInMemory();
  MediaDatabase* db = out.db.get();

  // Audio BLOB: music (audio1) + narration (audio2), interleaved.
  {
    AudioBuffer music = audiogen::Sine(8000, 1, 330.0, 0.35, 130.0 / 25.0);
    AudioBuffer narration = audiogen::Narration(8000, 1, 70.0 / 25.0, 4);
    auto session = CaptureSession::Begin(db->blob_store());
    CheckOk(session.status(), "audio session");
    MediaDescriptor desc;
    desc.type_name = "audio/pcm-block";
    desc.kind = MediaKind::kAudio;
    desc.attrs.SetInt("sample rate", 8000);
    desc.attrs.SetInt("sample size", 16);
    desc.attrs.SetInt("number of channels", 1);
    desc.attrs.SetString("encoding", "PCM");
    size_t h1 = ValueOrDie(
        session->DeclareObject("audio1", desc, TimeSystem(8000)), "audio1");
    size_t h2 = ValueOrDie(
        session->DeclareObject("audio2", desc, TimeSystem(8000)), "audio2");
    auto push = [&](size_t handle, const AudioBuffer& buffer, int64_t from,
                    int64_t count) {
      Bytes bytes(count * 2);
      for (int64_t i = 0; i < count; ++i) {
        uint16_t u = static_cast<uint16_t>(buffer.samples[from + i]);
        bytes[2 * i] = static_cast<uint8_t>(u);
        bytes[2 * i + 1] = static_cast<uint8_t>(u >> 8);
      }
      CheckOk(session->CaptureContiguous(handle, bytes, count), "capture");
    };
    const int64_t block = 2000;
    for (int64_t f = 0; f + block <= music.FrameCount(); f += block) {
      push(h1, music, f, block);
      if (f + block <= narration.FrameCount()) push(h2, narration, f, block);
    }
    auto interp = ValueOrDie(session->Finish(), "audio interp");
    ObjectId interp_id = ValueOrDie(
        db->AddInterpretation("audio_blob", interp), "audio interp id");
    out.audio1 =
        ValueOrDie(db->AddMediaObject("audio1", interp_id, "audio1"), "a1");
    out.audio2 =
        ValueOrDie(db->AddMediaObject("audio2", interp_id, "audio2"), "a2");
  }

  // Video BLOB: two shots from one digitization.
  {
    auto session = CaptureSession::Begin(db->blob_store());
    CheckOk(session.status(), "video session");
    MediaDescriptor desc;
    desc.type_name = "video/raw";
    desc.kind = MediaKind::kVideo;
    desc.attrs.SetRational("frame rate", Rational(25));
    desc.attrs.SetInt("frame width", kW);
    desc.attrs.SetInt("frame height", kH);
    desc.attrs.SetInt("frame depth", 24);
    desc.attrs.SetString("color model", "RGB");
    size_t v1 = ValueOrDie(
        session->DeclareObject("video1", desc, TimeSystem(25)), "video1");
    size_t v2 = ValueOrDie(
        session->DeclareObject("video2", desc, TimeSystem(25)), "video2");
    for (int i = 0; i < 75; ++i) {
      CheckOk(session->CaptureContiguous(
                  v1, videogen::Frame(kW, kH, i, 100).data, 1),
              "v1 frame");
    }
    for (int i = 0; i < 75; ++i) {
      CheckOk(session->CaptureContiguous(
                  v2, videogen::Frame(kW, kH, i, 200).data, 1),
              "v2 frame");
    }
    auto interp = ValueOrDie(session->Finish(), "video interp");
    ObjectId interp_id = ValueOrDie(
        db->AddInterpretation("video_blob", interp), "video interp id");
    out.video1 =
        ValueOrDie(db->AddMediaObject("video1", interp_id, "video1"), "v1");
    out.video2 =
        ValueOrDie(db->AddMediaObject("video2", interp_id, "video2"), "v2");
  }

  // Derivation objects: cut1, cut2, fade (videoF), concat -> video3.
  // The 10-second fade of the paper becomes 10 frames here — same
  // structure, smaller substrate.
  AttrMap cut1_params;
  cut1_params.SetInt("start frame", 0);
  cut1_params.SetInt("frame count", 40);
  out.cut1 = ValueOrDie(
      out.db->AddDerivedObject("cut1", "video edit", {out.video1},
                               cut1_params),
      "cut1");
  AttrMap cut2_params;
  cut2_params.SetInt("start frame", 30);
  cut2_params.SetInt("frame count", 40);
  out.cut2 = ValueOrDie(
      out.db->AddDerivedObject("cut2", "video edit", {out.video2},
                               cut2_params),
      "cut2");
  AttrMap fade_params;
  fade_params.SetString("kind", "fade");
  fade_params.SetInt("duration frames", 10);
  out.fade = ValueOrDie(
      out.db->AddDerivedObject("fade", "video transition",
                               {out.cut1, out.cut2}, fade_params),
      "fade");
  // The fade output (head + blend + tail) IS video3 in this pipeline;
  // register an explicit alias derivation for the Figure 4 concat node.
  AttrMap concat_params;
  concat_params.SetInt("start frame", 0);
  concat_params.SetInt("frame count", 70);
  out.video3 = ValueOrDie(
      out.db->AddDerivedObject("video3", "video edit", {out.fade},
                               concat_params),
      "video3");

  // Temporal composition: m = {c1: audio1@0, c2: audio2@1, c3: video3@0}.
  std::vector<StoredComponent> components;
  components.push_back({"c1", out.audio1, Rational(0), std::nullopt});
  components.push_back({"c2", out.audio2, Rational(1), std::nullopt});
  components.push_back({"c3", out.video3, Rational(0), std::nullopt});
  out.m = ValueOrDie(out.db->AddMultimediaObject("m", components), "m");
  return out;
}

void PrintFigure4(Figure4Instance& instance) {
  bench::Header(
      "Figure 4 reproduction: instance diagram and timeline for the\n"
      "multimedia object m (audio1 music, audio2 narration, video3 =\n"
      "cut1 + 10-frame fade + cut2)");

  MediaDatabase* db = instance.db.get();
  std::printf("Catalog (instance diagram of Figure 4a):\n");
  for (ObjectId id : db->List()) {
    const CatalogEntry* entry = ValueOrDie(db->Get(id), "get");
    std::printf("  [%llu] %-12s %s", static_cast<unsigned long long>(id),
                entry->name.c_str(),
                std::string(CatalogKindToString(entry->kind)).c_str());
    if (entry->kind == CatalogKind::kDerivedObject) {
      std::printf("  <- %s(", entry->op.c_str());
      for (size_t i = 0; i < entry->inputs.size(); ++i) {
        if (i) std::printf(", ");
        std::printf("%s",
                    ValueOrDie(db->Get(entry->inputs[i]), "in")->name.c_str());
      }
      std::printf(")");
    }
    if (entry->kind == CatalogKind::kMultimediaObject) {
      std::printf("  components:");
      for (const StoredComponent& c : entry->components) {
        std::printf(" %s->%s@%ss", c.name.c_str(),
                    ValueOrDie(db->Get(c.media), "c")->name.c_str(),
                    c.start_seconds.ToString().c_str());
      }
    }
    std::printf("\n");
  }

  auto view = ValueOrDie(db->Compose(instance.m), "compose");
  std::printf("\nTimeline (Figure 4b):\n%s",
              ValueOrDie(view->object.RenderTimelineAscii(56), "ascii")
                  .c_str());

  auto duration = ValueOrDie(view->object.Duration(), "duration");
  std::printf("\nTotal duration: %.2f s\n", duration.ToDouble());

  uint64_t record = ValueOrDie(
      db->DerivationRecordBytes(instance.video3), "record");
  auto video3 = ValueOrDie(db->Materialize(instance.video3), "video3");
  std::printf(
      "video3 derivation records: %llu B vs expanded %s "
      "(%.0fx smaller)\n",
      static_cast<unsigned long long>(record),
      HumanBytes(ExpandedBytes(video3)).c_str(),
      static_cast<double>(ExpandedBytes(video3)) / record);
}

Figure4Instance& Instance() {
  static Figure4Instance* instance =
      new Figure4Instance(BuildInstance());
  return *instance;
}

// --- Benchmarks -------------------------------------------------------------

void BM_ComposeView(benchmark::State& state) {
  Figure4Instance& instance = Instance();
  for (auto _ : state) {
    auto view = instance.db->Compose(instance.m);
    CheckOk(view.status(), "compose");
    benchmark::DoNotOptimize((*view)->object.components().size());
  }
}
BENCHMARK(BM_ComposeView)->Unit(benchmark::kMillisecond);

void BM_TimelineEvaluation(benchmark::State& state) {
  Figure4Instance& instance = Instance();
  auto view = ValueOrDie(instance.db->Compose(instance.m), "compose");
  // First Timeline() call expands the components; iterate on the warm
  // graph to measure pure timeline evaluation.
  CheckOk(view->object.Timeline().status(), "warm");
  for (auto _ : state) {
    auto timeline = view->object.Timeline();
    CheckOk(timeline.status(), "timeline");
    benchmark::DoNotOptimize(timeline->size());
  }
}
BENCHMARK(BM_TimelineEvaluation);

void BM_TimelineVsComponentCount(benchmark::State& state) {
  // Synthetic multimedia object with N audio components.
  DerivationGraph graph;
  MultimediaObject mm("wide", &graph);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    NodeId leaf = graph.AddLeaf(
        audiogen::Sine(8000, 1, 220.0 + i, 0.1, 0.5), 'a' + std::to_string(i));
    CheckOk(mm.AddComponent('c' + std::to_string(i), leaf, Rational(i, 4)),
            "component");
  }
  CheckOk(mm.Timeline().status(), "warm");
  for (auto _ : state) {
    auto timeline = mm.Timeline();
    CheckOk(timeline.status(), "timeline");
    benchmark::DoNotOptimize(timeline->size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TimelineVsComponentCount)->Range(4, 256);

void BM_MixAudio(benchmark::State& state) {
  Figure4Instance& instance = Instance();
  auto view = ValueOrDie(instance.db->Compose(instance.m), "compose");
  for (auto _ : state) {
    auto mix = view->object.MixAudio(8000, 1);
    CheckOk(mix.status(), "mix");
    benchmark::DoNotOptimize(mix->samples.data());
  }
}
BENCHMARK(BM_MixAudio)->Unit(benchmark::kMillisecond);

void BM_RenderCompositeFrame(benchmark::State& state) {
  Figure4Instance& instance = Instance();
  auto view = ValueOrDie(instance.db->Compose(instance.m), "compose");
  double t = 0.0;
  for (auto _ : state) {
    auto frame = view->object.RenderFrameAt(t, kW, kH);
    CheckOk(frame.status(), "render");
    benchmark::DoNotOptimize(frame->data.data());
    t += 0.04;
    if (t > 2.5) t = 0.0;
  }
}
BENCHMARK(BM_RenderCompositeFrame)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  tbm::PrintFigure4(tbm::Instance());
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
