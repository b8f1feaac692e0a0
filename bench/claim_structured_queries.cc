// Validates the §1.2 claim that structural interpretation enables
// queries a raw BLOB cannot answer: "it is possible to issue queries
// which select a specific sound track, or select a specific duration,
// or perhaps retrieve frames at a specific visual fidelity." Builds a
// catalog of movies with multi-language audio tracks and runs all
// three query shapes, with catalog-scaling sweeps.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "db/database.h"
#include "interp/av_capture.h"
#include "interp/index.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

const char* kLanguages[] = {"English", "German", "French", "Japanese"};

struct MovieCatalog {
  std::unique_ptr<MediaDatabase> db;
  std::vector<ObjectId> movies;
};

// One "movie": a video object plus one audio track per language, all in
// one interleaved BLOB (languages interleaved like the paper's §4.3
// music/narration example).
void IngestMovie(MediaDatabase* db, int index) {
  std::string name = "movie" + std::to_string(index);
  auto session = CaptureSession::Begin(db->blob_store());
  CheckOk(session.status(), "session");

  MediaDescriptor video_desc;
  video_desc.type_name = "video/raw";
  video_desc.kind = MediaKind::kVideo;
  video_desc.attrs.SetRational("frame rate", Rational(25));
  video_desc.attrs.SetInt("frame width", 64);
  video_desc.attrs.SetInt("frame height", 48);
  video_desc.attrs.SetInt("frame depth", 24);
  video_desc.attrs.SetString("color model", "RGB");
  size_t video_handle = ValueOrDie(
      session->DeclareObject("video", video_desc, TimeSystem(25)), "video");

  MediaDescriptor audio_desc;
  audio_desc.type_name = "audio/pcm-block";
  audio_desc.kind = MediaKind::kAudio;
  audio_desc.attrs.SetInt("sample rate", 8000);
  audio_desc.attrs.SetInt("sample size", 16);
  audio_desc.attrs.SetInt("number of channels", 1);
  audio_desc.attrs.SetString("encoding", "PCM");
  std::vector<size_t> track_handles;
  for (const char* language : kLanguages) {
    track_handles.push_back(ValueOrDie(
        session->DeclareObject(std::string("audio_") + language, audio_desc,
                               TimeSystem(8000)),
        "track"));
  }

  // 1 second of content: 25 frames, with per-frame audio blocks of all
  // four language tracks interleaved after each frame.
  for (int f = 0; f < 25; ++f) {
    CheckOk(session->CaptureContiguous(
                video_handle,
                videogen::Frame(64, 48, f, 1000 + index).data, 1),
            "frame");
    for (size_t t = 0; t < track_handles.size(); ++t) {
      Bytes block(320 * 2, static_cast<uint8_t>(t));
      CheckOk(session->CaptureContiguous(track_handles[t], block, 320),
              "audio block");
    }
  }
  auto interp = ValueOrDie(session->Finish(), "finish");
  ObjectId interp_id =
      ValueOrDie(db->AddInterpretation(name + "_interp", interp), "interp");
  ObjectId video = ValueOrDie(
      db->AddMediaObject(name + "_video", interp_id, "video"), "video obj");
  AttrMap entity_attrs;
  entity_attrs.SetString("title", "Movie #" + std::to_string(index));
  entity_attrs.SetString("director",
                         index % 3 == 0 ? "Gibbs" : "Breiteneder");
  ObjectId entity = ValueOrDie(db->AddEntity(name, entity_attrs), "entity");
  CheckOk(db->SetMediaAttr(entity, "content", video), "media attr");
  for (const char* language : kLanguages) {
    AttrMap attrs;
    attrs.SetString("language", language);
    CheckOk(db->AddMediaObject(name + "_audio_" + language, interp_id,
                               std::string("audio_") + language, attrs)
                .status(),
            "track obj");
  }
}

MovieCatalog& Catalog() {
  static MovieCatalog* catalog = [] {
    auto* c = new MovieCatalog();
    c->db = MediaDatabase::CreateInMemory();
    for (int i = 0; i < 16; ++i) {
      IngestMovie(c->db.get(), i);
      c->movies.push_back(
          ValueOrDie(c->db->FindByName("movie" + std::to_string(i)), "find"));
    }
    return c;
  }();
  return *catalog;
}

void PrintQueries() {
  bench::Header(
      "Claim (paper §1.2): structural queries on interpreted media —\n"
      "select a sound track, select a duration, retrieve frames at a\n"
      "specific fidelity. (A raw BLOB supports none of these.)");
  MovieCatalog& catalog = Catalog();
  MediaDatabase* db = catalog.db.get();
  std::printf("Catalog: %zu objects for 16 movies x 4 language tracks.\n\n",
              db->size());

  // Query 1: select a specific sound track.
  auto german = db->SelectByAttr("language", AttrValue(std::string("German")));
  std::printf("Q1 'select the German sound track': %zu hits (expect 16)\n",
              german.size());
  auto stream = ValueOrDie(db->MaterializeStream(german.front()), "track");
  std::printf("   first hit materializes: %zu elements, %.2f s of audio\n",
              stream.size(), stream.DurationSeconds().ToDouble());

  // Query 2: select a specific duration.
  ObjectId video = ValueOrDie(db->FindByName("movie3_video"), "video");
  auto span = ValueOrDie(
      db->MaterializeStream(video, TickSpan{5, 10}), "span");
  std::printf("Q2 'select frames [5,15) of movie3': %zu elements\n",
              span.size());

  // Query 3: retrieve frames at a specific fidelity — store one movie
  // interframe-coded and read keys only.
  {
    VideoValue clip;
    clip.frame_rate = Rational(25);
    clip.frames = videogen::Clip(64, 48, 24, 9);
    StoreOptions options;
    options.video_codec = "tmpeg";
    options.key_interval = 8;
    auto interp = ValueOrDie(
        StoreValue(db->blob_store(), clip, "scalable_clip", options),
        "store");
    auto object = ValueOrDie(interp.FindObject("scalable_clip"), "object");
    CompactElementIndex index = CompactElementIndex::Build(*object);
    uint64_t key_bytes = 0;
    for (int64_t key : index.sync_elements()) {
      key_bytes += ValueOrDie(index.PlacementOf(key), "place").length;
    }
    std::printf(
        "Q3 'retrieve at reduced fidelity': %zu key frames, reading %.1f%% "
        "of the stream's bytes\n",
        index.sync_elements().size(),
        100.0 * key_bytes / object->PayloadBytes());
  }

  // Entity-level query over domain attributes.
  auto by_director =
      db->SelectByAttr("director", AttrValue(std::string("Gibbs")));
  std::printf("Q4 'movies directed by Gibbs': %zu hits\n",
              by_director.size());
}

// --- Benchmarks -------------------------------------------------------------

void BM_SelectByLanguage(benchmark::State& state) {
  MovieCatalog& catalog = Catalog();
  if (catalog.db->HasAttrIndex("language")) {
    CheckOk(catalog.db->DropAttrIndex("language"), "drop index");
  }
  for (auto _ : state) {
    auto hits = catalog.db->SelectByAttr(
        "language", AttrValue(std::string("French")));
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations() * catalog.db->size());
}
BENCHMARK(BM_SelectByLanguage);

void BM_SelectByLanguageIndexed(benchmark::State& state) {
  MovieCatalog& catalog = Catalog();
  CheckOk(catalog.db->CreateAttrIndex("language"), "create index");
  for (auto _ : state) {
    auto hits = catalog.db->SelectByAttr(
        "language", AttrValue(std::string("French")));
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations() * catalog.db->size());
  CheckOk(catalog.db->DropAttrIndex("language"), "drop index");
}
BENCHMARK(BM_SelectByLanguageIndexed);

void BM_MaterializeTrack(benchmark::State& state) {
  MovieCatalog& catalog = Catalog();
  auto track = ValueOrDie(
      catalog.db->FindByName("movie5_audio_French"), "track");
  for (auto _ : state) {
    auto stream = catalog.db->MaterializeStream(track);
    CheckOk(stream.status(), "materialize");
    benchmark::DoNotOptimize(stream->TotalBytes());
  }
}
BENCHMARK(BM_MaterializeTrack);

void BM_DurationQuery(benchmark::State& state) {
  MovieCatalog& catalog = Catalog();
  auto video = ValueOrDie(catalog.db->FindByName("movie7_video"), "video");
  for (auto _ : state) {
    auto span = catalog.db->MaterializeStream(
        video, TickSpan{5, static_cast<int64_t>(state.range(0))});
    CheckOk(span.status(), "span");
    benchmark::DoNotOptimize(span->size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DurationQuery)->Arg(5)->Arg(20);

void BM_CatalogScan(benchmark::State& state) {
  MovieCatalog& catalog = Catalog();
  for (auto _ : state) {
    auto hits = catalog.db->Filter([](const CatalogEntry& entry) {
      return entry.kind == CatalogKind::kMediaObject;
    });
    benchmark::DoNotOptimize(hits.size());
  }
  state.SetItemsProcessed(state.iterations() * catalog.db->size());
}
BENCHMARK(BM_CatalogScan);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  tbm::PrintQueries();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
