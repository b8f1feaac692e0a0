// `ingest`: writer threads register media in a fresh file-backed
// database opened with the default WalOptions (fsync before ack).
//
// One operation captures one clip into blob_store() through a
// CaptureSession, from element payloads encoded before anything is
// timed, then commits AddInterpretation, AddMediaObject and
// AddDerivedObject; about one operation in ten also runs
// UpdateDerivedParams. The file blob store admits one writer at a time
// and no reader alongside it, so pushes hold a lock exclusively and
// AddInterpretation (which checks the blob) holds it shared. Catalog
// mutators are serialized too: each validates its inputs with an
// unlocked catalog lookup (MediaDatabase::Get) that races with another
// mutator's insert, and concurrent commits intermittently fail with
// NotFound for an object that was just acknowledged. So one thread
// captures while another commits, but commits never overlap and group
// commit is not exercised. At the end
// the database is checkpointed, given a fixed tail of operations to
// replay, closed, reopened, and every acknowledged object is read back
// byte for byte.
#include <atomic>
#include <shared_mutex>
#include <thread>

#include "db/database.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tbm;

enum ClipClass { kPcm = 0, kAdpcm = 1, kVideo = 2, kClasses = 3 };
constexpr double kClassWeight[kClasses] = {0.5, 0.25, 0.25};
constexpr int kClipsPerClass = 4;
constexpr double kUpdateShare = 0.1;
constexpr double kWarmupSeconds = 1.0;
/// Operations after the final checkpoint, so every reopen replays the
/// same amount of log whatever the run's throughput.
constexpr int kReplayTailOps = 64;
/// Operations of the seed catalog registered during set-up.
constexpr int kSeedOps = 64;

struct Clip {
  ClipClass cls;
  TimedStream stream;
  uint64_t bytes = 0;
};

struct Inputs {
  std::vector<Clip> clips;  ///< Class-major.
  std::vector<Popularity> popularity;

  size_t Pick(Rng& rng) const {
    const size_t cls = rng.Weighted(kClassWeight);
    return cls * kClipsPerClass + popularity[cls].Sample(rng);
  }
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  for (int cls = 0; cls < kClasses; ++cls) {
    for (int i = 0; i < kClipsPerClass; ++i) {
      Clip clip{static_cast<ClipClass>(cls), {}, 0};
      if (cls == kPcm) {
        clip.stream = Encode(RawPcm(rng.Next(), 0.1, 22050, 2, 256));
      } else if (cls == kAdpcm) {
        clip.stream = Encode(RawAdpcm(rng.Next(), 0.25, 22050, 2, 256));
      } else {
        clip.stream = Encode(RawTjpegClip(
            static_cast<uint32_t>(rng.Below(1000)), 96, 72, 6, 50));
      }
      clip.bytes = clip.stream.TotalBytes();
      in.clips.push_back(std::move(clip));
    }
    in.popularity.emplace_back(kClipsPerClass, 1.0, rng.Next());
  }
  return in;
}

/// One acknowledged operation, for the read-back check.
struct Acked {
  std::string name;
  size_t clip = 0;
  double gain = 0;  ///< Last acknowledged derived parameter.
};

struct WriterStats {
  /// Every measured commit; AddDerivedObject carries the op's media bytes.
  WindowedSamples commits{kSamplesPerThread / 4};
  Samples checkpoint_commit_us;
  Samples by_call[4];  ///< interpretation, media, derived, update.
  std::vector<Acked> acked;
  Tally tally;
};

const char* const kCallSpans[4] = {
    "db.add_interpretation", "db.add_media_object", "db.add_derived_object",
    "db.update_params"};

class Ingestor {
 public:
  Ingestor(MediaDatabase* db, const Inputs& in) : db_(db), in_(in) {}

  /// One operation. `measuring` keeps its timings; `watch` notes
  /// commits during which a checkpoint happened.
  void Op(Rng& rng, const std::string& name, bool measuring, bool watch,
          SpanRecorder::Buffer* spans, uint64_t op, WriterStats* out) {
    const size_t c = in_.Pick(rng);
    const Clip& clip = in_.clips[c];
    out->tally.attempted++;
    Result<Interpretation> interp = Status::Internal("unset");
    {
      std::unique_lock<std::shared_mutex> lock(blob_mu_);
      int64_t t0 = NowNs();
      interp = CaptureStream(db_->blob_store(), clip.stream, "s");
      int64_t t1 = NowNs();
      if (spans != nullptr) spans->Add("blob.push", op, t0, t1);
    }
    if (!interp.ok()) {
      out->tally.Fail("capture " + name + ": " + interp.status().ToString());
      return;
    }
    // The call is timed once this thread holds the catalog lock.
    auto commit = [&](int call, auto&& fn, uint64_t bytes = 0) {
      std::lock_guard<std::mutex> catalog(catalog_mu_);
      uint64_t before = watch ? db_->wal_status().checkpoint_count : 0;
      int64_t t0 = NowNs();
      auto r = fn();
      int64_t t1 = NowNs();
      if (spans != nullptr) spans->Add(kCallSpans[call], op, t0, t1);
      if (measuring) {
        const double us = (t1 - t0) / 1e3;
        out->commits.Add(t1, us, bytes);
        out->by_call[call].Add(us);
        if (watch && db_->wal_status().checkpoint_count != before) {
          out->checkpoint_commit_us.Add(us);
        }
      }
      return r;
    };
    auto iid = commit(0, [&] {
      std::shared_lock<std::shared_mutex> lock(blob_mu_);
      return db_->AddInterpretation(name + ".i", *interp);
    });
    if (!iid.ok()) {
      out->tally.Fail("interpretation " + name + ": " +
                      iid.status().ToString());
      return;
    }
    auto mid = commit(1, [&] { return db_->AddMediaObject(name, *iid, "s"); });
    if (!mid.ok()) {
      out->tally.Fail("media " + name + ": " + mid.status().ToString());
      return;
    }
    const bool video = clip.cls == kVideo;
    double gain = 0.5 + 0.5 * rng.Uniform();
    auto params = [video](double g) {
      AttrMap p;
      if (video) {
        p.SetInt("start frame", static_cast<int64_t>(g * 4));
        p.SetInt("frame count", 6);
      } else {
        p.SetDouble("gain", g);
      }
      return p;
    };
    const char* op_name = video ? "video edit" : "audio gain";
    auto did = commit(2, [&] {
      return db_->AddDerivedObject(name + ".d", op_name, {*mid}, params(gain));
    }, clip.bytes);
    if (!did.ok()) {
      out->tally.Fail("derived " + name + ": " + did.status().ToString());
      return;
    }
    if (rng.Uniform() < kUpdateShare) {
      double next = 0.5 + 0.5 * rng.Uniform();
      Status s = commit(3, [&] {
        return db_->UpdateDerivedParams(*did, params(next));
      });
      if (!s.ok()) {
        out->tally.Fail("update " + name + ": " + s.ToString());
        return;
      }
      gain = next;
    }
    out->acked.push_back(Acked{name, c, gain});
  }

 private:
  MediaDatabase* db_;
  const Inputs& in_;
  std::shared_mutex blob_mu_;  ///< Push: exclusive. Blob checks: shared.
  std::mutex catalog_mu_;      ///< One catalog mutator at a time.
};

/// One closed-loop run; the WAL deltas cover its warm-up too.
struct LoopResult {
  WriterStats stats;
  Interval measured;
  uint64_t lsn_delta = 0;
  uint64_t fsync_delta = 0;
  uint64_t checkpoint_delta = 0;
};

uint64_t FsyncCount() {
  return obs::Registry::Global().counter("wal.fsyncs")->Value();
}

LoopResult RunWriters(uint64_t seed, const std::string& tag, MediaDatabase* db,
                      Ingestor* ingestor, double warmup, double seconds,
                      SpanRecorder* recorder, std::vector<Acked>* acked) {
  const int threads = ClientThreads(4);
  std::vector<WriterStats> per_thread(threads);
  std::vector<SpanRecorder::Buffer*> buffers(threads, nullptr);
  if (recorder != nullptr) {
    for (auto& b : buffers) b = recorder->NewBuffer();
  }
  const bool watch = recorder != nullptr;
  LoopResult result;
  const wal::WalStatus w0 = db->wal_status();
  const uint64_t f0 = FsyncCount();
  result.measured = RunPhased(
      threads, warmup, seconds, [&](int t, PhaseGate& gate) {
        Rng rng(seed * 1000 + t + 1);
        uint64_t op = (seed * 1000 + t + 1) << 24;
        for (uint64_t k = 0;; ++k) {
          const int p = gate.Poll();
          if (p == kStop) break;
          ingestor->Op(rng, tag + std::to_string(t) + "." + std::to_string(k),
                       p == kMeasure, watch, buffers[t], ++op, &per_thread[t]);
        }
      });
  const wal::WalStatus w1 = db->wal_status();
  result.lsn_delta = w1.last_lsn - w0.last_lsn;
  result.fsync_delta = FsyncCount() - f0;
  result.checkpoint_delta = w1.checkpoint_count - w0.checkpoint_count;
  WriterStats& all = result.stats;
  for (WriterStats& s : per_thread) {
    all.commits.Append(std::move(s.commits));
    all.checkpoint_commit_us.Append(s.checkpoint_commit_us);
    for (int c = 0; c < 4; ++c) all.by_call[c].Append(s.by_call[c]);
    all.tally.Merge(s.tally);
    acked->insert(acked->end(), s.acked.begin(), s.acked.end());
  }
  return result;
}

/// Reads every acknowledged object back from a reopened database and
/// compares it with what was written.
void VerifyAcked(MediaDatabase* db, const Inputs& in,
                 const std::vector<Acked>& acked, Tally* tally) {
  for (const Acked& a : acked) {
    tally->attempted++;
    const TimedStream& want = in.clips[a.clip].stream;
    auto mid = db->FindByName(a.name);
    auto did = db->FindByName(a.name + ".d");
    if (!mid.ok() || !did.ok()) {
      tally->Fail("lost " + a.name);
      continue;
    }
    auto got = db->MaterializeStream(*mid);
    bool same = got.ok() && got->size() == want.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      const StreamElement& g = got->at(i);
      const StreamElement& w = want.at(i);
      same = g.data == w.data && g.start == w.start &&
             g.duration == w.duration;
    }
    auto entry = db->Get(*did);
    if (same && entry.ok()) {
      const AttrMap& params = (*entry)->params;
      if (in.clips[a.clip].cls == kVideo) {
        auto start = params.GetInt("start frame");
        same = start.ok() && *start == static_cast<int64_t>(a.gain * 4);
      } else {
        auto gain = params.GetDouble("gain");
        same = gain.ok() && *gain == a.gain;
      }
    }
    if (!same || !entry.ok()) tally->Fail("read-back mismatch " + a.name);
  }
}

}  // namespace

WorkloadResult RunIngest(const RunSpec& spec) {
  WorkloadResult result;
  const Options& opt = *spec.options;
  Inputs inputs = MakeInputs(opt.seed);

  // Set-up: open a fresh database and register a seed catalog from one
  // thread.
  std::vector<double> setup_s;
  std::unique_ptr<MediaDatabase> db;
  std::unique_ptr<Ingestor> ingestor;
  std::vector<Acked> acked;
  std::string db_dir;
  for (int i = 0; i < spec.setups; ++i) {
    ingestor.reset();
    db.reset();
    if (!db_dir.empty()) RemoveTree(db_dir);
    db_dir = spec.dir + "/db" + std::to_string(i);
    auto t0 = Clock::now();
    auto opened = MediaDatabase::Open(db_dir);
    if (!opened.ok()) {
      result.tally.attempted++;
      result.tally.Fail("set-up: " + opened.status().ToString());
      return result;
    }
    db = std::move(*opened);
    ingestor = std::make_unique<Ingestor>(db.get(), inputs);
    WriterStats seeded;
    Rng rng(opt.seed ^ 0x5EED);
    for (int k = 0; k < kSeedOps; ++k) {
      ingestor->Op(rng, "seed." + std::to_string(k), false, false, nullptr, 0,
                   &seeded);
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    result.tally.Merge(seeded.tally);
    acked = std::move(seeded.acked);
  }
  result.e2e.Set("setup_s", Mean(setup_s), "s");
  result.named.Set("setup_peak_rss_mb", ResetPeakRss(), "MB");
  const bool traced = spec.recorder != nullptr;
  LoopResult main = RunWriters(opt.seed, "a", db.get(), ingestor.get(),
                               kWarmupSeconds,
                               traced ? spec.seconds / 2 : spec.seconds,
                               nullptr, &acked);
  result.tally.Merge(main.stats.tally);
  const WriterStats& m = main.stats;
  WindowedSamples::Summary commits =
      SetOpMetrics(m.commits, main.measured, !spec.side, &result);
  result.named.Set("commit_p50_us", commits.p50, "us");
  result.named.Set("commit_p99_us", commits.p99, "us");
  result.named.Set("ingest_mb_s", commits.mb_s, "MB/s");
  result.named.Set("client_threads", ClientThreads(4), "count");
  result.named.Set("checkpoints", static_cast<double>(main.checkpoint_delta),
                   "count");

  if (traced) {
    SpanRecorder* rec = spec.recorder;
    LoopResult t = RunWriters(opt.seed + 1, "b", db.get(), ingestor.get(), 0.3,
                              spec.seconds / 2, rec, &acked);
    result.tally.Merge(t.stats.tally);
    MetricSet& L = result.layers;
    const double p50 = m.commits.All().P50();
    const Samples traced_commits = t.stats.commits.All();
    L.Set("bench.ingest_trace_overhead_pct",
          p50 > 0 ? 100.0 * (traced_commits.P50() - p50) / p50 : 0.0, "%");
    L.Set("bench.ingest_samples", static_cast<double>(traced_commits.size()),
          "count");
    L.Set("blob.push_p50_us", rec->Durations("blob.push").P50(), "us");
    L.Set("db.add_interpretation_p50_us", t.stats.by_call[0].P50(), "us");
    L.Set("db.add_media_object_p50_us", t.stats.by_call[1].P50(), "us");
    L.Set("db.add_derived_object_p50_us", t.stats.by_call[2].P50(), "us");
    L.Set("db.update_params_p50_us", t.stats.by_call[3].P50(), "us");
    L.Set("wal.records_per_fsync",
          t.fsync_delta > 0 ? static_cast<double>(t.lsn_delta) / t.fsync_delta
                            : 0.0,
          "ratio");
    L.Set("wal.fsyncs", static_cast<double>(t.fsync_delta), "count");
    L.Set("wal.checkpoints", static_cast<double>(t.checkpoint_delta), "count");
    L.Set("wal.checkpoint_commit_p99_us", t.stats.checkpoint_commit_us.P99(),
          "us");
    L.Set("wal.checkpoint_commits",
          static_cast<double>(t.stats.checkpoint_commit_us.size()), "count");
  }

  // A fixed replay tail: checkpoint, then kReplayTailOps more
  // operations, so every reopen replays the same log.
  Status checkpoint = db->Checkpoint();
  if (!checkpoint.ok()) {
    result.tally.attempted++;
    result.tally.Fail("checkpoint: " + checkpoint.ToString());
  }
  {
    WriterStats tail;
    Rng rng(opt.seed ^ 0x7A11);
    for (int k = 0; k < kReplayTailOps; ++k) {
      ingestor->Op(rng, "tail." + std::to_string(k), false, false, nullptr, 0,
                  &tail);
    }
    result.tally.Merge(tail.tally);
    acked.insert(acked.end(), tail.acked.begin(), tail.acked.end());
  }
  uint64_t user_bytes = 0;
  for (const Acked& a : acked) user_bytes += inputs.clips[a.clip].bytes;
  const size_t expected_rows = db->size();
  ingestor.reset();
  db.reset();

  std::vector<double> reopen_ms;
  wal::RecoveryStats recovery;
  for (int i = 0; i < 3; ++i) {
    auto t0 = Clock::now();
    auto reopened = MediaDatabase::Open(db_dir);
    reopen_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    result.tally.attempted++;
    if (!reopened.ok() || (*reopened)->size() != expected_rows) {
      result.tally.Fail("reopen");
      continue;
    }
    if (i == 0) recovery = (*reopened)->recovery_stats();
    if (i == 2) VerifyAcked(reopened->get(), inputs, acked, &result.tally);
  }
  result.named.Set("reopen_ms", Median(reopen_ms), "ms");
  result.named.Set("acked_ops", static_cast<double>(acked.size()), "count");
  if (traced) {
    MetricSet& L = result.layers;
    L.Set("wal.replayed_records", static_cast<double>(recovery.replayed),
          "count");
    L.Set("wal.recovery_us", static_cast<double>(recovery.recovery_us), "us");
    L.Set("db.disk_bytes_per_user_byte",
          user_bytes > 0
              ? static_cast<double>(DirectoryBytes(db_dir)) / user_bytes
              : 0.0,
          "ratio");
  }
  RemoveTree(db_dir);
  return result;
}

}  // namespace perfbench
