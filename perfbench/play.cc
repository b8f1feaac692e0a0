// `play`: clients stream stored media objects over TCP loopback from a
// file-backed MediaDatabase through serve::MediaServer.
//
// Each client thread owns one Connect()ed connection with several
// streams open, reads them round-robin with StreamHandle::Read, and
// opens a new clip when a stream ends. Clips are picked by class
// (PCM blocks, ADPCM blocks, TJPEG video) with fixed weights and, within
// a class, by a seeded Zipf popularity, so the seed moves which clip is
// hot but not the mix of element sizes. About a quarter of streams seek
// once mid-clip, which moves the server's Session from the chunked
// ElementStream path to direct placement reads.
#include <atomic>
#include <functional>
#include <thread>

#include "base/crc32.h"
#include "base/thread_pool.h"
#include "db/database.h"
#include "interp/streaming.h"
#include "serve/connection.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/tcp_transport.h"
#include "serve/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tbm;
using namespace tbm::serve;

enum ClipClass { kPcm = 0, kAdpcm = 1, kVideo = 2, kClasses = 3 };
constexpr double kClassWeight[kClasses] = {0.375, 0.375, 0.25};
constexpr int kClipsPerClass = 8;
constexpr int kStreamsPerClient = 4;
constexpr uint64_t kBatch = 8;
constexpr double kSeekShare = 0.25;
constexpr double kWarmupSeconds = 1.0;

struct Clip {
  std::string name;
  RawMedia raw;        ///< Dropped once the catalog is built.
  TimedStream stream;  ///< Encoded by the last set-up; dropped after.
  std::vector<uint32_t> crcs;
  ObjectId interp_id = kInvalidObjectId;
};

struct Inputs {
  std::vector<Clip> clips;  ///< Class-major: kClasses x kClipsPerClass.
  std::vector<Popularity> popularity;  ///< One per class.

  const Clip& Pick(Rng& rng) const {
    const size_t cls = rng.Weighted(kClassWeight);
    return clips[cls * kClipsPerClass + popularity[cls].Sample(rng)];
  }
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  for (int cls = 0; cls < kClasses; ++cls) {
    for (int i = 0; i < kClipsPerClass; ++i) {
      Clip clip;
      uint64_t s = rng.Next();
      switch (cls) {
        case kPcm:
          clip.name = "pcm" + std::to_string(i);
          clip.raw = RawPcm(s, 3.0, 22050, 2, 512);
          break;
        case kAdpcm:
          clip.name = "adpcm" + std::to_string(i);
          clip.raw = RawAdpcm(s, 3.0, 22050, 2, 1024);
          break;
        default:
          clip.name = "video" + std::to_string(i);
          clip.raw = RawTjpegClip(static_cast<uint32_t>(s % 1000), 256,
                                  192, 40, 50);
          break;
      }
      in.clips.push_back(std::move(clip));
    }
    in.popularity.emplace_back(kClipsPerClass, 1.0, rng.Next());
  }
  return in;
}

ServeConfig PlayServeConfig() {
  ServeConfig config;
  config.max_sessions = 1024;
  config.max_connections = 64;
  // A deployment setting far above what the closed loop can pull, so
  // no stream is paced, degraded or denied.
  config.capacity_bytes_per_second = 1e12;
  return config;
}

/// The program under test: database, server and TCP listener.
class PlayStack {
 public:
  static Result<std::unique_ptr<PlayStack>> Start(const std::string& dir,
                                                  Inputs* inputs) {
    auto stack = std::unique_ptr<PlayStack>(new PlayStack());
    TBM_ASSIGN_OR_RETURN(stack->db_, OpenForBulkLoad(dir));
    for (Clip& clip : inputs->clips) {
      clip.stream = Encode(clip.raw);
      TBM_ASSIGN_OR_RETURN(
          Interpretation interp,
          CaptureStream(stack->db_->blob_store(), clip.stream, "s"));
      TBM_ASSIGN_OR_RETURN(clip.interp_id, stack->db_->AddInterpretation(
                                               clip.name + ".interp", interp));
      TBM_RETURN_IF_ERROR(
          stack->db_->AddMediaObject(clip.name, clip.interp_id, "s").status());
    }
    stack->server_ =
        std::make_unique<MediaServer>(stack->db_.get(), PlayServeConfig());
    TBM_ASSIGN_OR_RETURN(stack->listener_, TcpListener::Listen(0));
    stack->accept_ = std::thread([s = stack.get()] {
      for (;;) {
        auto transport = s->listener_->Accept();
        if (!transport.ok()) return;
        (void)s->server_->Serve(std::move(*transport));
      }
    });
    return stack;
  }

  ~PlayStack() { StopServing(); }
  PlayStack(const PlayStack&) = delete;
  PlayStack& operator=(const PlayStack&) = delete;

  /// Closes the listener and stops the server; the database stays open.
  void StopServing() {
    if (listener_) listener_->Close();
    if (accept_.joinable()) accept_.join();
    if (server_) server_->Stop();
    server_.reset();
  }

  MediaDatabase* db() { return db_.get(); }
  MediaServer* server() { return server_.get(); }
  uint16_t port() const { return listener_->port(); }

 private:
  PlayStack() = default;

  std::unique_ptr<MediaDatabase> db_;
  std::unique_ptr<MediaServer> server_;
  std::unique_ptr<TcpListener> listener_;
  std::thread accept_;  ///< Declared last: uses the members above.
};

using TransportFactory =
    std::function<Result<std::unique_ptr<Transport>>()>;

struct ClientStats {
  /// Every measured READ and its payload bytes.
  WindowedSamples reads{kSamplesPerThread};
  Samples open_us;
  Tally tally;

  void Merge(ClientStats&& o) {
    reads.Append(std::move(o.reads));
    open_us.Append(o.open_us);
    tally.Merge(o.tally);
  }
};

struct StreamState {
  std::unique_ptr<StreamHandle> handle;
  const Clip* clip = nullptr;
  uint64_t next = 0;  ///< Next element number expected.
  int64_t seek_at = -1;
  uint64_t seek_to = 0;
  bool sought = false;
};

/// One client thread: one connection, kStreamsPerClient streams read
/// round-robin, one READ in flight at a time.
void ClientLoop(uint64_t seed, const Inputs& in, const TransportFactory& make,
                PhaseGate& gate, SpanRecorder::Buffer* spans,
                ClientStats* out) {
  Rng rng(seed);
  auto transport = make();
  if (!transport.ok()) {
    out->tally.attempted++;
    out->tally.Fail("connect: " + transport.status().ToString());
    return;
  }
  std::unique_ptr<Connection> conn = Connect(std::move(*transport));
  std::vector<StreamState> streams(kStreamsPerClient);
  uint64_t op = seed << 20;

  auto open = [&](StreamState& s, bool measuring) {
    const Clip& clip = in.Pick(rng);
    out->tally.attempted++;
    int64_t t0 = NowNs();
    auto handle = conn->OpenStream(clip.name);
    int64_t t1 = NowNs();
    if (spans != nullptr) spans->Add("serve.open", ++op, t0, t1);
    if (!handle.ok()) {
      out->tally.Fail("open " + clip.name + ": " + handle.status().ToString());
      return;
    }
    if ((*handle)->info().stride != 1 ||
        (*handle)->info().element_count != clip.crcs.size()) {
      out->tally.Fail("open " + clip.name + ": degraded or wrong size");
      return;
    }
    if (measuring) out->open_us.Add((t1 - t0) / 1e3);
    s = StreamState{};
    s.handle = std::move(*handle);
    s.clip = &clip;
    const uint64_t n = clip.crcs.size();
    if (rng.Uniform() < kSeekShare) {
      s.seek_at = static_cast<int64_t>(n / 3);
      s.seek_to = n / 2;
    }
  };

  for (size_t i = 0;; i = (i + 1) % streams.size()) {
    const int p = gate.Poll();
    if (p == kStop) break;
    const bool measuring = p == kMeasure;
    StreamState& s = streams[i];
    if (s.handle == nullptr) {
      open(s, measuring);
      continue;
    }
    if (s.seek_at >= 0 && !s.sought &&
        s.next >= static_cast<uint64_t>(s.seek_at)) {
      out->tally.attempted++;
      int64_t t0 = NowNs();
      auto pos = s.handle->Seek(s.seek_to);
      if (spans != nullptr) spans->Add("serve.seek", ++op, t0, NowNs());
      s.sought = true;
      if (!pos.ok() || *pos != s.seek_to) {
        out->tally.Fail("seek " + s.clip->name);
        s.handle.reset();
        continue;
      }
      s.next = s.seek_to;
      continue;
    }
    out->tally.attempted++;
    const char* name = s.sought ? "serve.read_seek" : "serve.read_seq";
    int64_t t0 = NowNs();
    auto batch = s.handle->Read(kBatch);
    int64_t t1 = NowNs();
    if (spans != nullptr) spans->Add(name, ++op, t0, t1);
    if (!batch.ok()) {
      out->tally.Fail("read " + s.clip->name + ": " +
                      batch.status().ToString());
      s.handle.reset();
      continue;
    }
    bool good = batch->stride == 1;
    uint64_t bytes = 0;
    for (const WireElement& e : batch->elements) {
      good = good && e.element_number == s.next &&
             s.next < s.clip->crcs.size() &&
             Crc32(e.payload) == s.clip->crcs[s.next];
      bytes += e.payload.size();
      ++s.next;
    }
    if (batch->end_of_stream && s.next != s.clip->crcs.size()) good = false;
    if (batch->elements.empty() && !batch->end_of_stream) good = false;
    if (!good) {
      out->tally.Fail("read " + s.clip->name + ": element check failed");
      s.handle.reset();
      continue;
    }
    if (measuring) out->reads.Add(t1, (t1 - t0) / 1e3, bytes);
    if (batch->end_of_stream) s.handle.reset();
  }
  streams.clear();  // Close every stream before the connection goes.
}

struct PhaseResult {
  ClientStats stats;
  Interval measured;
};

/// Runs the client threads: `warmup` seconds unmeasured, then
/// `seconds` measured, paused for each of `interludes` interludes.
PhaseResult RunClients(uint64_t seed, const Inputs& in,
                       const TransportFactory& make, double warmup,
                       double seconds, SpanRecorder* recorder,
                       int interludes = 0,
                       const std::function<void()>& interlude = {}) {
  const int threads = ClientThreads(4);
  std::vector<ClientStats> per_thread(threads);
  std::vector<SpanRecorder::Buffer*> buffers(threads, nullptr);
  if (recorder != nullptr) {
    for (auto& b : buffers) b = recorder->NewBuffer();
  }
  PhaseResult result;
  result.measured = RunPhased(
      threads, warmup, seconds,
      [&](int t, PhaseGate& gate) {
        ClientLoop(seed * 1000 + t + 1, in, make, gate, buffers[t],
                   &per_thread[t]);
      },
      interludes, interlude);
  for (ClientStats& s : per_thread) result.stats.Merge(std::move(s));
  return result;
}

/// Server counters that must not move in a healthy run.
uint64_t ServerFailures(const ServerStatsSnapshot& a,
                        const ServerStatsSnapshot& b) {
  return (b.sessions_degraded - a.sessions_degraded) +
         (b.sessions_denied - a.sessions_denied) +
         (b.sessions_evicted - a.sessions_evicted);
}

/// Single-thread layer probes on the live database: catalog lookup,
/// BlobStore::Read of a batch span, ElementStream::Next, a direct
/// Session::ReadNext and response framing. Each timed read checksums
/// the bytes it reads; every element is checked against its CRC.
struct ProbeResult {
  double batch_elements = 0;  ///< Mean elements per Session batch.
  ElementStreamStats element_stats;  ///< Summed over probe streams.
};

ProbeResult RunProbes(uint64_t seed, const Inputs& in, MediaDatabase* db,
                      SpanRecorder::Buffer* spans, Tally* tally) {
  ProbeResult result;
  Rng rng(seed ^ 0x5EED);
  ThreadPool io_pool(2);
  StreamReadOptions read_options = PlayServeConfig().read_options;
  read_options.pool = &io_pool;
  const BlobStore* store = db->blob_store();
  uint64_t op = 1ull << 60;

  auto interp_of = [&](const Clip& clip) -> const Interpretation* {
    auto entry = db->Get(clip.interp_id);
    return entry.ok() ? &(*entry)->interpretation : nullptr;
  };
  auto until = [](double seconds) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  };

  // Catalog lookup: what OPEN does before it touches any media.
  // Sub-microsecond calls: a fixed count keeps the span file small.
  for (int i = 0; i < 20000; ++i) {
    const Clip& clip = in.Pick(rng);
    ScopedSpan span(spans, "serve.open_lookup", ++op);
    auto id = db->FindByName(clip.name);
    if (!id.ok() || !db->Get(*id).ok()) tally->Fail("lookup " + clip.name);
  }

  // Direct session reads and response framing.
  Samples batch_sizes;
  for (auto end = until(0.6); Clock::now() < end;) {
    const Clip& clip = in.Pick(rng);
    const Interpretation* interp = interp_of(clip);
    if (interp == nullptr) {
      tally->Fail("probe interpretation " + clip.name);
      break;
    }
    Session::Config config;
    config.read_options = read_options;
    auto session = Session::Create(++op, clip.name, store, *interp, "s",
                                   config);
    if (!session.ok()) {
      tally->Fail("probe session " + clip.name);
      break;
    }
    for (uint64_t next = 0;;) {
      Result<ReadBatch> batch = Status::Internal("unread");
      {
        ScopedSpan span(spans, "serve.session_read", ++op);
        batch = (*session)->ReadNext(kBatch);
      }
      if (!batch.ok()) {
        tally->Fail("probe read " + clip.name);
        break;
      }
      for (const WireElement& e : batch->elements) {
        if (e.element_number != next || Crc32(e.payload) != clip.crcs[next]) {
          tally->Fail("probe element " + clip.name);
        }
        ++next;
      }
      batch_sizes.Add(static_cast<double>(batch->elements.size()));
      Response response;
      response.type = RequestType::kRead;
      response.read = std::move(*batch);
      {
        ScopedSpan span(spans, "serve.frame_encode", ++op);
        Bytes wire =
            EncodeFrame(FrameHeader{2, 0, 1}, EncodeResponse(response));
        if (wire.size() < kFrameV2HeaderBytes) tally->Fail("probe frame");
      }
      if (response.read.end_of_stream) break;
    }
  }
  result.batch_elements = batch_sizes.Mean();

  // Chunked element stream with readahead.
  for (auto end = until(0.4); Clock::now() < end;) {
    const Clip& clip = in.Pick(rng);
    const Interpretation* interp = interp_of(clip);
    if (interp == nullptr) break;
    auto stream = ElementStream::Open(*store, *interp, "s", read_options);
    if (!stream.ok()) {
      tally->Fail("probe stream " + clip.name);
      break;
    }
    for (size_t i = 0; !(*stream)->Done(); ++i) {
      uint32_t crc = 0;
      bool ok = false;
      {
        ScopedSpan span(spans, "interp.element_next", ++op);
        auto element = (*stream)->Next();
        if (element.ok()) {
          crc = Crc32(element->data.span());
          ok = true;
        }
      }
      if (!ok || crc != clip.crcs[i]) tally->Fail("probe next " + clip.name);
    }
    ElementStreamStats s = (*stream)->stats();
    result.element_stats.elements_delivered += s.elements_delivered;
    result.element_stats.prefetch.hits += s.prefetch.hits;
    result.element_stats.prefetch.stalls += s.prefetch.stalls;
  }

  // BlobStore::Read of one batch span.
  for (auto end = until(0.3); Clock::now() < end;) {
    const Clip& clip = in.Pick(rng);
    const Interpretation* interp = interp_of(clip);
    if (interp == nullptr) break;
    auto object = interp->FindObject("s");
    if (!object.ok()) break;
    const auto& elements = (*object)->elements;
    const size_t n = elements.size();
    const size_t first = (rng.Below((n + kBatch - 1) / kBatch)) * kBatch;
    const size_t last = std::min(n, first + kBatch) - 1;
    ByteRange range{elements[first].placement.offset,
                    elements[last].placement.offset +
                        elements[last].placement.length -
                        elements[first].placement.offset};
    Result<BufferSlice> bytes = Status::Internal("unread");
    uint32_t crc = 0;
    {
      ScopedSpan span(spans, "blob.read", ++op);
      bytes = store->Read(interp->blob(), range);
      if (bytes.ok()) crc = Crc32(bytes->span());
    }
    bool good = bytes.ok() && crc != 0;
    for (size_t i = first; good && i <= last; ++i) {
      const ByteRange& p = elements[i].placement;
      good = Crc32(bytes->span().subspan(p.offset - range.offset, p.length)) ==
             clip.crcs[i];
    }
    if (!good) tally->Fail("probe blob read " + clip.name);
  }
  return result;
}

}  // namespace

WorkloadResult RunPlay(const RunSpec& spec) {
  WorkloadResult result;
  const Options& opt = *spec.options;
  Inputs inputs = MakeInputs(opt.seed);

  // Set-up: encode the clips, build the database and start the server.
  // The first serves the loop; the others run in pauses spread across
  // the loop and are thrown away.
  std::vector<double> setup_s;
  auto set_up = [&](Inputs* in, int i) -> std::unique_ptr<PlayStack> {
    const std::string dir = spec.dir + "/db" + std::to_string(i);
    auto t0 = Clock::now();
    auto started = PlayStack::Start(dir, in);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!started.ok()) {
      result.tally.attempted++;
      result.tally.Fail("set-up: " + started.status().ToString());
      return nullptr;
    }
    return std::move(*started);
  };
  const std::string db_dir = spec.dir + "/db0";
  std::unique_ptr<PlayStack> stack = set_up(&inputs, 0);
  if (stack == nullptr) return result;
  auto interlude = [&] {
    Inputs again = MakeInputs(opt.seed);
    const int i = static_cast<int>(setup_s.size());
    set_up(&again, i).reset();
    RemoveTree(spec.dir + "/db" + std::to_string(i));
  };
  // The element checks' reference is what the codecs produced; from
  // here on only the catalog holds media.
  for (Clip& clip : inputs.clips) {
    clip.crcs = ElementCrcs(clip.stream);
    clip.stream = TimedStream();
    clip.raw = RawMedia();
  }
  result.named.Set("setup_peak_rss_mb", ResetPeakRss(), "MB");

  const uint16_t port = stack->port();
  TransportFactory tcp = [port] { return TcpConnect("127.0.0.1", port); };
  MediaServer* server = stack->server();

  const bool traced = spec.recorder != nullptr;
  const double untraced_s = traced ? spec.seconds / 2 : spec.seconds;
  ServerStatsSnapshot s0 = server->stats();
  PhaseResult main = RunClients(opt.seed, inputs, tcp, kWarmupSeconds,
                                untraced_s, nullptr, spec.setups - 1,
                                interlude);
  result.e2e.Set("setup_s", Mean(setup_s), "s");
  result.tally.Merge(main.stats.tally);
  ServerStatsSnapshot s1 = server->stats();

  const ClientStats& m = main.stats;
  WindowedSamples::Summary reads =
      SetOpMetrics(m.reads, main.measured, !spec.side, &result);
  result.named.Set("read_p50_us", reads.p50, "us");
  result.named.Set("read_p99_us", reads.p99, "us");
  result.named.Set("open_p50_us", m.open_us.P50(), "us");
  result.named.Set("client_threads", ClientThreads(4), "count");
  result.named.Set("play_mb_s", reads.mb_s, "MB/s");
  result.named.Set("open_samples", static_cast<double>(m.open_us.size()),
                   "count");

  uint64_t server_failures = ServerFailures(s0, s1);
  if (traced) {
    SpanRecorder* rec = spec.recorder;
    PhaseResult tcp_traced =
        RunClients(opt.seed + 1, inputs, tcp, 0.3, spec.seconds / 2, rec);
    ServerStatsSnapshot s2 = server->stats();
    result.tally.Merge(tcp_traced.stats.tally);

    // The same READs against the same server over in-process loopback
    // transports: the gap to TCP is the kernel transport's share.
    TransportFactory loopback =
        [server]() -> Result<std::unique_ptr<Transport>> {
      auto [client, server_end] = CreateLoopbackPair();
      TBM_RETURN_IF_ERROR(server->Serve(std::move(server_end)));
      return std::move(client);
    };
    PhaseResult lo = RunClients(opt.seed + 2, inputs, loopback, 0.3,
                                std::clamp(spec.seconds / 4, 1.0, 3.0),
                                nullptr);
    result.tally.Merge(lo.stats.tally);
    ServerStatsSnapshot s3 = server->stats();
    server_failures += ServerFailures(s1, s3);

    ProbeResult probes =
        RunProbes(opt.seed, inputs, stack->db(), rec->NewBuffer(),
                  &result.tally);

    const double tcp_p50 = tcp_traced.stats.reads.All().P50();
    const double blob_us = rec->Durations("blob.read").P50();
    const double next_us = rec->Durations("interp.element_next").P50();
    const double session_us = rec->Durations("serve.session_read").P50();
    const double encode_us = rec->Durations("serve.frame_encode").P50();
    const double loop_us = lo.stats.reads.All().P50();
    MetricSet& L = result.layers;
    L.Set("serve.read_seq_p50_us", rec->Durations("serve.read_seq").P50(),
          "us");
    L.Set("serve.read_seek_p50_us", rec->Durations("serve.read_seek").P50(),
          "us");
    L.Set("serve.read_loopback_p50_us", loop_us, "us");
    L.Set("serve.session_read_p50_us", session_us, "us");
    L.Set("serve.frame_encode_p50_us", encode_us, "us");
    L.Set("serve.open_lookup_p50_us",
          rec->Durations("serve.open_lookup").P50(), "us");
    L.Set("serve.open_p50_us", rec->Durations("serve.open").P50(), "us");
    L.Set("serve.requests", static_cast<double>(s2.requests - s1.requests),
          "count");
    L.Set("serve.response_mb", (s2.response_bytes - s1.response_bytes) / 1e6,
          "MB");
    L.Set("serve.degraded",
          static_cast<double>(s3.sessions_degraded - s0.sessions_degraded),
          "count");
    L.Set("serve.denied",
          static_cast<double>(s3.sessions_denied - s0.sessions_denied),
          "count");
    L.Set("serve.evicted",
          static_cast<double>(s3.sessions_evicted - s0.sessions_evicted),
          "count");
    L.Set("interp.element_next_p50_us", next_us, "us");
    const PrefetchStats& pf = probes.element_stats.prefetch;
    L.Set("interp.prefetch_hit_ratio", pf.HitRate(), "ratio");
    L.Set("interp.prefetch_base", static_cast<double>(pf.hits + pf.stalls),
          "count");
    L.Set("blob.read_p50_us", blob_us, "us");
    L.Set("bench.play_read_samples",
          static_cast<double>(rec->Durations("serve.read_seq").size() +
                              rec->Durations("serve.read_seek").size()),
          "count");
    const double untraced_p50 = m.reads.All().P50();
    L.Set("bench.play_trace_overhead_pct",
          untraced_p50 > 0 ? 100.0 * (tcp_p50 - untraced_p50) / untraced_p50
                           : 0.0,
          "%");

    // Ladder: blob -> element -> session -> encode -> loopback -> TCP.
    // Each layer's share is the rise over the rung below (clamped at
    // zero); what the shares leave of the untraced read_p50_us is the
    // unexplained remainder.
    const double element_rung = next_us * probes.batch_elements;
    const double encode_rung = session_us + encode_us;
    const double shares[] = {
        blob_us,
        std::max(0.0, element_rung - blob_us),
        std::max(0.0, session_us - element_rung),
        encode_us,
        std::max(0.0, loop_us - encode_rung),
        std::max(0.0, tcp_p50 - loop_us)};
    double explained = 0;
    for (double s : shares) explained += s;
    const double remainder = untraced_p50 - explained;
    const double pct = untraced_p50 > 0 ? 100.0 * remainder / untraced_p50 : 0;
    L.Set("bench.play_unexplained_pct", pct, "%");
    MetricSet ladder;
    ladder.Set("blob_read_us", blob_us, "us");
    ladder.Set("element_rung_us", element_rung, "us");
    ladder.Set("session_read_us", session_us, "us");
    ladder.Set("session_encode_us", encode_rung, "us");
    ladder.Set("loopback_read_us", loop_us, "us");
    ladder.Set("tcp_read_traced_us", tcp_p50, "us");
    ladder.Set("share_blob_us", shares[0], "us");
    ladder.Set("share_interp_us", shares[1], "us");
    ladder.Set("share_session_us", shares[2], "us");
    ladder.Set("share_framing_us", shares[3], "us");
    ladder.Set("share_reactor_queue_demux_us", shares[4], "us");
    ladder.Set("share_kernel_transport_us", shares[5], "us");
    ladder.Set("explained_us", explained, "us");
    ladder.Set("read_p50_us", untraced_p50, "us");
    ladder.Set("unexplained_us", remainder, "us");
    ladder.Set("unexplained_pct", pct, "%");
    result.lines.push_back(
        "{\"ladder\": {\"workload\": \"play\", \"values\": " +
        ladder.PlainJson() + "}}");
  }

  for (uint64_t i = 0; i < server_failures; ++i) {
    result.tally.attempted++;
    result.tally.Fail("server degraded, denied or evicted a stream");
  }

  stack.reset();
  RemoveTree(db_dir);
  return result;
}

}  // namespace perfbench
