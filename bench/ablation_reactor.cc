// Reactor ablation: the tentpole acceptance check for the event-driven
// serve core. One process holds 1024 concurrent streams against a
// single MediaServer (whose reactor loop multiplexes every connection
// on one thread) in two shapes:
//
//   multiplexed          16 connections x 64 streams each — the v2
//                        protocol's intended shape; each connection's
//                        write scheduler round-robins over its 64
//                        streams.
//   connection-per-stream 1024 connections x 1 stream — the shape a
//                        pre-multiplexing client forces, priced by
//                        per-connection state and client pump threads.
//
// Both shapes must admit all 1024 streams, hold them concurrently
// (active_sessions is sampled while every stream is open), and finish
// with bit-exact payloads, zero evictions, and zero denials. Three
// probes then verify the control loops still bind at this scale:
// admission must degrade-then-deny on an undersized server, byte-budget
// pacing must thin (not kill) a stream that outruns an undersized
// budget, and a flow-control-stalled stream must be evicted while its
// siblings stream on.
//
// Prints a JSON object with p50/p99 client-observed READ latency for
// both shapes; `-o <file>` also writes it to a file
// (the committed BENCH_reactor.json at the repo root is one such run).
// Exits 1 on any acceptance violation.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "blob/memory_store.h"
#include "db/database.h"
#include "interp/capture.h"
#include "serve/connection.h"
#include "serve/framing.h"
#include "serve/server.h"

namespace tbm {
namespace {

using bench::CheckOk;
using bench::ValueOrDie;

constexpr int kStreams = 1024;
constexpr int kMuxConnections = 16;
constexpr int kStreamsPerConnection = kStreams / kMuxConnections;
constexpr int kElements = 32;
constexpr int kElementBytes = 512;
constexpr int kReadBatch = 4;

// One element per tick at 10 ticks/s: the clip's average rate.
constexpr double kClipRate = kElementBytes * 10.0;

Bytes ElementPayload(int index) {
  Bytes bytes(kElementBytes);
  for (int j = 0; j < kElementBytes; ++j) {
    bytes[static_cast<size_t>(j)] =
        static_cast<uint8_t>(index * 131 + j * 7 + 3);
  }
  return bytes;
}

std::unique_ptr<MediaDatabase> BuildDb() {
  auto db = MediaDatabase::CreateWithStore(std::make_unique<MemoryBlobStore>());
  auto capture = ValueOrDie(CaptureSession::Begin(db->blob_store()), "capture");
  MediaDescriptor descriptor;
  descriptor.type_name = "audio/pcm-block";
  descriptor.kind = MediaKind::kAudio;
  size_t handle =
      ValueOrDie(capture.DeclareObject("clip", descriptor, TimeSystem(10)),
                 "declare");
  for (int i = 0; i < kElements; ++i) {
    CheckOk(capture.CaptureContiguous(handle, ElementPayload(i), 1),
            "capture element");
  }
  auto interpretation = ValueOrDie(capture.Finish(), "finish capture");
  ObjectId interp_id = ValueOrDie(
      db->AddInterpretation("clip_interp", interpretation), "add interp");
  ValueOrDie(db->AddMediaObject("clip", interp_id, "clip"), "add object");
  return db;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

serve::ServeConfig ScaleConfig() {
  serve::ServeConfig config;
  config.max_sessions = kStreams + 64;
  config.max_streams_per_connection = kStreamsPerConnection;
  // Far above the 1024 streams' aggregate booked rate (~5 MB/s):
  // admission takes everyone at stride 1, and the byte budget never
  // runs dry even with every client reading flat out — the scale
  // shapes must finish bit-exact, so pacing degradation (which skips
  // elements by design) is exercised separately in ProbePacing.
  config.capacity_bytes_per_second = 256.0 * 1024 * 1024;
  config.worker_threads = 8;
  config.io_threads = 4;
  config.budget_wait = std::chrono::milliseconds(50);
  config.stall_timeout = std::chrono::seconds(30);
  return config;
}

struct ShapeResult {
  bool held_all_concurrently = false;
  uint64_t admitted = 0;
  uint64_t denied = 0;
  uint64_t evicted = 0;
  int open_failures = 0;
  int read_failures = 0;
  int payload_mismatches = 0;
  int completed = 0;
  double wall_ms = 0.0;
  std::vector<double> latencies_us;  // Sorted after the run.

  double p50() { return Percentile(latencies_us, 0.50); }
  double p99() { return Percentile(latencies_us, 0.99); }
};

// Runs 1024 streams spread over `connection_count` connections:
// `streams_per_connection` per connection, one driver thread per
// group of 64 streams regardless of shape (so the two shapes differ
// only in connection count, not in client-side driving parallelism).
// Every driver opens its streams, then all drivers rendezvous while
// the main thread samples active_sessions — the "holds 1024
// concurrent streams" claim is measured, not assumed — and only then
// does reading begin.
ShapeResult RunShape(MediaDatabase* db, int connection_count,
                     int streams_per_connection) {
  serve::ServeConfig config = ScaleConfig();
  config.max_streams_per_connection =
      static_cast<size_t>(std::max(streams_per_connection, 1));
  serve::MediaServer server(db, config);

  std::vector<std::unique_ptr<serve::Connection>> connections;
  connections.reserve(static_cast<size_t>(connection_count));
  for (int c = 0; c < connection_count; ++c) {
    auto [client_end, server_end] = serve::CreateLoopbackPair();
    CheckOk(server.Serve(std::move(server_end)), "adopt connection");
    connections.push_back(serve::Connect(std::move(client_end)));
  }

  ShapeResult result;
  std::mutex results_mu;
  std::atomic<int> streams_open{0};
  std::atomic<bool> start_reading{false};

  constexpr int kStreamsPerDriver = 64;
  const int driver_count = kStreams / kStreamsPerDriver;
  std::vector<std::thread> drivers;
  drivers.reserve(static_cast<size_t>(driver_count));
  for (int d = 0; d < driver_count; ++d) {
    drivers.emplace_back([&, d] {
      struct Driver {
        std::unique_ptr<serve::StreamHandle> stream;
        uint64_t next_expected = 0;
        bool done = false;
      };
      std::vector<Driver> mine(kStreamsPerDriver);
      int local_open_failures = 0;
      for (int i = 0; i < kStreamsPerDriver; ++i) {
        int global = d * kStreamsPerDriver + i;
        serve::Connection* connection =
            connections[static_cast<size_t>(global / streams_per_connection)]
                .get();
        auto stream = connection->OpenStream("clip");
        if (!stream.ok()) {
          ++local_open_failures;
        } else {
          mine[static_cast<size_t>(i)].stream = std::move(*stream);
        }
        streams_open.fetch_add(1);
      }
      while (!start_reading.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }

      std::vector<double> local_latencies;
      int local_read_failures = 0, local_mismatches = 0, local_completed = 0;
      int remaining = 0;
      for (Driver& driver : mine) {
        if (driver.stream != nullptr) ++remaining;
      }
      while (remaining > 0) {
        for (Driver& driver : mine) {
          if (driver.stream == nullptr || driver.done) continue;
          auto start = std::chrono::steady_clock::now();
          auto batch = driver.stream->Read(kReadBatch);
          auto elapsed = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();
          if (!batch.ok()) {
            ++local_read_failures;
            driver.done = true;
            --remaining;
            continue;
          }
          local_latencies.push_back(elapsed);
          for (const serve::WireElement& element : batch->elements) {
            if (element.element_number != driver.next_expected ||
                element.payload !=
                    ElementPayload(static_cast<int>(element.element_number))) {
              ++local_mismatches;
            }
            ++driver.next_expected;
          }
          if (batch->end_of_stream) {
            driver.done = true;
            --remaining;
            if (driver.next_expected == static_cast<uint64_t>(kElements)) {
              ++local_completed;
            }
            (void)driver.stream->Close();
          }
        }
      }
      std::lock_guard<std::mutex> lock(results_mu);
      result.open_failures += local_open_failures;
      result.read_failures += local_read_failures;
      result.payload_mismatches += local_mismatches;
      result.completed += local_completed;
      result.latencies_us.insert(result.latencies_us.end(),
                                 local_latencies.begin(),
                                 local_latencies.end());
    });
  }

  // Rendezvous: every stream is open and held before anyone reads.
  while (streams_open.load() < kStreams) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result.held_all_concurrently =
      server.stats().active_sessions == static_cast<uint64_t>(kStreams);
  auto wall_start = std::chrono::steady_clock::now();
  start_reading.store(true, std::memory_order_release);

  for (std::thread& driver : drivers) driver.join();
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  connections.clear();
  server.Stop();

  serve::ServerStatsSnapshot stats = server.stats();
  result.admitted = stats.sessions_admitted;
  result.denied = stats.sessions_denied;
  result.evicted = stats.sessions_evicted;
  std::sort(result.latencies_us.begin(), result.latencies_us.end());
  return result;
}

// Admission probe: an undersized server must degrade before denying.
bool ProbeAdmission(MediaDatabase* db, std::string* error) {
  serve::ServeConfig config;
  // Room for two full-rate streams plus one stride-2 tier.
  config.capacity_bytes_per_second = 2.5 * kClipRate;
  config.max_stride = 2;
  serve::MediaServer server(db, config);
  auto [client_end, server_end] = serve::CreateLoopbackPair();
  CheckOk(server.Serve(std::move(server_end)), "adopt probe connection");
  auto connection = serve::Connect(std::move(client_end));

  std::vector<std::unique_ptr<serve::StreamHandle>> held;
  std::vector<uint32_t> strides;
  bool denied = false, deny_before_degrade = false;
  for (int i = 0; i < 4; ++i) {
    auto stream = connection->OpenStream("clip");
    if (stream.ok()) {
      if (denied) deny_before_degrade = true;
      strides.push_back((*stream)->info().stride);
      held.push_back(std::move(*stream));
    } else {
      denied = true;
    }
  }
  held.clear();
  server.Stop();
  if (strides != std::vector<uint32_t>{1, 1, 2} || !denied ||
      deny_before_degrade) {
    *error = "admission probe: expected strides {1,1,2} then denial";
    return false;
  }
  return true;
}

// Pacing probe: a stream reading flat out against an undersized byte
// budget must be thinned mid-flight (stride degraded, elements
// skipped) — never stalled past budget_wait, never evicted. Element
// numbers must stay strictly increasing and every delivered payload
// bit-exact for its number.
bool ProbePacing(MediaDatabase* db, std::string* error) {
  serve::ServeConfig config;
  // Just above one stream's booked rate, so admission grants stride 1
  // but the bucket runs dry as soon as the client outruns the clip.
  config.capacity_bytes_per_second = 1.2 * kClipRate;
  config.budget_wait = std::chrono::milliseconds(5);
  serve::MediaServer server(db, config);
  auto [client_end, server_end] = serve::CreateLoopbackPair();
  CheckOk(server.Serve(std::move(server_end)), "adopt probe connection");
  auto connection = serve::Connect(std::move(client_end));

  auto stream = connection->OpenStream("clip");
  if (!stream.ok() || (*stream)->info().stride != 1) {
    *error = "pacing probe: expected admission at stride 1";
    return false;
  }
  uint64_t last = 0;
  bool have_last = false;
  int delivered = 0;
  for (;;) {
    auto batch = (*stream)->Read(kReadBatch);
    if (!batch.ok()) {
      *error = "pacing probe: READ failed mid-degrade";
      return false;
    }
    for (const serve::WireElement& element : batch->elements) {
      if ((have_last && element.element_number <= last) ||
          element.payload !=
              ElementPayload(static_cast<int>(element.element_number))) {
        *error = "pacing probe: non-monotonic or corrupt element";
        return false;
      }
      last = element.element_number;
      have_last = true;
      ++delivered;
    }
    if (batch->end_of_stream) break;
  }
  serve::ServerStatsSnapshot stats = server.stats();
  (void)(*stream)->Close();
  connection.reset();
  server.Stop();
  if (delivered >= kElements || stats.sessions_degraded == 0) {
    *error = "pacing probe: budget never thinned the stream";
    return false;
  }
  if (stats.sessions_evicted != 0) {
    *error = "pacing probe: pacing must degrade, not evict";
    return false;
  }
  return true;
}

// Eviction probe: a stream that parks on an empty flow-control window
// past stall_timeout is evicted; its sibling streams on.
bool ProbeEviction(MediaDatabase* db, std::string* error) {
  serve::ServeConfig config;
  config.stall_timeout = std::chrono::milliseconds(100);
  serve::MediaServer server(db, config);
  auto [client_end, server_end] = serve::CreateLoopbackPair();
  CheckOk(server.Serve(std::move(server_end)), "adopt probe connection");

  // Raw frames: the stalled stream's READ response never arrives,
  // so a blocking handle would wedge.
  auto send = [&](uint64_t stream_id, const serve::Request& request) {
    serve::FrameHeader header;
    header.stream_id = stream_id;
    CheckOk(serve::WriteFrame(
                *client_end,
                serve::EncodeFrameBody(header, serve::EncodeRequest(request))),
            "probe send");
  };
  auto recv = [&]() -> std::pair<uint64_t, serve::Response> {
    Bytes body =
        ValueOrDie(serve::ReadFrame(*client_end, serve::kMaxFrameBytes),
                   "probe recv");
    serve::Frame frame =
        ValueOrDie(serve::DecodeFrameBody(body), "probe frame");
    return {frame.header.stream_id,
            ValueOrDie(serve::DecodeResponse(frame.payload), "probe decode")};
  };

  serve::Request open_tight;
  open_tight.type = serve::RequestType::kOpen;
  open_tight.object_name = "clip";
  open_tight.qos.window_bytes = 16;  // Far less than one element.
  send(1, open_tight);
  auto opened_tight = recv();
  CheckOk(opened_tight.second.status, "probe open tight");

  serve::Request open_free;
  open_free.type = serve::RequestType::kOpen;
  open_free.object_name = "clip";
  send(2, open_free);
  auto opened_free = recv();
  CheckOk(opened_free.second.status, "probe open free");

  serve::Request read_tight;
  read_tight.type = serve::RequestType::kRead;
  read_tight.session_id = opened_tight.second.open.session_id;
  read_tight.max_elements = 1;
  send(1, read_tight);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().sessions_evicted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (server.stats().sessions_evicted != 1) {
    *error = "eviction probe: window-stalled stream was not evicted";
    return false;
  }

  serve::Request read_free;
  read_free.type = serve::RequestType::kRead;
  read_free.session_id = opened_free.second.open.session_id;
  read_free.max_elements = 2;
  send(2, read_free);
  auto batch = recv();
  if (batch.first != 2 || !batch.second.status.ok() ||
      batch.second.read.elements.size() != 2) {
    *error = "eviction probe: sibling stream did not survive the eviction";
    return false;
  }
  server.Stop();
  return true;
}

int Run(int argc, char** argv) {
  const char* out_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) out_path = argv[i + 1];
  }

  auto db = BuildDb();

  ShapeResult mux = RunShape(db.get(), kMuxConnections, kStreamsPerConnection);
  ShapeResult per_stream = RunShape(db.get(), kStreams, 1);

  std::string admission_error, pacing_error, eviction_error;
  bool admission_ok = ProbeAdmission(db.get(), &admission_error);
  bool pacing_ok = ProbePacing(db.get(), &pacing_error);
  bool eviction_ok = ProbeEviction(db.get(), &eviction_error);

  char json[4096];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"ablation_reactor\",\n"
      " \"workload\": \"%d concurrent streams, %d-element clip, "
      "%d B/element\",\n"
      " \"streams\": %d,\n"
      " \"multiplexed\": {\n"
      "  \"connections\": %d,\n"
      "  \"streams_per_connection\": %d,\n"
      "  \"held_all_concurrently\": %s,\n"
      "  \"admitted\": %llu, \"denied\": %llu, \"evicted\": %llu,\n"
      "  \"completed\": %d,\n"
      "  \"read_p50_us\": %.1f, \"read_p99_us\": %.1f,\n"
      "  \"wall_ms\": %.1f},\n"
      " \"connection_per_stream\": {\n"
      "  \"connections\": %d,\n"
      "  \"streams_per_connection\": 1,\n"
      "  \"held_all_concurrently\": %s,\n"
      "  \"admitted\": %llu, \"denied\": %llu, \"evicted\": %llu,\n"
      "  \"completed\": %d,\n"
      "  \"read_p50_us\": %.1f, \"read_p99_us\": %.1f,\n"
      "  \"wall_ms\": %.1f},\n"
      " \"admission_probe_ok\": %s,\n"
      " \"pacing_probe_ok\": %s,\n"
      " \"eviction_probe_ok\": %s}\n",
      kStreams, kElements, kElementBytes, kStreams, kMuxConnections,
      kStreamsPerConnection, mux.held_all_concurrently ? "true" : "false",
      static_cast<unsigned long long>(mux.admitted),
      static_cast<unsigned long long>(mux.denied),
      static_cast<unsigned long long>(mux.evicted), mux.completed,
      mux.p50(), mux.p99(), mux.wall_ms,
      kStreams, per_stream.held_all_concurrently ? "true" : "false",
      static_cast<unsigned long long>(per_stream.admitted),
      static_cast<unsigned long long>(per_stream.denied),
      static_cast<unsigned long long>(per_stream.evicted),
      per_stream.completed, per_stream.p50(), per_stream.p99(),
      per_stream.wall_ms, admission_ok ? "true" : "false",
      pacing_ok ? "true" : "false", eviction_ok ? "true" : "false");
  std::printf("%s", json);

  int failures = 0;
  for (const auto& [name, shape] :
       {std::pair<const char*, ShapeResult*>{"multiplexed", &mux},
        {"connection_per_stream", &per_stream}}) {
    if (!shape->held_all_concurrently) {
      std::fprintf(stderr,
                   "ACCEPTANCE FAILURE: %s did not hold %d concurrent "
                   "streams\n",
                   name, kStreams);
      ++failures;
    }
    if (shape->admitted != static_cast<uint64_t>(kStreams) ||
        shape->denied != 0 || shape->open_failures != 0) {
      std::fprintf(stderr,
                   "ACCEPTANCE FAILURE: %s admitted %llu/%d (%llu denied, "
                   "%d open failures)\n",
                   name, static_cast<unsigned long long>(shape->admitted),
                   kStreams, static_cast<unsigned long long>(shape->denied),
                   shape->open_failures);
      ++failures;
    }
    if (shape->completed != kStreams || shape->read_failures != 0) {
      std::fprintf(stderr,
                   "ACCEPTANCE FAILURE: %s completed %d/%d streams "
                   "(%d read failures)\n",
                   name, shape->completed, kStreams, shape->read_failures);
      ++failures;
    }
    if (shape->payload_mismatches != 0) {
      std::fprintf(stderr, "ACCEPTANCE FAILURE: %s had %d payload "
                   "mismatches\n",
                   name, shape->payload_mismatches);
      ++failures;
    }
    if (shape->evicted != 0) {
      std::fprintf(stderr, "ACCEPTANCE FAILURE: %s evicted %llu streams\n",
                   name, static_cast<unsigned long long>(shape->evicted));
      ++failures;
    }
  }
  if (!admission_ok) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: %s\n", admission_error.c_str());
    ++failures;
  }
  if (!pacing_ok) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: %s\n", pacing_error.c_str());
    ++failures;
  }
  if (!eviction_ok) {
    std::fprintf(stderr, "ACCEPTANCE FAILURE: %s\n", eviction_error.c_str());
    ++failures;
  }
  if (failures != 0) return 1;

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    std::fputs(json, f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace tbm

int main(int argc, char** argv) { return tbm::Run(argc, argv); }
